"""Host-speed calibration for the end-to-end timings.

The benchmark shares a few cores with other tenants, whose load changes the
speed of this host by tens of percent from minute to minute.  A fixed NumPy
kernel, timed right before and right after each measured call, tracks that
speed: it is the same kind of work as the program's (interpreter-bound loops
of small NumPy calls, like a fracops apply), and it does not depend on
levyflow, so no change to the program can move it.

``scaled(seconds, before, after)`` converts a measured wall time to the wall
time it would have taken on a host where the kernel takes ``REFERENCE_S``:
``seconds * REFERENCE_S / mean(before, after)``.  A program change that makes
a call slower makes its scaled time larger by the same factor.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on the 2-vCPU host the benchmark was tuned on, at its typical
# speed; it only fixes the unit, so scaled and wall times are comparable.
REFERENCE_S = 0.025
TAPS = 1500
POINTS = 1536

_values = np.random.default_rng(0).random(POINTS)


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    acc = np.zeros_like(_values)
    start = time.perf_counter()
    for off in range(1, TAPS):
        acc += 0.5 * (np.roll(_values, -off) - _values)
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at reference host speed, given the kernel times around it."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
