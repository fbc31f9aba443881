"""Randomness: seeded counter-based streams, the micro-model noise laws,
the smoothed random initial field, and the truncated Q-Wiener sampler.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridMismatch
from .grids import Grid, periodic_gaussian_blur


# ---------------------------------------------------------------------------
# counter-based RNG streams
# ---------------------------------------------------------------------------


class RngStream:
    """One independently seeded draw stream.

    Built on the Philox4x64 counter-based generator with key
    ``(base_seed, stream_index)``: identical pairs replay bit-exactly and
    distinct stream indices give statistically independent streams, so a
    Monte Carlo sample id can be used directly as the stream index.  Both
    keys are integers in [0, 2^64): one outside raises OverflowError, and
    one that is not an integer TypeError.

    A stream is single-owner mutable state; never share one across workers.
    """

    def __init__(self, base_seed: int, stream_index: int = 0):
        self.base_seed = operator.index(base_seed)
        self.stream_index = operator.index(stream_index)
        # a list key holding a value of 2^63 or more would become float64
        key = np.array([self.base_seed, self.stream_index], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def normal(self, size=None, out=None):
        return self._gen.standard_normal(size, out=out)

    def uniform(self, size=None, out=None):
        return self._gen.random(size, out=out)

    def laplace(self, size):
        return self._gen.laplace(0.0, 1.0, size)

    def triangular(self, left, mode, right, size):
        return self._gen.triangular(left, mode, right, size)

    def cauchy(self, size):
        return self._gen.standard_cauchy(size)


class StreamChunk(tuple):
    """The streams of a stack of samples, one per row, in row order.

    A chunk is named by its first stream: ``stream_index`` is that
    stream's index, the first sample id of a contiguous chunk.
    """

    @property
    def stream_index(self) -> int:
        return self[0].stream_index


# ---------------------------------------------------------------------------
# micro-model noise laws
# ---------------------------------------------------------------------------


# the micro model's noise laws, by the name that [micro] noise takes
NOISE_LAWS = ("gaussian", "switching", "cauchy_modulated")
# the switching law's weights (w_0, w_1, w_2) and its triangular law
# (left, mode, right); the cauchy_modulated law's amplitude
SWITCHING_WEIGHTS = (0.3, 0.2, 0.5)
SWITCHING_TRIANGULAR = (-4.0, 0.0, 8.0)
CAUCHY_AMPLITUDE = 10.0


def draw_noise(law: str, rng: RngStream, dt: float, out: np.ndarray) -> np.ndarray:
    """Fill ``out``, a C-contiguous float array, in place with
    velocity-noise increments from the law named ``law``, one of
    ``NOISE_LAWS``, and return it.

    Every law is scaled by sqrt(dt) so the Gaussian case reproduces a
    Wiener increment and the laws stay comparable at any step size.  The
    switching law draws the uniform selector U first, then candidate values
    from all three of its laws, and keeps a standard normal where U < w_0,
    a Laplace(0, 1) draw where w_0 <= U < w_0 + w_1 and else a triangular
    draw on ``SWITCHING_TRIANGULAR``, by ``SWITCHING_WEIGHTS``.  The
    cauchy_modulated law draws a Cauchy modulator sigma, then a normal z,
    per value, and keeps ``CAUCHY_AMPLITUDE * sin(sigma) * sqrt(dt) * z``:
    zero where sigma is zero, its scale bounded by the amplitude.

    The fill draws into ``out`` where the generator can and allocates one
    candidate array at a time where it cannot; the draw order and every
    product are those of the plain formulas, so a fill gives their bits.
    """
    root_dt = math.sqrt(dt)
    if law == "gaussian":
        rng.normal(out=out)
        out += 0.0  # mean 0 plus sd 1 times z: the sum turns a -0.0 draw into +0.0
        out *= root_dt
    elif law == "switching":
        rng.uniform(out=out)  # the selector U, kept as two masks: the normals replace it
        w0, w1, _ = SWITCHING_WEIGHTS
        not_normal = ~(out < w0)
        triangular_at = ~(out < w0 + w1)
        rng.normal(out=out)
        np.copyto(out, rng.laplace(out.shape), where=not_normal)
        np.copyto(out, rng.triangular(*SWITCHING_TRIANGULAR, out.shape), where=triangular_at)
        out *= root_dt
    else:
        sigma = rng.cauchy(out.shape)
        rng.normal(out=out)
        np.sin(sigma, out=sigma)
        sigma *= CAUCHY_AMPLITUDE
        sigma *= root_dt
        out *= sigma
    return out


# ---------------------------------------------------------------------------
# smoothed random initial field
# ---------------------------------------------------------------------------


def smoothed_uniform_field(grid: Grid, seed: int, sigma: float) -> np.ndarray:
    """The uniform draws of ``RngStream(seed, 0)`` on ``grid``, blurred by a
    periodic Gaussian of width ``sigma`` and scaled to [0, 1]; zeros if the
    blurred field is flat."""
    smooth = periodic_gaussian_blur(RngStream(seed, 0).uniform(grid.shape), grid, sigma)
    lo, hi = smooth.min(), smooth.max()
    return (smooth - lo) / (hi - lo) if hi > lo else np.zeros_like(smooth)


# ---------------------------------------------------------------------------
# Q-Wiener field increments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QWienerSpec:
    """Truncated cosine expansion of a trace-class Q-Wiener process.

    Mode k carries eigenvalue ``1 / (1 + k)``; tensor modes multiply the
    per-axis eigenvalues.  Basis functions are
    ``e_n(x) = sqrt(2/L) cos(2 pi n x / L)``, orthonormal on the grid.
    """

    modes: int

    def eigenvalues(self) -> np.ndarray:
        k = np.arange(1, self.modes + 1)
        return 1.0 / (1.0 + k)


@lru_cache(maxsize=32)
def _basis_matrix(modes: int, length: float, points: int) -> np.ndarray:
    """(modes, points) array of lambda_n * e_n(x_k)."""
    x = np.arange(points) * (length / points)
    n = np.arange(1, modes + 1)[:, None]
    lam = QWienerSpec(modes).eigenvalues()[:, None]
    out = lam * np.sqrt(2.0 / length) * np.cos(2.0 * np.pi * n * x[None, :] / length)
    out.flags.writeable = False
    return out


def sample_qwiener_increment(spec: QWienerSpec, grid: Grid, dt: float,
                             streams: StreamChunk) -> np.ndarray:
    """A stack of increment fields ``sqrt(dt) * sum z_{m,n} lambda_m lambda_n
    e_n(x) e_m(y)`` on the 2D ``grid``, shape ``(S, *grid.shape)``, one per
    stream of ``streams`` in row order; a single draw is a stack of one.

    Each stream draws its normals in row order and the whole stack is
    projected in one matrix product, which gives each row the bits of a
    matrix product of that row alone.  A stack with a row that is not
    finite raises GridMismatch.
    """
    z = np.empty((len(streams), spec.modes, spec.modes))  # z[s, m, n]
    for row, stream in enumerate(streams):
        z[row] = stream.normal(z.shape[1:])
    ax = _basis_matrix(spec.modes, grid.lengths[0], grid.shape[0])
    ay = _basis_matrix(spec.modes, grid.lengths[1], grid.shape[1])
    # increment[k, j] = sum_{m,n} z[m,n] (lam_n e_n(x_k)) (lam_m e_m(y_j))
    values = ax.T @ z.transpose(0, 2, 1) @ ay
    values *= math.sqrt(dt)
    if not np.isfinite(values).all():
        raise GridMismatch("increment contains non-finite values")
    return values
