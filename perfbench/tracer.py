"""In-memory spans around the calls between levyflow's layers.

The benchmark installs these wrappers from its own files while a traced
pass runs and removes them afterwards; nothing in ``src/levyflow`` changes.
Each span records its name, start, end, parent span and ensemble sample id.
A layer's self time is its span time minus the time its direct children
cover (calls are synchronous, so children never overlap).
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from levyflow import cli, config, ensemble, formats, fracops, macro, micro


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    sample: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.max_residual = 0.0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._sample = None

    def _caller(self) -> str | None:
        """Name of the span that called the innermost open span."""
        parent = self.spans[self._stack[-1]].parent if self._stack else -1
        return self.spans[parent].name if parent >= 0 else None

    def wrap(self, name, fn, after=None, sample_of=None):
        """``fn`` recorded as span ``name``; ``after(args, result)`` counts work."""

        def traced(*args, **kwargs):
            saved = self._sample
            if sample_of is not None:
                self._sample = sample_of(args)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._sample)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self._sample = saved
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def _solver(self, fn):
        """BiCGSTAB as called from macro: time, iterations, operator applies."""

        def solve(apply_op, *args, **kwargs):
            key = "h" if self._caller() == "macro.step_h" else "c"

            def counted(x):
                self.counts[f"linsolve.{key}_applies"] += 1
                return apply_op(x)

            res = fn(counted, *args, **kwargs)
            self.counts[f"linsolve.{key}_iterations"] += res.iterations
            self.max_residual = max(self.max_residual, res.residual)
            return res

        return self.wrap("linsolve.bicgstab", solve)

    def _hooks(self):
        c = self.counts

        def add(key, amount):
            c[key] += amount

        stream = lambda args: args[1].stream_index  # noqa: E731 - (cfg, rng, ...)
        return [
            (config, "load_config_file", "config.resolve", None),
            (config, "macro_config_from", "config.resolve", None),
            (config, "micro_config_from", "config.resolve", None),
            (config, "ensemble_config_from", "config.resolve", None),
            (config, "fracheck_params_from", "config.resolve", None),
            (ensemble, "run_macro", "ensemble.sample", dict(
                sample_of=stream,
                after=lambda a, r: add("macro.clamp_events", r[1].clamp_events))),
            (ensemble, "run_micro", "ensemble.sample", dict(
                sample_of=stream,
                after=lambda a, r: add("micro.kills", r[1][0] - r[1][-1]))),
            (ensemble.WelfordAccumulator, "add", "ensemble.welford_add", None),
            (macro, "macro_init", "macro.init", None),
            (macro, "step_n", "macro.step_n", None),
            (macro, "step_h", "macro.step_h", None),
            (macro, "step_c", "macro.step_c", None),
            (macro, "sample_qwiener_increment", "drivers.qwiener", None),
            (macro, "bicgstab", "linsolve.bicgstab", self._solver),
            (fracops.FracLapOperator, "__post_init__", "fracops.build", None),
            (fracops.FracLapOperator, "apply_values", "fracops.apply", dict(
                after=lambda a, r: add("fracops.taps", _taps(a[0])))),
            (cli, "spectral_oracle", "fracops.oracle", None),
            (micro, "micro_step", "micro.step", None),
            (micro, "draw_noise", "drivers.noise", dict(
                after=lambda a, r: add("drivers.noise_values", np.size(r)))),
            (micro, "gather", "micro.gather", None),
            (micro, "scatter_add", "micro.scatter", None),
            (micro, "deposit_fields", "micro.deposit", None),
            (cli, "deposit_fields", "micro.deposit", None),
            (cli, "write_grid_binary", "formats.lvf_write", dict(
                after=lambda a, r: add("formats.lvf_bytes", Path(r).stat().st_size))),
            (cli, "write_csv", "formats.csv_write", None),
            (formats, "sha256_file", "formats.sha256", None),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Patch every hook for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name, how in self._hooks():
                original = owner.__dict__.get(attr)
                if original is None:
                    label = f"{getattr(owner, '__name__', owner)}.{attr}"
                    if label not in self.missing:
                        self.missing.append(label)
                        print(f"perfbench: no {label} to trace", file=sys.stderr)
                    continue
                if callable(how):
                    wrapper = how(original)
                else:
                    wrapper = self.wrap(name, original, **(how or {}))
                setattr(owner, attr, wrapper)
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- metrics ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer times and counts of everything recorded so far."""
        total = defaultdict(float)
        calls = Counter()
        child_time = defaultdict(float)
        for span in self.spans:
            parent = self.spans[span.parent].name if span.parent >= 0 else None
            if parent != span.name:  # a resolver calling a resolver counts once
                total[span.name] += span.seconds
            calls[span.name] += 1
            if span.parent >= 0:
                child_time[span.parent] += span.seconds
        self_time = defaultdict(float)
        for i, span in enumerate(self.spans):
            self_time[span.name] += span.seconds - child_time[i]

        solves = defaultdict(float)
        for span in self.spans:
            if span.name == "linsolve.bicgstab":
                caller = self.spans[span.parent].name if span.parent >= 0 else None
                key = "h" if caller == "macro.step_h" else "c"
                solves[key] += span.seconds

        applies = calls["fracops.apply"]
        c = self.counts
        return {
            "fracops.apply_s": total["fracops.apply"],
            "fracops.applies": applies,
            "fracops.build_s": total["fracops.build"],
            "fracops.builds": calls["fracops.build"],
            "fracops.taps_per_apply": c["fracops.taps"] / applies if applies else 0.0,
            "fracops.oracle_s": total["fracops.oracle"],
            "linsolve.h_solve_s": solves["h"],
            "linsolve.c_solve_s": solves["c"],
            "linsolve.h_iterations": c["linsolve.h_iterations"],
            "linsolve.c_iterations": c["linsolve.c_iterations"],
            "linsolve.h_applies": c["linsolve.h_applies"],
            "linsolve.c_applies": c["linsolve.c_applies"],
            "linsolve.max_residual": self.max_residual,
            "macro.step_n_s": total["macro.step_n"],
            "macro.step_h_self_s": self_time["macro.step_h"],
            "macro.step_c_self_s": self_time["macro.step_c"],
            "macro.init_s": total["macro.init"],
            "macro.clamp_events": c["macro.clamp_events"],
            "drivers.qwiener_s": total["drivers.qwiener"],
            "drivers.qwiener_draws": calls["drivers.qwiener"],
            "drivers.noise_s": total["drivers.noise"],
            "drivers.noise_values": c["drivers.noise_values"],
            "micro.gather_s": total["micro.gather"],
            "micro.gathers": calls["micro.gather"],
            "micro.scatter_s": total["micro.scatter"],
            "micro.scatters": calls["micro.scatter"],
            "micro.step_self_s": self_time["micro.step"],
            "micro.deposit_s": total["micro.deposit"],
            "micro.kills": c["micro.kills"],
            "ensemble.welford_add_s": total["ensemble.welford_add"],
            "ensemble.welford_adds": calls["ensemble.welford_add"],
            "formats.lvf_write_s": total["formats.lvf_write"],
            "formats.lvf_bytes": c["formats.lvf_bytes"],
            "formats.csv_write_s": total["formats.csv_write"],
            "formats.sha256_s": total["formats.sha256"],
            "formats.files_written": calls["formats.lvf_write"] + calls["formats.csv_write"],
            "config.resolve_s": total["config.resolve"],
        }

    def sample_seconds(self) -> dict:
        """Per-sample wall times, keyed by the invocation (root span) they ran in."""
        out = defaultdict(list)
        for span in self.spans:
            if span.name == "ensemble.sample":
                root = span
                while root.parent >= 0:
                    root = self.spans[root.parent]
                out[root.name].append(span.seconds)
        return out

    def dump(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.sample] for s in self.spans]


def _taps(op) -> int:
    """Kernel taps of a FracLapOperator (0 if it no longer keeps per-axis kernels)."""
    return sum(len(axis[0]) for axis in getattr(op, "_axes", ()))
