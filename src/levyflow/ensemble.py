"""Monte Carlo ensembles over the micro and macro simulations.

Sample ``i`` always draws from stream index ``i`` of the base seed, and the
accumulator consumes results in sample-id order no matter how many workers
ran them, so ensemble statistics are bit-identical across worker counts.
Samples run in contiguous chunks.  A macro chunk advances as one stack; a
micro chunk advances in stacks bounded by a particle budget.  A sample's
bits do not depend on the chunk or the stack it ran in, and a stack that
fails reruns its samples alone to find the lowest failing id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .drivers import RngStream, StreamChunk
from .errors import EnsembleSampleError
from .macro import default_snapshot_steps, run_macro, snapshot_stack
from .micro import micro_init, run_micro, survival_fraction


@dataclass(frozen=True)
class EnsembleConfig:
    n_samples: int = 500
    base_seed: int = 20240901
    # macro steps to accumulate; empty keeps macro.default_snapshot_steps
    snapshot_steps: tuple = ()
    export_sample_ids: tuple = ()
    workers: int = 1


# ---------------------------------------------------------------------------
# streaming moments
# ---------------------------------------------------------------------------


class WelfordAccumulator:
    """Single-pass mean/M2 accumulator for arrays (elementwise)."""

    def __init__(self):
        self.count = 0
        self.mean = None
        self.m2 = None

    def add(self, sample):
        sample = np.asarray(sample, dtype=float)
        self.count += 1
        if self.count == 1:
            self.mean = sample.copy()
            self.m2 = np.zeros_like(sample)
            return
        delta = sample - self.mean
        self.mean = self.mean + delta / self.count
        self.m2 = self.m2 + delta * (sample - self.mean)

    def variance(self):
        """Sample variance (ddof=1); zero for fewer than two samples."""
        if self.count < 2:
            return np.zeros_like(self.mean) if self.mean is not None else None
        return self.m2 / (self.count - 1)


# ---------------------------------------------------------------------------
# chunk runner (top level so worker processes can pickle it)
# ---------------------------------------------------------------------------

# Largest chunk of samples a worker runs as one stack.
MAX_CHUNK = 64
# Most particles a micro stack starts with: four samples at M = 2500.  With
# run_micro's helper thread drawing the noise, much of a stack's cost is
# paid once per step rather than once per sample, so stacks of more than two
# still gain.  On a 2-vCPU host, ten alternating 20 s runs each of the
# benchmark's micro-laws workload read median items_per_s 59.5 in stacks of
# two and 64.1 in stacks of four, at 3.5% more peak RSS.  In 8 s runs,
# stacks of three gained 2.5% over two and stacks of five 7% over four, but
# five raised peak RSS 5.4% over two: this is the largest budget within 5%.
# A stack's step peaks at about 240 traced bytes per starting particle with
# the noise drawn inline, and at 255-261 with the helper's (S, M, 2) noise
# buffer (tests/test_micro.py).
MICRO_STACK_PARTICLES = 10000


@dataclass
class SampleRecord:
    """What one sample contributes: the fields that enter the moments, the
    values kept when the sample is exported, and its diagnostics."""

    fields: np.ndarray
    export: np.ndarray
    clamp_events: int
    max_residual: float = 0.0
    survival: float | None = None


def _run_chunk(args) -> list:
    """The record of each sample of a contiguous chunk of sample ids, or the
    error that stopped it, in id order.

    Macro samples advance as one stack.  Micro samples advance in stacks of
    at most ``MICRO_STACK_PARTICLES`` starting particles (one sample at the
    least), all from one initial state built once per chunk; an error there
    propagates, and run_ensemble names the chunk's first id.  A stack fails
    as a whole, so its samples then run alone, in id order, and the chunk
    stops at the first that fails: its lowest failing id.
    """
    kind, cfg, base_seed, first, count, snapshot_steps = args
    if kind == "macro":
        per_stack = count

        def records(ids):
            snapshots, stats = run_macro(cfg, StreamChunk(RngStream(base_seed, i) for i in ids),
                                         snapshot_steps=snapshot_steps)
            per_sample = np.ascontiguousarray(np.moveaxis(snapshot_stack(snapshots), 2, 0))
            return [SampleRecord(values, values, int(clamps), float(residual))
                    for values, clamps, residual in zip(per_sample, stats.clamps, stats.residuals)]
    else:
        initial = micro_init(cfg)  # the same for every sample, and no step changes it
        per_stack = max(1, MICRO_STACK_PARTICLES // initial.positions.shape[0])

        def records(ids):
            runs, _ = run_micro(cfg, StreamChunk(RngStream(base_seed, i) for i in ids),
                                initial_state=initial)
            return [SampleRecord(fields=np.stack([state.acid, state.tissue]),
                                 export=np.asarray(alive_series),
                                 clamp_events=state.clamp_events,
                                 survival=survival_fraction(state, cfg.n_particles))
                    for state, alive_series in runs]

    out = []
    for start in range(first, first + count, per_stack):
        ids = range(start, min(start + per_stack, first + count))
        try:
            out += records(ids)
        except Exception:  # noqa: BLE001 - its samples alone name the failing id
            for sample_id in ids:
                try:
                    out += records([sample_id])
                except Exception as exc:  # noqa: BLE001 - reported for this id by run_ensemble
                    return out + [exc]
    return out


def _chunks(n_samples: int, workers: int) -> list:
    """(first id, count) of each chunk: ceil(n_samples / workers) ids, at
    most MAX_CHUNK, so every worker has work and none holds a huge stack."""
    size = min(-(-n_samples // workers), MAX_CHUNK)
    return [(first, min(size, n_samples - first)) for first in range(0, n_samples, size)]


@dataclass
class EnsembleStats:
    n_samples: int
    snapshot_steps: tuple
    mean: np.ndarray
    variance: np.ndarray
    clamp_events: int = 0
    max_residual: float = 0.0
    survival_samples: list = field(default_factory=list)
    exported: dict = field(default_factory=dict)

    @property
    def survival_mean(self):
        return float(np.mean(self.survival_samples)) if self.survival_samples else None

    @property
    def survival_stderr(self):
        if len(self.survival_samples) < 2:
            return 0.0
        return float(np.std(self.survival_samples, ddof=1) / np.sqrt(len(self.survival_samples)))


def _map_samples(fn, payloads, workers):
    """``fn`` over the payloads in order, on ``workers`` processes, at most
    one per payload."""
    if workers == 1:
        for payload in payloads:
            yield fn(payload)
        return
    # imported here: multiprocessing is a large import that only a pool needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, payloads, chunksize=1)


def run_ensemble(kind: str, cfg, ens: EnsembleConfig) -> EnsembleStats:
    """Run ``ens.n_samples`` independent simulations and stream the moments.

    ``kind`` is "macro" with a MacroConfig ``cfg`` or "micro" with a
    MicroConfig, and ``ens`` is as ``config.ensemble_config_from`` checks
    it: export ids in [0, n_samples) and snapshot steps in [0, n_steps].
    Each worker runs one contiguous chunk of sample ids at a time.  A
    failing sample aborts the whole ensemble; the raised error names the
    lowest failing sample id and the seed pair needed to replay it.
    Accumulation order is fixed by sample id, so results do not depend on
    worker count, chunking or scheduling.
    """
    export = set(ens.export_sample_ids)
    steps = tuple(ens.snapshot_steps)
    if kind == "macro":
        # run_macro keeps snapshots in step order, once per distinct step
        steps = tuple(sorted(set(steps or default_snapshot_steps(cfg.n_steps))))

    acc = WelfordAccumulator()
    stats = EnsembleStats(n_samples=ens.n_samples, snapshot_steps=steps, mean=None, variance=None)
    payloads = [(kind, cfg, ens.base_seed, first, count, steps)
                for first, count in _chunks(ens.n_samples, ens.workers)]
    # map yields chunks in submission order, so records arrive by sample id
    chunks = _map_samples(_run_chunk, payloads, min(ens.workers, len(payloads)))
    try:
        for sample_id, record in enumerate(r for chunk in chunks for r in chunk):
            if isinstance(record, Exception):
                raise record
            acc.add(record.fields)
            stats.clamp_events += record.clamp_events
            stats.max_residual = max(stats.max_residual, record.max_residual)
            if record.survival is not None:
                stats.survival_samples.append(record.survival)
            if sample_id in export:
                stats.exported[sample_id] = record.export
    except Exception as exc:  # noqa: BLE001 - context added, then re-raised
        # every record before the failing one has been consumed
        raise EnsembleSampleError(ens.base_seed, acc.count, exc) from exc
    finally:
        # shut the pool down now: the error's traceback keeps this frame, and
        # a pool closed only when the interpreter exits fails on closed pipes
        chunks.close()

    stats.mean = acc.mean
    stats.variance = acc.variance()
    return stats
