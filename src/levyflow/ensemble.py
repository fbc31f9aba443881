"""Monte Carlo ensembles over the micro and macro simulations.

Sample ``i`` always draws from stream index ``i`` of the base seed, and the
accumulator consumes results in sample-id order no matter how many workers
ran them, so ensemble statistics are bit-identical across worker counts.
Macro samples run in contiguous chunks, each advanced as one stack; a
sample's bits do not depend on the chunk it ran in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .drivers import RngStream, StreamChunk
from .errors import ConfigInvalid, EnsembleSampleError
from .macro import MacroConfig, default_snapshot_steps, run_macro, snapshot_set, snapshot_stack
from .micro import MicroConfig, micro_init, run_micro, survival_fraction


@dataclass(frozen=True)
class EnsembleConfig:
    n_samples: int = 500
    base_seed: int = 20240901
    # macro steps to accumulate; empty keeps macro.default_snapshot_steps
    snapshot_steps: tuple = ()
    export_sample_ids: tuple = ()
    workers: int = 1

    def __post_init__(self):
        if self.n_samples < 1:
            raise ConfigInvalid("need at least one sample")
        if self.workers < 1:
            raise ConfigInvalid("need at least one worker")


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

    Macro samples advance together as one stack; a failed sample is
    dropped from it and the others run to the end, since a later id may
    fail first in time.  Micro samples run one after another from one
    initial state, built once per chunk, so the chunk stops at its first
    failure, which is also its lowest failing id.
    """
    kind, cfg, base_seed, first, count, snapshot_steps = args
    if kind == "macro":
        streams = StreamChunk(RngStream(base_seed, i) for i in range(first, first + count))
        snapshots, stats = run_macro(cfg, streams, snapshot_steps=snapshot_steps)
        if len(stats.errors) == count:
            return [stats.errors[k] for k in range(count)]
        per_sample = np.ascontiguousarray(np.moveaxis(snapshot_stack(snapshots), 2, 0))
        return [stats.errors.get(k) or SampleRecord(per_sample[k], per_sample[k],
                                                   int(stats.clamps[k]), float(stats.residuals[k]))
                for k in range(count)]
    try:
        initial = micro_init(cfg)  # the same for every sample, and no step changes it
    except Exception as exc:  # noqa: BLE001 - reported for the chunk's first id
        return [exc]
    records = []
    for sample_id in range(first, first + count):
        try:
            state, alive_series = run_micro(cfg, RngStream(base_seed, sample_id),
                                            initial_state=initial)
        except Exception as exc:  # noqa: BLE001 - reported for this id by run_ensemble
            records.append(exc)
            break
        records.append(SampleRecord(
            fields=np.stack([state.acid, state.tissue]),
            export=np.asarray(alive_series),
            clamp_events=state.clamp_events,
            survival=survival_fraction(state, cfg.n_particles),
        ))
    return records


def _chunks(n_samples: int, workers: int) -> list:
    """(first id, count) of each chunk: ceil(n_samples / workers) ids, at
    most MAX_CHUNK, so every worker has work and none holds a huge stack."""
    size = min(-(-n_samples // workers), MAX_CHUNK)
    return [(first, min(size, n_samples - first)) for first in range(0, n_samples, size)]


@dataclass
class EnsembleStats:
    kind: str
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
    """``fn`` over the payloads in order, on at most one process per payload."""
    workers = min(workers, len(payloads))
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

    The inputs are checked before any sample starts.  Each worker runs one
    contiguous chunk of sample ids at a time.  A failing sample aborts the
    whole ensemble; the raised error names the lowest failing sample id and
    the seed pair needed to replay it.  Accumulation order is fixed by
    sample id, so results do not depend on worker count, chunking or
    scheduling.
    """
    config_type = {"macro": MacroConfig, "micro": MicroConfig}.get(kind)
    if config_type is None:
        raise ConfigInvalid(f"unknown ensemble kind {kind!r}")
    if not isinstance(cfg, config_type):
        raise ConfigInvalid(f"{kind} ensemble needs a {config_type.__name__}")
    export = set(ens.export_sample_ids)
    outside = sorted(i for i in export if not 0 <= i < ens.n_samples)
    if outside:
        raise ConfigInvalid(
            f"export sample ids outside [0, {ens.n_samples}): {outside}"
        )
    steps = tuple(ens.snapshot_steps)
    if kind == "macro":
        # run_macro keeps snapshots in step order, once per distinct step
        steps = tuple(sorted(snapshot_set(cfg, steps or default_snapshot_steps(cfg.n_steps))))

    acc = WelfordAccumulator()
    stats = EnsembleStats(
        kind=kind,
        n_samples=ens.n_samples,
        snapshot_steps=steps,
        mean=None,
        variance=None,
    )
    payloads = [(kind, cfg, ens.base_seed, first, count, steps)
                for first, count in _chunks(ens.n_samples, ens.workers)]
    try:
        # map yields chunks in submission order, so records arrive by sample id
        chunks = _map_samples(_run_chunk, payloads, ens.workers)
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

    stats.mean = acc.mean
    stats.variance = acc.variance()
    return stats
