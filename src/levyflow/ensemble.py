"""Monte Carlo ensembles over the micro and macro simulations.

Sample ``i`` always draws from stream index ``i`` of the base seed, and the
accumulator consumes results in sample-id order no matter how many workers
ran them, so ensemble statistics are bit-identical across worker counts.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .drivers import RngStream
from .errors import ConfigInvalid, EnsembleSampleError
from .macro import MacroConfig, default_snapshot_steps, run_macro, snapshot_set, snapshot_stack
from .micro import MicroConfig, run_micro, survival_fraction


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
# per-sample runner (top level so worker processes can pickle it)
# ---------------------------------------------------------------------------


@dataclass
class SampleRecord:
    """What one sample contributes: the fields that enter the moments, the
    values kept when the sample is exported, and its diagnostics."""

    fields: np.ndarray
    export: np.ndarray
    clamp_events: int
    max_residual: float = 0.0
    survival: float | None = None


def _run_sample(args) -> SampleRecord:
    kind, cfg, base_seed, sample_id, snapshot_steps = args
    rng = RngStream(base_seed, sample_id)
    if kind == "macro":
        snapshots, stats = run_macro(cfg, rng, snapshot_steps=snapshot_steps)
        stack = snapshot_stack(snapshots)
        return SampleRecord(stack, stack, stats.clamp_events, stats.max_residual)
    state, alive_series = run_micro(cfg, rng)
    return SampleRecord(
        fields=np.stack([state.acid, state.tissue]),
        export=np.asarray(alive_series),
        clamp_events=state.clamp_events,
        survival=survival_fraction(state, cfg.n_particles),
    )


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
    if workers == 1:
        for payload in payloads:
            yield fn(payload)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, payloads, chunksize=1)


def run_ensemble(kind: str, cfg, ens: EnsembleConfig) -> EnsembleStats:
    """Run ``ens.n_samples`` independent simulations and stream the moments.

    The inputs are checked before any sample starts.  A failing sample
    aborts the whole ensemble; the raised error names the seed pair needed
    to replay it.  Accumulation order is fixed by sample id, so results do
    not depend on worker count or scheduling.
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
    payloads = [(kind, cfg, ens.base_seed, i, steps) for i in range(ens.n_samples)]
    try:
        # map yields in submission order, so records arrive by sample id
        for sample_id, record in enumerate(_map_samples(_run_sample, payloads, ens.workers)):
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
