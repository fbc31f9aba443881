import concurrent.futures
import functools

import numpy as np
import pytest

from levyflow import ensemble, macro, micro
from levyflow.drivers import RngStream
from levyflow.ensemble import (
    EnsembleConfig,
    SampleRecord,
    WelfordAccumulator,
    run_ensemble,
)
from levyflow.errors import ConfigInvalid, EnsembleSampleError, SolverDiverged
from levyflow.macro import MacroConfig, run_macro
from levyflow.micro import MicroConfig, micro_init, run_micro, survival_fraction

SMALL_MACRO = MacroConfig(n_steps=8)
SMALL_MICRO = MicroConfig(n_particles=300, n_steps=8)


# ---------------------------------------------------------------------------
# Welford machinery
# ---------------------------------------------------------------------------


def test_welford_two_singletons():
    acc = WelfordAccumulator()
    acc.add(1.0)
    acc.add(3.0)
    assert acc.count == 2
    assert acc.mean == pytest.approx(2.0)
    assert acc.m2 == pytest.approx(2.0)
    assert acc.variance() == pytest.approx(2.0)


def test_welford_against_brute_force():
    rng = np.random.Generator(np.random.Philox(key=[31, 0]))
    data = rng.standard_normal(1000)
    brute_mean = data.mean()
    brute_m2 = ((data - brute_mean) ** 2).sum()

    acc = WelfordAccumulator()
    for v in data:
        acc.add(v)
    assert acc.count == 1000
    assert float(acc.mean) == pytest.approx(brute_mean, rel=1e-10)
    assert float(acc.m2) == pytest.approx(brute_m2, rel=1e-10)


def test_welford_elementwise_on_arrays():
    acc = WelfordAccumulator()
    acc.add(np.array([1.0, 5.0]))
    acc.add(np.array([3.0, 5.0]))
    assert np.allclose(acc.mean, [2.0, 5.0])
    assert np.allclose(acc.variance(), [2.0, 0.0])


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


def test_ensemble_config_validation():
    with pytest.raises(ConfigInvalid):
        EnsembleConfig(n_samples=0)
    with pytest.raises(ConfigInvalid):
        EnsembleConfig(workers=0)
    with pytest.raises(ConfigInvalid):
        run_ensemble("neither", SMALL_MACRO, EnsembleConfig(n_samples=1))


def test_single_sample_equals_mean_with_zero_variance():
    ens = EnsembleConfig(n_samples=1, base_seed=7, snapshot_steps=(0, 8))
    stats = run_ensemble("macro", SMALL_MACRO, ens)
    assert stats.mean.shape == (2, 3) + SMALL_MACRO.grid.shape
    assert np.all(stats.variance == 0.0)


def test_noise_off_gives_identical_samples():
    cfg = MacroConfig(n_steps=5, sigma_W=0.0)
    ens = EnsembleConfig(n_samples=4, base_seed=7, snapshot_steps=(5,))
    stats = run_ensemble("macro", cfg, ens)
    assert float(np.abs(stats.variance).max()) <= 1e-12


def test_worker_counts_agree_bitwise():
    ens1 = EnsembleConfig(n_samples=4, base_seed=11, snapshot_steps=(0, 8), workers=1)
    ens2 = EnsembleConfig(n_samples=4, base_seed=11, snapshot_steps=(0, 8), workers=2)
    s1 = run_ensemble("macro", SMALL_MACRO, ens1)
    s2 = run_ensemble("macro", SMALL_MACRO, ens2)
    assert s1.mean.tobytes() == s2.mean.tobytes()
    assert s1.variance.tobytes() == s2.variance.tobytes()


def test_micro_ensemble_survival_consistency():
    ens = EnsembleConfig(n_samples=12, base_seed=3)
    stats = run_ensemble("micro", SMALL_MICRO, ens)
    assert len(stats.survival_samples) == 12
    # the first sample must equal a direct run with the same stream
    state, _ = run_micro(SMALL_MICRO, RngStream(3, 0))
    assert stats.survival_samples[0] == survival_fraction(state, SMALL_MICRO.n_particles)
    assert 0.0 <= stats.survival_mean <= 1.0
    assert stats.survival_stderr >= 0.0


def test_export_sample_ids():
    ens = EnsembleConfig(n_samples=3, base_seed=5, snapshot_steps=(8,), export_sample_ids=(1,))
    stats = run_ensemble("macro", SMALL_MACRO, ens)
    assert set(stats.exported) == {1}
    assert stats.exported[1].shape == (1, 3) + SMALL_MACRO.grid.shape


def test_sample_failure_aborts_with_seed(monkeypatch):
    # no start and no single iteration meets a solver_tol below rounding, so
    # an H-step allowed one iteration fails; the pool starts by fork, so its
    # workers inherit the patch
    monkeypatch.setattr(macro, "bicgstab", functools.partial(macro.bicgstab, max_iterations=1))
    bad = MacroConfig(n_steps=1, solver_tol=1e-20)
    for workers in (1, 2):
        ens = EnsembleConfig(n_samples=2, base_seed=99, workers=workers)
        with pytest.raises(EnsembleSampleError) as err:
            run_ensemble("macro", bad, ens)
        assert err.value.base_seed == 99
        assert err.value.sample_index == 0
        assert "no convergence in 1 iterations" in str(err.value.cause)


def test_lockstep_failure_names_the_failing_sample(monkeypatch):
    """Sample 5 fails at its first step, in the middle of a chunk of 8:
    the ensemble names sample 5, and the chunk runs the other samples to
    the end, each bit for bit as it runs alone."""
    normal = RngStream.normal

    def nan_for_stream_5(self, size=None):
        draws = normal(self, size)
        return np.full_like(draws, np.nan) if self.stream_index == 5 else draws

    monkeypatch.setattr(RngStream, "normal", nan_for_stream_5)
    with pytest.raises(EnsembleSampleError) as err:
        run_ensemble("macro", SMALL_MACRO, EnsembleConfig(n_samples=8, base_seed=13, workers=1))
    assert err.value.sample_index == 5

    steps = (0, 8)
    chunk = ensemble._run_chunk(("macro", SMALL_MACRO, 13, 0, 8, steps))
    assert [isinstance(r, SampleRecord) for r in chunk] == [True] * 5 + [False] + [True] * 2
    (alone,) = ensemble._run_chunk(("macro", SMALL_MACRO, 13, 6, 1, steps))
    assert chunk[6].fields.tobytes() == alone.fields.tobytes()


def test_lockstep_solver_failure_names_the_failing_sample(monkeypatch):
    """Sample 5's H-solve fails on a non-finite right-hand side: the other
    samples of its chunk still build their exponents and run to the end."""
    increment = macro.sample_qwiener_increment

    def nan_for_stream_5(spec, grid, dt, streams, failures):
        """The stacked draw, past its own finite check, with stream 5's row NaN."""
        values = increment(spec, grid, dt, streams, failures=failures)
        values[[stream.stream_index == 5 for stream in streams]] = np.nan
        return values

    monkeypatch.setattr(macro, "sample_qwiener_increment", nan_for_stream_5)
    with pytest.raises(EnsembleSampleError) as err:
        run_ensemble("macro", SMALL_MACRO, EnsembleConfig(n_samples=8, base_seed=13, workers=1))
    assert err.value.sample_index == 5
    assert isinstance(err.value.__cause__, SolverDiverged)

    steps = (0, 8)
    chunk = ensemble._run_chunk(("macro", SMALL_MACRO, 13, 0, 8, steps))
    assert [isinstance(r, SampleRecord) for r in chunk] == [True] * 5 + [False] + [True] * 2
    (alone,) = ensemble._run_chunk(("macro", SMALL_MACRO, 13, 6, 1, steps))
    assert chunk[6].fields.tobytes() == alone.fields.tobytes()


def test_pool_never_larger_than_the_chunk_count(monkeypatch):
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads, chunksize=1):
            return map(fn, payloads)

    # _map_samples imports the pool class from concurrent.futures when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = MacroConfig(n_steps=1)
    run_ensemble("macro", cfg, EnsembleConfig(n_samples=2, snapshot_steps=(1,), workers=8))
    run_ensemble("macro", cfg, EnsembleConfig(n_samples=5, snapshot_steps=(1,), workers=2))
    run_ensemble("macro", cfg, EnsembleConfig(n_samples=1, snapshot_steps=(1,), workers=4))
    assert started == [2, 2]  # the single chunk runs in this process


def test_chunk_size_does_not_change_a_bit():
    """50 samples run as chunks of 1, 7 and 50 give byte-identical records
    and moments: a sample's bits do not depend on the stack it ran in."""
    cfg = MacroConfig(n_steps=10)
    runs = []
    for size in (1, 7, 50):
        records = []
        for first in range(0, 50, size):
            records += ensemble._run_chunk(("macro", cfg, 17, first, min(size, 50 - first), (0, 10)))
        acc = WelfordAccumulator()
        for record in records:
            acc.add(record.fields)
        runs.append(([(r.fields.tobytes(), r.clamp_events, r.max_residual) for r in records],
                     acc.mean.tobytes(), acc.variance().tobytes()))
    assert runs[0] == runs[1] == runs[2]


def test_micro_chunk_from_one_initial_state_gives_each_sample_its_own_run(monkeypatch):
    """A micro chunk builds its initial state once and starts every sample
    from it; each record equals the sample's own run_micro, bit for bit."""
    built = []
    counted = lambda cfg: built.append(1) or micro_init(cfg)  # noqa: E731
    monkeypatch.setattr(ensemble, "micro_init", counted)
    monkeypatch.setattr(micro, "micro_init", counted)
    records = ensemble._run_chunk(("micro", SMALL_MICRO, 29, 4, 5, ()))
    assert len(built) == 1
    for sample_id, record in enumerate(records, start=4):
        state, series = run_micro(SMALL_MICRO, RngStream(29, sample_id))
        assert record.fields.tobytes() == np.stack([state.acid, state.tissue]).tobytes()
        assert record.export.tolist() == series
        assert record.clamp_events == state.clamp_events
        assert record.survival == survival_fraction(state, SMALL_MICRO.n_particles)
    assert len({record.fields.tobytes() for record in records}) == 5


@pytest.mark.parametrize("kind, cfg, ens", [
    ("macro", SMALL_MACRO, EnsembleConfig(n_samples=2, snapshot_steps=(0, 200))),
    ("macro", SMALL_MACRO, EnsembleConfig(n_samples=2, snapshot_steps=(-1,))),
    ("macro", SMALL_MACRO, EnsembleConfig(n_samples=2, export_sample_ids=(2,))),
    ("micro", SMALL_MICRO, EnsembleConfig(n_samples=2, export_sample_ids=(-1,))),
])
def test_bad_input_rejected_before_any_sample(monkeypatch, kind, cfg, ens):
    def no_samples(*args, **kwargs):
        raise AssertionError("a sample started")

    monkeypatch.setattr(ensemble, "_map_samples", no_samples)
    with pytest.raises(ConfigInvalid):
        run_ensemble(kind, cfg, ens)


def test_unsorted_snapshot_steps_keep_their_labels():
    ens = EnsembleConfig(n_samples=1, base_seed=7, snapshot_steps=(8, 0, 8))
    stats = run_ensemble("macro", SMALL_MACRO, ens)
    assert stats.snapshot_steps == (0, 8)
    snapshots, _ = run_macro(SMALL_MACRO, RngStream(7, 0), snapshot_steps=(0,))
    assert np.array_equal(stats.mean[0, 1], snapshots[0].c)


def test_kind_config_mismatch():
    with pytest.raises(ConfigInvalid):
        run_ensemble("macro", SMALL_MICRO, EnsembleConfig(n_samples=1))
    with pytest.raises(ConfigInvalid):
        run_ensemble("micro", SMALL_MACRO, EnsembleConfig(n_samples=1))


def test_exported_samples_mean_matches_streamed_mean():
    ens = EnsembleConfig(
        n_samples=5, base_seed=21, snapshot_steps=(8,), export_sample_ids=(0, 1, 2, 3, 4)
    )
    stats = run_ensemble("macro", SMALL_MACRO, ens)
    stacked = np.stack([stats.exported[i] for i in range(5)])
    assert np.max(np.abs(stacked.mean(axis=0) - stats.mean)) <= 1e-12


def test_single_run_within_two_std_of_ensemble():
    ens = EnsembleConfig(n_samples=30, base_seed=4)
    stats = run_ensemble("micro", SMALL_MICRO, ens)
    samples = np.asarray(stats.survival_samples)
    spread = samples.std(ddof=1)
    assert abs(samples[0] - stats.survival_mean) <= 2.0 * max(spread, 1e-9)


def test_standard_error_scales_like_inverse_sqrt_samples():
    """Central-limit sanity: the pointwise standard error of the noisy H
    field shrinks like M^(-1/2) within 20% between 50 and 200 samples."""
    cfg = MacroConfig(n_steps=20)
    probe = (10, 10)
    estimates = {}
    for m in (50, 200):
        ens = EnsembleConfig(n_samples=m, base_seed=6, snapshot_steps=(20,))
        stats = run_ensemble("macro", cfg, ens)
        var = stats.variance[0, 0][probe]  # snapshot 0, field H
        estimates[m] = np.sqrt(var / m)
    ratio = estimates[200] / estimates[50]
    assert ratio == pytest.approx(0.5, rel=0.20)
