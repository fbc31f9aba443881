import concurrent.futures
import functools

import numpy as np
import pytest

from levyflow import ensemble, macro, micro
from levyflow.cli import main
from levyflow.config import ensemble_config_from, render_config
from levyflow.drivers import RngStream, StreamChunk, _basis_matrix
from levyflow.ensemble import (
    EnsembleConfig,
    SampleRecord,
    WelfordAccumulator,
    run_ensemble,
)
from levyflow.errors import ConfigInvalid, EnsembleSampleError, GridMismatch, SolverDiverged
from levyflow.grids import wrapped_gaussian_bump
from levyflow.macro import MacroConfig, run_macro
from levyflow.micro import MicroConfig, micro_init, run_micro, survival_fraction

from operator_reference import laplacian5

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
    # checked by the [ensemble] resolver, which names the key
    with pytest.raises(ConfigInvalid, match=r"\[ensemble\] M:"):
        ensemble_config_from({"ensemble": {"M": 0}}, 1, 1)
    with pytest.raises(ConfigInvalid, match=r"\[ensemble\] kind:"):
        ensemble_config_from({"ensemble": {"kind": "neither"}}, 1, 1)


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


def test_linear_h_ensemble_mean_is_the_resolvent_power_of_h0():
    """With gamma_1 = gamma_f = 0 each H-step solves
    ``(I - tau sigma_H L) H' = H (1 + sigma_W dW)``, and the increment dW
    has mean zero and is independent of H, so the ensemble mean after n
    steps is exactly ``R^n H_0`` with ``R = (I - tau sigma_H L)^-1``.  At
    the published sigma_W and sigma_H, every node's sample mean lies within
    4.5 standard errors of it."""
    steps, samples = 30, 256
    cfg = MacroConfig(n_steps=steps, gamma_1=0.0, gamma_f=0.0)
    stats = run_ensemble("macro", cfg, EnsembleConfig(n_samples=samples, base_seed=15,
                                                      snapshot_steps=(steps,)))
    grid, nodes = cfg.grid, cfg.grid.node_count
    # column i of the dense Laplacian is L applied to the unit field at node i
    lap = laplacian5(np.eye(nodes).reshape((nodes,) + grid.shape), grid).reshape(nodes, nodes).T
    system = np.eye(nodes) - cfg.tau * cfg.sigma_H * lap
    exact = wrapped_gaussian_bump(grid, cfg.h0_amp, cfg.h0_sigma).reshape(-1)
    for _ in range(steps):
        exact = np.linalg.solve(system, exact)
    mean, variance = stats.mean[0, 0].reshape(-1), stats.variance[0, 0].reshape(-1)
    assert stats.clamp_events == 0  # a clamp would bias the mean
    assert np.all(np.abs(mean - exact) <= 4.5 * np.sqrt(variance / samples))


def test_linear_h_second_moment_follows_the_exact_recursion():
    """In the mean test's linear H-equation the second moment evolves
    exactly as ``M' = R (M o (1 1^T + sigma_W^2 tau Q)) R^T`` from
    ``M_0 = H_0 H_0^T``, with Q = kron(ax^T ax, ay^T ay) the increment's
    covariance per unit time.  So the projections of H onto the noise's 16
    cosine modes have an exact covariance C.  With S their sample
    covariance over 256 samples, tr(C^-1 S) / 16 has mean 1 and, for
    Gaussian projections, standard error sqrt(2 / (16 * 255)); it lies
    within 4 of them."""
    steps, samples, stack = 30, 256, 64
    cfg = MacroConfig(n_steps=steps, gamma_1=0.0, gamma_f=0.0)
    grid, nodes, modes = cfg.grid, cfg.grid.node_count, cfg.qwiener_modes
    finals, clamps = [], 0
    for first in range(0, samples, stack):
        streams = StreamChunk(RngStream(21, i) for i in range(first, first + stack))
        (final,), stats = run_macro(cfg, streams, (steps,))
        finals.append(final.h.reshape(stack, nodes))
        clamps += stats.clamp_events
    assert clamps == 0  # a clamp would leave the linear equation
    lap = laplacian5(np.eye(nodes).reshape((nodes,) + grid.shape), grid).reshape(nodes, nodes).T
    resolvent = np.linalg.inv(np.eye(nodes) - cfg.tau * cfg.sigma_H * lap)
    ax, ay = (_basis_matrix(modes, length, points)
              for length, points in zip(grid.lengths, grid.shape))
    factor = 1.0 + cfg.sigma_W**2 * cfg.tau * np.kron(ax.T @ ax, ay.T @ ay)
    mean = wrapped_gaussian_bump(grid, cfg.h0_amp, cfg.h0_sigma).reshape(-1)
    moment = np.outer(mean, mean)
    for _ in range(steps):
        mean = resolvent @ mean
        moment = resolvent @ (moment * factor) @ resolvent.T
    cosines = [np.cos(2 * np.pi * np.arange(1, modes + 1)[:, None] * np.arange(points) / points)
               for points in grid.shape]
    project = np.kron(*cosines)  # (modes^2, nodes): e_n(x) e_m(y), n, m = 1..modes
    exact = project @ (moment - np.outer(mean, mean)) @ project.T
    sample = np.cov(np.concatenate(finals) @ project.T, rowvar=False)
    pooled = np.trace(np.linalg.solve(exact, sample)) / modes**2
    assert abs(pooled - 1.0) <= 4.0 * np.sqrt(2.0 / (modes**2 * (samples - 1))), pooled


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


def test_a_chunk_whose_initial_state_fails_names_its_first_sample(monkeypatch):
    """A micro chunk builds one initial state for all its samples; when that
    raises, the ensemble names the chunk's first id, sample 0, with the
    error as its cause.  The pool starts by fork, so its workers inherit the
    patch."""

    def failing_init(cfg):
        raise FloatingPointError("initial state")

    monkeypatch.setattr(ensemble, "micro_init", failing_init)
    for workers in (1, 2):
        ens = EnsembleConfig(n_samples=4, base_seed=17, workers=workers)
        with pytest.raises(EnsembleSampleError) as err:
            run_ensemble("micro", SMALL_MICRO, ens)
        assert (err.value.base_seed, err.value.sample_index) == (17, 0)
        assert isinstance(err.value.cause, FloatingPointError)
        assert str(err.value.cause) == "initial state"
        assert err.value.__cause__ is err.value.cause


def _nan_normals_for(monkeypatch, failing):
    """Make ``RngStream.normal`` return NaN on the draws ``failing`` maps
    each stream index to, counted from 1 per stream object: the Q-Wiener
    draw of that step then fails.  The pool starts by fork, so its workers
    inherit the patch."""
    normal = RngStream.normal

    def patched(self, size=None, out=None):
        draws = normal(self, size, out)
        self.draws = getattr(self, "draws", 0) + 1
        return draws * np.nan if failing.get(self.stream_index) == self.draws else draws

    monkeypatch.setattr(RngStream, "normal", patched)


def _alone(cfg, seed, sample_id, steps):
    """The record of one sample run as a chunk of its own."""
    (record,) = ensemble._run_chunk(("macro", cfg, seed, sample_id, 1, steps))
    return record


def test_lockstep_failure_names_the_failing_sample(monkeypatch):
    """Sample 5 fails at its first step, in the middle of a chunk of 8: the
    stack fails as a whole, its samples rerun alone in id order, and the
    ensemble names sample 5.  The chunk's records before it are each
    sample's own run, bit for bit."""
    _nan_normals_for(monkeypatch, {5: 1})
    with pytest.raises(EnsembleSampleError) as err:
        run_ensemble("macro", SMALL_MACRO, EnsembleConfig(n_samples=8, base_seed=13, workers=1))
    assert err.value.sample_index == 5
    assert isinstance(err.value.__cause__, GridMismatch)

    steps = (0, 8)
    chunk = ensemble._run_chunk(("macro", SMALL_MACRO, 13, 0, 8, steps))
    assert [isinstance(r, SampleRecord) for r in chunk] == [True] * 5 + [False]
    for sample_id in (0, 4):
        assert chunk[sample_id].fields.tobytes() == _alone(SMALL_MACRO, 13, sample_id,
                                                           steps).fields.tobytes()


def test_lockstep_solver_failure_names_the_failing_sample(monkeypatch):
    """Sample 5's H-solve fails on a non-finite right-hand side: the
    ensemble names sample 5 and the solver's error, and the samples before
    it keep the records they get alone."""
    increment = macro.sample_qwiener_increment

    def nan_for_stream_5(spec, grid, dt, streams):
        """The stacked draw, past its own finite check, with stream 5's row NaN."""
        values = increment(spec, grid, dt, streams)
        values[[stream.stream_index == 5 for stream in streams]] = np.nan
        return values

    monkeypatch.setattr(macro, "sample_qwiener_increment", nan_for_stream_5)
    with pytest.raises(EnsembleSampleError) as err:
        run_ensemble("macro", SMALL_MACRO, EnsembleConfig(n_samples=8, base_seed=13, workers=1))
    assert err.value.sample_index == 5
    assert isinstance(err.value.__cause__, SolverDiverged)

    steps = (0, 8)
    chunk = ensemble._run_chunk(("macro", SMALL_MACRO, 13, 0, 8, steps))
    assert [isinstance(r, SampleRecord) for r in chunk] == [True] * 5 + [False]
    assert chunk[4].fields.tobytes() == _alone(SMALL_MACRO, 13, 4, steps).fields.tobytes()


def test_a_later_id_that_fails_first_does_not_hide_a_lower_one(monkeypatch):
    """Sample 6 fails at step 1 and sample 2 at step 3.  The stack of 8
    fails at step 1 on sample 6, yet the reruns alone stop at sample 2,
    the lowest failing id, which the ensemble names at 1 and at 2
    workers."""
    _nan_normals_for(monkeypatch, {6: 1, 2: 3})
    for workers in (1, 2):
        with pytest.raises(EnsembleSampleError) as err:
            run_ensemble("macro", SMALL_MACRO,
                         EnsembleConfig(n_samples=8, base_seed=13, workers=workers))
        assert err.value.sample_index == 2
        assert isinstance(err.value.__cause__, GridMismatch)

    steps = (0, 8)
    chunk = ensemble._run_chunk(("macro", SMALL_MACRO, 13, 0, 8, steps))
    assert [isinstance(r, SampleRecord) for r in chunk] == [True, True, False]
    assert isinstance(chunk[2], GridMismatch)
    for sample_id in (0, 1):
        assert chunk[sample_id].fields.tobytes() == _alone(SMALL_MACRO, 13, sample_id,
                                                           steps).fields.tobytes()


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
    """A micro chunk builds its initial state once and starts every stack
    from it; each record equals the sample's own run_micro, bit for bit,
    whether the chunk runs as stacks of one, of three or as one stack, and
    a 10-sample chunk at M = 2500 in stacks of one or of the default
    budget, whose stack sizes follow from MICRO_STACK_PARTICLES."""
    built = []
    counted = lambda cfg: built.append(1) or micro_init(cfg)  # noqa: E731
    monkeypatch.setattr(ensemble, "micro_init", counted)
    monkeypatch.setattr(micro, "micro_init", counted)
    stacks = []
    run = ensemble.run_micro

    def recording(cfg, streams, initial_state):
        stacks.append(len(streams))
        return run(cfg, streams, initial_state=initial_state)

    monkeypatch.setattr(ensemble, "run_micro", recording)
    default = MicroConfig()
    per_stack = ensemble.MICRO_STACK_PARTICLES // default.n_particles
    assert per_stack > 1
    # (config, first id, [(budget, the stack sizes it gives)]); a chunk of
    # 5 samples, then of 10
    for cfg, first, budgets in (
            (SMALL_MICRO, 4, [(300, [1] * 5), (900, [3, 2]), (1500, [5])]),
            (default, 0, [(default.n_particles, [1] * 10),
                          (ensemble.MICRO_STACK_PARTICLES,
                           [min(per_stack, 10 - start) for start in range(0, 10, per_stack)])])):
        count = len(budgets[0][1])
        alone = [run_micro(cfg, RngStream(29, sample_id))
                 for sample_id in range(first, first + count)]
        built.clear()
        runs = []
        for budget, sizes in budgets:
            monkeypatch.setattr(ensemble, "MICRO_STACK_PARTICLES", budget)
            stacks.clear()
            records = ensemble._run_chunk(("micro", cfg, 29, first, count, ()))
            assert len(built) == 1
            built.clear()
            assert stacks == sizes
            for record, (state, series) in zip(records, alone, strict=True):
                assert record.fields.tobytes() == np.stack([state.acid, state.tissue]).tobytes()
                assert record.export.tolist() == series
                assert record.clamp_events == state.clamp_events
                assert record.survival == survival_fraction(state, cfg.n_particles)
            runs.append([(r.fields.tobytes(), r.export.tobytes(), r.clamp_events, r.survival)
                         for r in records])
        assert all(other == runs[0] for other in runs[1:])
        assert len({fields for fields, *_ in runs[0]}) == count


def test_micro_stacks_keep_to_the_particle_budget(monkeypatch):
    """No run_micro call of a chunk starts with more particles than the
    budget, unless one sample alone has more."""
    calls = []
    run = ensemble.run_micro

    def recording(cfg, streams, initial_state):
        calls.append((len(streams), len(streams) * initial_state.positions.shape[0]))
        return run(cfg, streams, initial_state=initial_state)

    monkeypatch.setattr(ensemble, "run_micro", recording)
    cfg = MicroConfig(n_particles=300, n_steps=2)
    ensemble._run_chunk(("micro", cfg, 3, 0, 40, ()))
    per_stack = ensemble.MICRO_STACK_PARTICLES // 300
    assert [samples for samples, _ in calls] == [min(per_stack, 40 - first)
                                                 for first in range(0, 40, per_stack)]
    assert per_stack > 1
    assert max(particles for _, particles in calls) <= ensemble.MICRO_STACK_PARTICLES
    calls.clear()
    over = MicroConfig(n_particles=ensemble.MICRO_STACK_PARTICLES + 1, n_steps=1)
    ensemble._run_chunk(("micro", over, 3, 0, 2, ()))
    assert [samples for samples, _ in calls] == [1, 1]


def test_micro_stack_failure_names_the_lowest_failing_id(monkeypatch):
    """The noise draw of stream 5 raises: the stack holding it fails as a
    whole, its samples rerun alone in id order, and the ensemble names
    sample 5 at 1 and at 2 workers.  The chunk's records before it are
    each sample's own run."""
    draw = micro.draw_noise

    def failing_for_stream_5(law, rng, dt, out):
        if rng.stream_index == 5:
            raise FloatingPointError("stream 5")
        return draw(law, rng, dt, out=out)

    # the pool starts by fork, so its workers inherit the patch
    monkeypatch.setattr(micro, "draw_noise", failing_for_stream_5)
    for workers in (1, 2):
        with pytest.raises(EnsembleSampleError) as err:
            run_ensemble("micro", SMALL_MICRO,
                         EnsembleConfig(n_samples=10, base_seed=37, workers=workers))
        assert err.value.sample_index == 5
        assert isinstance(err.value.__cause__, FloatingPointError)

    monkeypatch.setattr(ensemble, "MICRO_STACK_PARTICLES", 4 * SMALL_MICRO.n_particles)
    records = ensemble._run_chunk(("micro", SMALL_MICRO, 37, 0, 10, ()))
    assert [isinstance(r, SampleRecord) for r in records] == [True] * 5 + [False]
    for sample_id in (0, 4):
        state, _ = run_micro(SMALL_MICRO, RngStream(37, sample_id))
        assert records[sample_id].fields.tobytes() == np.stack([state.acid, state.tissue]).tobytes()


# the model section's and the [ensemble] section's keys of each case
@pytest.mark.parametrize("kind, cfg, ens", [
    ("macro", {"N": 8}, {"snapshot_steps": (0, 200)}),
    ("macro", {"N": 8}, {"snapshot_steps": (-1,)}),
    ("macro", {"N": 8}, {"export_samples": (2,)}),
    ("micro", {"M": 300, "N": 8}, {"export_samples": (-1,)}),
])
def test_bad_input_rejected_before_any_sample(monkeypatch, tmp_path, capsys, kind, cfg, ens):
    """The ensemble command refuses a bad [ensemble] key, naming it, before
    any sample starts."""
    def no_samples(*args, **kwargs):
        raise AssertionError("a sample started")

    monkeypatch.setattr(ensemble, "_map_samples", no_samples)
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(render_config({kind: cfg, "ensemble": ens}))
    assert main(["--config", str(cfgfile), "--workers", "1", "--out", str(tmp_path / "o"),
                 "ensemble", "--kind", kind, "--samples", "2"]) == 2
    assert f"[ensemble] {next(iter(ens))}:" in capsys.readouterr().err


def test_unsorted_snapshot_steps_keep_their_labels():
    ens = EnsembleConfig(n_samples=1, base_seed=7, snapshot_steps=(8, 0, 8))
    stats = run_ensemble("macro", SMALL_MACRO, ens)
    assert stats.snapshot_steps == (0, 8)
    snapshots, _ = run_macro(SMALL_MACRO, RngStream(7, 0), snapshot_steps=(0,))
    assert np.array_equal(stats.mean[0, 1], snapshots[0].c)


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
