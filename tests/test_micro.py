import dataclasses
import hashlib
import itertools
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest

from levyflow import micro
from levyflow.config import micro_config_from
from levyflow.drivers import NOISE_LAWS, RngStream, StreamChunk
from levyflow.ensemble import MICRO_STACK_PARTICLES
from levyflow.errors import ConfigInvalid
from levyflow.grids import Grid, periodic_gaussian_blur
from levyflow.micro import (
    MicroConfig,
    MicroState,
    bilinear_stencil,
    deposit_fields,
    gather,
    micro_init,
    micro_step,
    run_micro,
    scatter_add,
    survival_fraction,
    wrap_positions,
)

from conftest import Inline
from test_drivers import _CLOSED_FORMS

GRID = Grid((1.0, 1.0), (41, 41))

# SHA-256 of the final state of a default run (seed 20240901) per noise law:
# the living particles' positions, velocities and protons, alive, acid,
# tissue, the alive series as int64 and clamp_events as int64
GOLDEN_MICRO_SHA256 = {
    "gaussian": "8b6d6f95e53ec0495fd1d28a1161e16dd8862117f45fde2c9721f621924ba571",
    "switching": "51ec2592f4c4566a7126ba7c8fae7440836ca73e5fe50bb7d63da83c38066870",
    "cauchy_modulated": "100a88c34077bb6e1192d49ffc51a26dffb6feee14da49a6f773f7c7f6d05949",
}


def _quiet_state(positions, tissue=None, acid=None, protons=1.0):
    m = positions.shape[0]
    return MicroState(
        positions=np.asarray(positions, dtype=float),
        velocities=np.zeros((m, 2)),
        protons=np.full(m, float(protons)),
        alive=np.ones(m, dtype=bool),
        acid=np.zeros(GRID.shape) if acid is None else acid,
        tissue=np.ones(GRID.shape) if tissue is None else tissue,
    )


def _one(state):
    """A run's state as a stack of one."""
    return micro._stacked(state, 1)


def _step(stack, cfg, rng):
    """micro_step on a stack of one, drawing inline from ``rng``."""
    return micro_step(stack, cfg, Inline(cfg, StreamChunk([rng]), stack.alive.shape[-1]))


def _no_kill_config(**kw):
    defaults = dict(
        n_particles=1,
        n_steps=3,
        noise_scale=0.0,
        kill_low=0.0,
        kill_high=np.inf,
        kill_acid=np.inf,
        # pure kinematics: no proton/acid/tissue exchange
        efflux_rate=0.0,
        buffering_rate=0.0,
        production_rate=0.0,
        vascular_uptake=0.0,
        tissue_decay=0.0,
        grid=GRID,
    )
    defaults.update(kw)
    return MicroConfig(**defaults)


def test_config_validation():
    # the rules live in the [micro] resolver, whose message names the key
    for key, value, problem in (("M", 0, r"\[micro\] M:"), ("tau", 0.0, r"\[micro\] tau:"),
                                ("h_1", 2.0, r"\[micro\] h_2: the viability band")):
        with pytest.raises(ConfigInvalid, match=problem):
            micro_config_from({"micro": {key: value}})


def test_stationary_particle_on_flat_tissue():
    cfg = _no_kill_config()
    state = _one(_quiet_state(np.array([[0.4, 0.6]])))
    rng = RngStream(1, 0)
    for _ in range(5):
        state = _step(state, cfg, rng)
    assert np.allclose(state.positions, [[0.4, 0.6]])
    assert np.allclose(state.velocities, 0.0)
    assert state.alive.all()


def test_no_kill_thresholds_full_survival():
    cfg = MicroConfig(
        n_particles=400, n_steps=10, kill_low=0.0, kill_high=np.inf, kill_acid=np.inf
    )
    state, series = run_micro(cfg, RngStream(2, 0))
    assert survival_fraction(state, cfg.n_particles) == 1.0
    assert series == [400] * 11


def test_three_step_hand_computed_trajectory():
    """Tissue linear in x away from the periodic seam: the centered
    difference of a*x is exactly a, so the drift is known in closed form."""
    slope = 0.25
    xs, _ = GRID.meshes()
    tissue = slope * xs
    cfg = _no_kill_config(tau=0.1)
    state = _one(_quiet_state(np.array([[0.4, 0.5]]), tissue=tissue))
    rng = RngStream(3, 0)
    # hand computation: v += slope*tau per step (x only), x += v*tau
    v, x = 0.0, 0.4
    for _ in range(3):
        state = _step(state, cfg, rng)
        v += slope * cfg.tau
        x += v * cfg.tau
    assert state.velocities[0, 0] == pytest.approx(v, abs=1e-12)
    assert state.positions[0, 0] == pytest.approx(x, abs=1e-12)
    assert state.positions[0, 1] == pytest.approx(0.5)


def test_forced_noise_sequence_trajectory(monkeypatch):
    """Fixed increments via a stubbed noise sampler; the position must equal
    the hand-computed explicit Euler trajectory."""
    kicks = [np.array([[0.1, -0.2]]), np.array([[0.05, 0.0]]), np.array([[-0.3, 0.1]])]
    seq = iter(kicks)

    def fill(law, rng, dt, out):
        out[...] = next(seq)

    monkeypatch.setattr("levyflow.micro.draw_noise", fill)
    cfg = _no_kill_config(tau=0.1, noise_scale=1.0)
    state = _one(_quiet_state(np.array([[0.5, 0.5]])))
    rng = RngStream(4, 0)
    v = np.zeros(2)
    x = np.array([0.5, 0.5])
    for kick in kicks:
        state = _step(state, cfg, rng)
        v = v + kick[0]
        x = (x + v * cfg.tau) % 1.0
    assert np.allclose(state.velocities[0], v, atol=1e-12)
    assert np.allclose(state.positions[0], x, atol=1e-12)


def test_micro_step_reads_its_kicks_through_its_noise_source():
    """Each step asks its noise source for the rows of its living particles,
    by their flat indices in the stack, and adds noise_scale times the rows
    it is given to their velocities; the flat tissue adds no drift."""

    class Recording:
        def __init__(self, kicks):
            self.kicks, self.asked = iter(kicks), []

        def take(self, idx):
            self.asked.append(idx.copy())
            return next(self.kicks)

    cfg = _no_kill_config(tau=0.1, noise_scale=0.3, kill_high=2.0)
    stack = micro._stacked(_quiet_state(np.array([[0.2, 0.3], [0.5, 0.5], [0.7, 0.1]])), 2)
    draws = np.random.Generator(np.random.Philox(key=[8, 0]))
    stack.velocities[:] = draws.standard_normal((6, 2))
    stack.protons[4] = 5.0  # sample 1's particle 1 leaves the viability band
    kicks = [draws.standard_normal((6, 2)), draws.standard_normal((5, 2))]
    noise = Recording(kicks)
    for kick in kicks:
        idx = np.flatnonzero(stack.alive)
        stepped = micro_step(stack, cfg, noise)
        assert np.array_equal(noise.asked[-1], idx)
        keep = np.isin(idx, np.flatnonzero(stepped.alive))
        assert np.array_equal(stepped.velocities,
                              (stack.velocities + cfg.noise_scale * kick)[keep])
        stack = stepped
    assert stack.alive.tolist() == [[True] * 3, [True, False, True]]


def test_monotone_mortality_and_positivity():
    cfg = MicroConfig(n_particles=900, n_steps=25)
    state = _one(micro_init(cfg))
    rng = RngStream(5, 0)
    alive = state.alive_count()
    for _ in range(cfg.n_steps):
        prev_tissue = state.tissue.copy()
        state = _step(state, cfg, rng)
        assert state.alive_count() <= alive
        alive = state.alive_count()
        assert state.protons.min() >= 0.0
        assert state.acid.min() >= 0.0
        assert state.tissue.min() >= 0.0
        # tissue only decays (gamma > 0, acid >= 0)
        assert np.all(state.tissue <= prev_tissue + 1e-15)


def test_determinism():
    cfg = MicroConfig(n_particles=500, n_steps=10)
    s1, a1 = run_micro(cfg, RngStream(6, 0))
    s2, a2 = run_micro(cfg, RngStream(6, 0))
    assert a1 == a2
    assert s1.positions.tobytes() == s2.positions.tobytes()
    assert survival_fraction(s1, 500) == survival_fraction(s2, 500)


def test_default_config_has_zero_clamps():
    cfg = MicroConfig(n_particles=800, n_steps=25)
    state, _ = run_micro(cfg, RngStream(7, 0))
    assert state.clamp_events == 0


# ids of the form <law>-noise<i>, stable across versions of the suite
@pytest.mark.parametrize("law", NOISE_LAWS,
                         ids=[f"{law}-noise{i}" for i, law in enumerate(NOISE_LAWS)])
def test_final_state_golden_digest(law):
    state, series = run_micro(MicroConfig(noise=law), RngStream(20240901, 0))
    # the run must kill some particles, or the dead path goes untested
    assert 0 < series[-1] < series[0]
    digest = hashlib.sha256()
    for arr in (state.positions, state.velocities, state.protons, state.alive,
                state.acid, state.tissue):
        digest.update(arr.tobytes())
    digest.update(np.asarray(series, dtype=np.int64).tobytes())
    digest.update(np.int64(state.clamp_events).tobytes())
    assert digest.hexdigest() == GOLDEN_MICRO_SHA256[law]


def test_dead_particle_neither_moves_nor_acts(monkeypatch):
    """A killed particle leaves the arrays; the survivors then step like a
    population that never had it, each kicked by its own row of the full
    (M, 2) noise draw."""
    m, dead = 64, 7
    draw = np.random.Generator(np.random.Philox(key=[9, 0])).standard_normal((m, 2)) * 0.2
    keep = np.arange(m) != dead

    def fill(law, rng, dt, out):
        out[...] = draw if len(out) == m else draw[keep]

    monkeypatch.setattr("levyflow.micro.draw_noise", fill)
    cfg = MicroConfig(n_particles=m, kill_low=0.0, kill_high=2.0, kill_acid=np.inf, grid=GRID)
    state = micro_init(cfg)
    state.protons[dead] = 5.0  # outside the viability band
    s1 = _step(_one(state), cfg, RngStream(9, 0))
    assert s1.alive[0].tolist() == keep.tolist()
    assert (s1.positions.shape, s1.velocities.shape, s1.protons.shape) == \
        ((m - 1, 2), (m - 1, 2), (m - 1,))
    # without the kill the step keeps the dead particle's row and no other
    full = _step(_one(state), dataclasses.replace(cfg, kill_high=np.inf), RngStream(9, 0))
    for name in ("positions", "velocities", "protons"):
        assert getattr(s1, name).tobytes() == getattr(full, name)[keep].tobytes(), name
    for name in ("acid", "tissue"):
        assert getattr(s1, name).tobytes() == getattr(full, name).tobytes(), name

    never = MicroState(s1.positions.copy(), s1.velocities.copy(), s1.protons.copy(),
                       np.ones((1, m - 1), dtype=bool), s1.acid.copy(), s1.tissue.copy(),
                       s1.clamp_events.copy())
    s2 = _step(s1, cfg, RngStream(9, 1))
    ref = _step(never, cfg, RngStream(9, 1))
    assert s2.alive[0].tolist() == keep.tolist() and ref.alive.all()
    for name in ("positions", "velocities", "protons", "acid", "tissue"):
        assert getattr(s2, name).tobytes() == getattr(ref, name).tobytes(), name


def test_everyone_dead_at_the_first_step_leaves_empty_arrays():
    cfg = MicroConfig(n_particles=100, n_steps=4, kill_acid=-1.0)
    state, series = run_micro(cfg, RngStream(12, 0))
    assert series == [100, 0, 0, 0, 0]
    assert (state.positions.shape, state.velocities.shape, state.protons.shape) == \
        ((0, 2), (0, 2), (0,))
    assert not state.alive.any() and state.alive.shape == (100,)
    assert survival_fraction(state, cfg.n_particles) == 0.0


@pytest.mark.parametrize("law", NOISE_LAWS)
def test_run_micro_equals_chained_steps_without_a_carried_gradient(law):
    # each state run_micro steps from holds the tissue gradient its step
    # left; a replaced state holds none, so every reference step builds its
    # stencil and gathers the gradient afresh
    cfg = MicroConfig(n_particles=900, n_steps=25, noise=law)
    state, series = run_micro(cfg, RngStream(41, 3))
    ref = _one(micro_init(cfg))
    rng = RngStream(41, 3)
    ref_series = [ref.alive_count()]
    for _ in range(cfg.n_steps):
        ref = _step(ref, cfg, rng)
        assert ref.gradient is not None
        ref = dataclasses.replace(ref)
        assert ref.gradient is None
        ref_series.append(ref.alive_count())
    # particles die on more than one step, so the kept gradient drops rows
    assert len(set(np.diff(series))) > 2
    assert series == ref_series
    for name in ("positions", "velocities", "protons", "alive", "acid", "tissue"):
        assert getattr(state, name).tobytes() == getattr(ref, name).tobytes(), name
    assert state.clamp_events == ref.clamp_events[0]


# particles of the law test below, alone or over a stack of four, and its
# noise scale per law, which gives each law's kicks about the same spread:
# at k = 1 the characteristic function reads 0.96-0.97 after one step and
# 0.27-0.49 after four
LAW_PARTICLES = 2**15
LAW_NOISE_SCALES = {"gaussian": 4.0, "switching": 2.0, "cauchy_modulated": 0.5}


@pytest.mark.parametrize("samples", [1, 4], ids=["alone", "stack-of-four"])
@pytest.mark.parametrize("law", NOISE_LAWS)
def test_positions_follow_the_law_of_the_integrated_kicks(law, samples):
    """With no taxis and no kill, a particle moves by integrated kicks:
    v_k = v_(k-1) + noise_scale D_k and x_k = x_(k-1) + tau v_k on the
    torus, with D_k the law's draw at scale sqrt(tau).  At a torus
    frequency xi = 2 pi k / L the wrap drops out, so the mean of
    exp(i xi (x_n - x_0)) over every particle and axis, each an independent
    draw, is the product over j = 1..n of the law's characteristic function
    phi at noise_scale tau (n - j + 1) xi sqrt(tau), within 6 standard
    errors, for a run alone and for a stack of four."""
    cfg = MicroConfig(n_particles=LAW_PARTICLES // samples, noise=law,
                      noise_scale=LAW_NOISE_SCALES[law], taxis_sign=0.0, kill_low=0.0,
                      kill_high=np.inf, kill_acid=np.inf)
    phi = _CLOSED_FORMS[law]
    start = micro_init(cfg).positions
    for n in (1, 2, 4):
        run_cfg = dataclasses.replace(cfg, n_steps=n)
        if samples == 1:
            state, totals = run_micro(run_cfg, RngStream(43, n))
            states = [state]
        else:
            runs, totals = run_micro(run_cfg, StreamChunk(RngStream(43, 4 * n + i)
                                                          for i in range(samples)))
            states = [state for state, _ in runs]
        assert totals == [LAW_PARTICLES] * (n + 1)  # no particle died
        moved = np.concatenate([state.positions - start for state in states]).ravel()
        lags = np.arange(n, 0, -1)  # n - j + 1 for j = 1..n
        for k in (1, 2, 3):
            xi = 2.0 * np.pi * k / cfg.grid.lengths[0]
            want = np.prod(phi(cfg.noise_scale * cfg.tau * lags * xi * np.sqrt(cfg.tau)))
            for part, values, exact in (("real", np.cos(xi * moved), want.real),
                                        ("imag", np.sin(xi * moved), want.imag)):
                stderr = values.std() / np.sqrt(values.size)
                assert abs(values.mean() - exact) <= 6.0 * stderr, (n, k, part)


# configs whose stacks must reproduce each sample's run: the defaults; kills
# on many steps with acid clamps; every proton clamped at the first step;
# every particle dead at the first step
STACK_CASES = {
    "defaults": {},
    "kill-heavy": dict(efflux_rate=30.0, vascular_uptake=400.0, kill_low=0.05, kill_acid=1.5),
    "proton-clamps": dict(buffering_rate=24.0, kill_low=0.0, kill_acid=2.0),
    "all-dead": dict(kill_acid=-1.0),
}


@pytest.mark.parametrize("case", STACK_CASES)
@pytest.mark.parametrize("law", NOISE_LAWS)
def test_a_stack_equals_each_sample_run_alone(law, case):
    cfg = MicroConfig(n_particles=400, n_steps=12, noise=law, **STACK_CASES[case])
    ids = (3, 4, 5)
    initial = micro_init(cfg)
    before = [getattr(initial, name).copy() for name in ("positions", "alive", "acid", "tissue")]
    runs, totals = run_micro(cfg, StreamChunk(RngStream(31, i) for i in ids),
                             initial_state=initial)
    assert len(runs) == len(ids)
    for (state, series), sample_id in zip(runs, ids):
        ref, ref_series = run_micro(cfg, RngStream(31, sample_id))
        assert series == ref_series
        for name in ("positions", "velocities", "protons", "alive", "acid", "tissue"):
            got, want = getattr(state, name), getattr(ref, name)
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes()), name
        assert state.clamp_events == ref.clamp_events
        assert type(state.clamp_events) is int
    # the stack's alive counts are Python ints, its samples' sums
    assert totals == [sum(counts) for counts in zip(*(series for _, series in runs))]
    assert all(type(count) is int for count in totals)
    for kept, name in zip(before, ("positions", "alive", "acid", "tissue")):
        assert getattr(initial, name).tobytes() == kept.tobytes(), name
    # each case reaches the path it is named for
    clamps = [state.clamp_events for state, _ in runs]
    if case == "all-dead":
        assert totals[1:] == [0] * cfg.n_steps
    elif case != "defaults":
        assert min(clamps) > 0 and len(set(np.diff(totals))) > 2


def _state_bytes(state):
    return [(getattr(state, name).shape, getattr(state, name).tobytes())
            for name in ("positions", "velocities", "protons", "alive", "acid", "tissue")
            ] + [state.clamp_events]


@pytest.mark.parametrize("case", ["defaults", "all-dead"])
@pytest.mark.parametrize("law", NOISE_LAWS)
def test_the_helper_thread_draws_the_inline_bits(noise_helpers, law, case):
    """Drawn inline, or one step ahead on a helper thread that stays after
    its trial or stops and leaves the later steps to draw inline, the noise
    gives byte-identical states and alive counts, for a run and stacks of
    two and of four (the ensemble's stack at M = 2500), with the threads
    switching as often as the interpreter allows."""
    cfg = MicroConfig(n_particles=400, n_steps=12, noise=law, **STACK_CASES[case])
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for mode in ("inline", "stays", "stops"):
            noise_helpers.draw(mode)
            state, series = run_micro(cfg, RngStream(31, 3))
            result = [_state_bytes(state), series]
            for ids in ((3, 4), (3, 4, 5, 6)):
                runs, totals = run_micro(cfg, StreamChunk(RngStream(31, i) for i in ids))
                result += [totals] + [(_state_bytes(s), alive) for s, alive in runs]
            results.append(result)
    finally:
        sys.setswitchinterval(interval)
    assert noise_helpers.started == 6  # every run that may start one
    assert results[0] == results[1] == results[2]
    if case == "all-dead":
        assert totals[1:] == [0] * cfg.n_steps


@pytest.mark.parametrize("overlap, stays", [(0.0, False), (0.25, False), (0.5, True), (1.0, True)])
def test_the_helper_stays_only_where_its_fills_overlapped_the_steps(monkeypatch, overlap, stays):
    """With micro.time faked, each fill takes the helper 1 s of CPU time
    and the trial 10 s of wall time, during which the process's CPU time
    runs ahead of the wall time by ``overlap`` of the trial fills' 3 s.  The
    helper stays where that is at least NOISE_OVERLAP_FRACTION (0.5).  One
    that stops has drawn every step up to the trial's last, and the caller
    draws each step after it."""
    helper_cpu = itertools.count()
    wall = iter([0.0, 10.0])
    cpu = iter([0.0, 10.0 + overlap * micro.NOISE_TRIAL_STEPS])
    monkeypatch.setattr(micro, "time", types.SimpleNamespace(
        thread_time=lambda: float(next(helper_cpu)),
        perf_counter=lambda: next(wall), process_time=lambda: next(cpu)))
    inline = []
    draw = micro.draw_noise

    def recording(law, rng, dt, out):
        inline.append(threading.current_thread() is threading.main_thread())
        return draw(law, rng, dt, out=out)

    monkeypatch.setattr(micro, "draw_noise", recording)
    cfg = MicroConfig(n_particles=100, n_steps=8)
    run_micro(cfg, RngStream(5, 0))
    on_helper = cfg.n_steps if stays else micro.NOISE_TRIAL_STEPS + 1
    assert inline == [False] * on_helper + [True] * (cfg.n_steps - on_helper)


@pytest.mark.parametrize("mode", ["stays", "stops"])
@pytest.mark.parametrize("law", NOISE_LAWS)
def test_the_golden_digests_hold_whether_the_helper_stays_or_stops(noise_helpers, law, mode):
    """The default run gives its golden digest on both forced paths."""
    noise_helpers.draw(mode)
    test_final_state_golden_digest(law)
    assert noise_helpers.started == 1


@pytest.mark.parametrize("mode", ["stays", "stops"])
@pytest.mark.parametrize("n_steps", [0, 1, 5])
@pytest.mark.parametrize("law", NOISE_LAWS)
def test_no_stream_draws_past_the_runs_last_step(noise_helpers, law, n_steps, mode):
    """After a run of N steps, each stream of its stack is where N inline
    fills leave a fresh one: the helper fills no step ahead of the last, and
    none at all at N = 0."""
    noise_helpers.draw(mode)
    cfg = MicroConfig(n_particles=50, n_steps=n_steps, noise=law)
    streams = StreamChunk(RngStream(9, i) for i in range(2))
    run_micro(cfg, streams)
    fresh = StreamChunk(RngStream(9, i) for i in range(2))
    for _ in range(n_steps):
        micro._draw_step_noise(np.empty((2, cfg.n_particles, 2)), cfg, fresh)
    assert [repr(s._gen.bit_generator.state) for s in streams] == [
        repr(s._gen.bit_generator.state) for s in fresh]


def _helper_running() -> bool:
    return any(thread.name == "levyflow-noise_0" for thread in threading.enumerate())


def test_no_thread_outlives_run_micro(monkeypatch, noise_helpers):
    """run_micro joins its helper thread when it returns, when a step
    raises on the calling thread and when a fill raises on the helper;
    the caller raises the helper's exception.  A helper that stops after
    its trial has exited when the trial's last step returns; one that
    stays is still there."""
    cfg = MicroConfig(n_particles=200, n_steps=6)
    stack = lambda: StreamChunk(RngStream(5, i) for i in range(2))  # noqa: E731
    threads = threading.active_count()
    running = []
    step = micro.micro_step
    monkeypatch.setattr(micro, "micro_step",
                        lambda *args: (step(*args), running.append(_helper_running()))[0])
    scatter = micro.scatter_add
    draw = micro.draw_noise
    last = micro.NOISE_TRIAL_STEPS  # the step that ends the trial
    for mode in ("stays", "stops"):
        noise_helpers.draw(mode)
        noise_helpers.started = 0
        running.clear()
        run_micro(cfg, RngStream(5, 0))
        if mode == "stays":  # when step k returns, it awaits or fills step k + 2
            assert running[:last + 1] == [True] * (last + 1)
        else:
            assert running == [True] * last + [False] * (cfg.n_steps - last)
        run_micro(cfg, stack())
        assert threading.active_count() == threads

        scatters = itertools.count()

        def failing_scatter(*args):
            if next(scatters) == 5:  # on the third step
                raise FloatingPointError("step")
            return scatter(*args)

        with monkeypatch.context() as patch:
            patch.setattr(micro, "scatter_add", failing_scatter)
            with pytest.raises(FloatingPointError, match="step"):
                run_micro(cfg, stack())
        assert threading.active_count() == threads

        fills = itertools.count()
        filled_on = []

        def failing_fill(law, rng, dt, out):
            filled_on.append(threading.current_thread())
            if next(fills) == 4:  # stream 0 of the third step
                raise FloatingPointError("fill")
            return draw(law, rng, dt, out=out)

        with monkeypatch.context() as patch:
            patch.setattr(micro, "draw_noise", failing_fill)
            with pytest.raises(FloatingPointError, match="fill"):
                run_micro(cfg, stack())
        assert threading.active_count() == threads
        assert len(filled_on) == 5 and threading.main_thread() not in filled_on
        assert noise_helpers.started == 4, mode


# Peak bytes traced by tracemalloc while a stack of the ensemble's budget
# runs, per starting particle, at M = 2500 (Python 3.11, NumPy 2.4).  The
# bound was set at 10% over the 277-282 of the inline draws in stacks of
# two (a run of the per-sample step before stacks peaked at 407-414).  The
# helper thread's reused (S, M, 2) noise buffer adds 16, and a fill that
# overlaps the step's own peak adds its one candidate array, 8, and the
# switching masks, 2; a helper that drew into fresh arrays peaked at
# 326-331.  Since gather and scatter_add make one corner's terms at a time
# and a step drops its dead rows one array at a time, 20 runs per law of
# the budget's stack of four peak at 255.1-255.4 (gaussian), 256.3-260.0
# (switching) and 256.7-260.8 (cauchy_modulated) with the helper, against
# 292.5-300.9 before, and at 239-240.4 with inline draws.
STACK_PEAK_BYTES_PER_PARTICLE = 310


@pytest.mark.parametrize("law", NOISE_LAWS)
def test_a_stack_of_the_budget_keeps_its_peak_bytes_per_particle(law):
    cfg = MicroConfig(noise=law)
    samples = MICRO_STACK_PARTICLES // cfg.n_particles
    initial = micro_init(cfg)

    def stack(seed):
        return StreamChunk(RngStream(seed, i) for i in range(samples))

    run_micro(cfg, stack(1), initial_state=initial)  # fills the grid's cached tables
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run_micro(cfg, stack(2), initial_state=initial)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert samples > 1
    assert peak / (samples * cfg.n_particles) <= STACK_PEAK_BYTES_PER_PARTICLE


def test_a_replaced_state_steps_like_a_fresh_build():
    cfg = MicroConfig(n_particles=400)
    stepped = _step(_one(micro_init(cfg)), cfg, RngStream(8, 0))
    assert stepped.gradient is not None
    # the stepped state's gradient is at positions the replaced one lacks
    moved = dataclasses.replace(stepped, positions=stepped.positions[::-1].copy())
    fresh = MicroState(moved.positions.copy(), moved.velocities.copy(), moved.protons.copy(),
                       moved.alive.copy(), moved.acid.copy(), moved.tissue.copy(),
                       moved.clamp_events.copy())
    replaced = _step(moved, cfg, RngStream(8, 1))
    built = _step(fresh, cfg, RngStream(8, 1))
    for name in ("positions", "velocities", "protons", "alive", "acid", "tissue"):
        assert getattr(replaced, name).tobytes() == getattr(built, name).tobytes(), name


# ---------------------------------------------------------------------------
# gather / scatter
# ---------------------------------------------------------------------------


def _reference_corners(grid, positions):
    """The four (i, j) corner index pairs and bilinear weights, corner by
    corner, in the 2-D form the flat stencil must reproduce."""
    mx, my = grid.shape
    dx, dy = grid.spacings
    fx = positions[:, 0] / dx
    fy = positions[:, 1] / dy
    i0 = np.floor(fx).astype(int) % mx
    j0 = np.floor(fy).astype(int) % my
    i1 = (i0 + 1) % mx
    j1 = (j0 + 1) % my
    wx = fx - np.floor(fx)
    wy = fy - np.floor(fy)
    corners = ((i0, j0), (i1, j0), (i0, j1), (i1, j1))
    weights = ((1 - wx) * (1 - wy), wx * (1 - wy), (1 - wx) * wy, wx * wy)
    return corners, weights


def _four_wrap_stencil(grid, positions):
    """The stencil as four Grid.wrap_index calls, one per corner index."""
    my = grid.shape[1]
    dx, dy = grid.spacings
    fx = positions[:, 0] / dx
    fy = positions[:, 1] / dy
    floor_x = np.floor(fx)
    floor_y = np.floor(fy)
    ix = floor_x.astype(int)
    iy = floor_y.astype(int)
    row0 = grid.wrap_index(ix, 0) * my
    row1 = grid.wrap_index(ix + 1, 0) * my
    j0 = grid.wrap_index(iy, 1)
    j1 = grid.wrap_index(iy + 1, 1)
    wx = fx - floor_x
    wy = fy - floor_y
    ux = 1 - wx
    uy = 1 - wy
    flat = np.concatenate((row0 + j0, row1 + j0, row0 + j1, row1 + j1))
    weights = np.concatenate((ux * uy, wx * uy, ux * wy, wx * wy))
    return flat, weights


def test_flat_gather_scatter_keep_corner_by_corner_order():
    # many particles in the four cells around node (0, 0), so each node
    # sums contributions of all four corner kinds and the order shows
    rng = np.random.Generator(np.random.Philox(key=[13, 0]))
    dx, dy = GRID.spacings
    m = 3000
    offsets = rng.uniform(-1.0, 1.0, (m, 2)) * (dx, dy)
    pos = np.mod(offsets, 1.0)
    amounts = rng.lognormal(0.0, 3.0, m)
    field0 = rng.lognormal(0.0, 3.0, GRID.shape)
    corners, weights = _reference_corners(GRID, pos)
    stencil = bilinear_stencil(GRID, pos, 0)

    expected = field0.copy()
    for (i, j), w in zip(corners, weights):
        np.add.at(expected, (i, j), w * amounts)
    got = field0.copy()
    scatter_add(got, stencil, amounts)
    assert got.tobytes() == expected.tobytes()

    expected = np.zeros(m)
    for (i, j), w in zip(corners, weights):
        expected += w * field0[i, j]
    assert gather(field0, stencil).tobytes() == expected.tobytes()


@pytest.mark.parametrize("grid", [GRID, Grid((2.0, 0.5), (8, 5))], ids=["square", "oblong"])
def test_stencil_wraps_like_the_integer_modulo(grid):
    # positions inside the box, on its nodes, below it, exactly at L, in
    # [L, 2L), far outside it and not finite: flat indices and weights
    # equal those of the % formula and of four wrap_index calls, one per
    # corner index, bit for bit
    lx, ly = grid.lengths
    dx, dy = grid.spacings
    rng = np.random.Generator(np.random.Philox(key=[17, 0]))
    inside = rng.random((50, 2)) * (lx, ly)
    offsets = [0.0, -lx, lx, -3.0 * lx, 1e6 * lx, -1e12 * lx]
    shifted = [inside + (sx, sy * ly / lx) for sx in offsets for sy in offsets]
    nodes = np.stack(np.meshgrid(np.arange(grid.shape[0] + 1) * dx,
                                 np.arange(grid.shape[1] + 1) * dy, indexing="ij"), -1)
    edges = np.array([[lx, ly], [0.0, ly], [lx, 0.0], [-0.0, np.nextafter(ly, 0.0)],
                      [np.nextafter(lx, 3.0 * lx), 1.5 * ly], [-1e-300, 2.0 * ly],
                      [np.nan, 0.5 * ly], [0.5 * lx, np.inf], [-np.inf, np.nan]])
    for pos in (np.concatenate(shifted + [nodes.reshape(-1, 2), edges]), np.empty((0, 2))):
        with np.errstate(invalid="ignore"):
            corners, weights = _reference_corners(grid, pos)
            four_flat, four_weights = _four_wrap_stencil(grid, pos)
            stencil = bilinear_stencil(grid, pos, 0)
        my = grid.shape[1]
        flat = np.concatenate([i * my + j for i, j in corners])
        assert stencil.flat.tobytes() == flat.tobytes() == four_flat.tobytes()
        assert stencil.weights.tobytes() == np.concatenate(weights).tobytes() \
            == four_weights.tobytes()


@pytest.mark.parametrize("n", [0, 1, 7])
def test_stencil_rows_are_its_corners(n):
    # flat and weights are C-contiguous (4, n) arrays, corner k in row k
    pos = np.random.Generator(np.random.Philox(key=[19, 0])).random((n, 2))
    stencil = bilinear_stencil(GRID, pos, 0)
    corners, weights = _reference_corners(GRID, pos)
    for got in (stencil.flat, stencil.weights):
        assert got.shape == (4, n) and got.flags.c_contiguous
    for k, ((i, j), w) in enumerate(zip(corners, weights)):
        assert stencil.flat[k].tolist() == (i * GRID.shape[1] + j).tolist()
        assert stencil.weights[k].tobytes() == w.tobytes()


@pytest.mark.parametrize("length", [1.0, 0.7, 3.0])
def test_position_wrap_equals_np_mod(length, monkeypatch):
    L = length
    below = np.nextafter(L, 0.0)
    edges = [-0.0, 0.0, L, below, -1e-18, -5e-324, -L, np.nextafter(-L, 0.0),
             np.nextafter(2 * L, 0.0), 2 * L - below, -np.nextafter(L, 0.0) / 2]
    rng = np.random.Generator(np.random.Philox(key=[23, 0]))
    in_range = np.concatenate([edges, rng.uniform(-L, 0.0, 300), rng.uniform(L, 2 * L, 300),
                               rng.uniform(0.0, L, 300), -rng.random(20) * 1e-300])
    pos = in_range[: in_range.size // 2 * 2].reshape(-1, 2)
    pos = np.concatenate([pos, pos[:, ::-1]])
    expected = np.mod(pos, np.array([L, L]))
    assert (expected == L).any() and np.signbit(pos).any()
    # values within [-L, 2L) shift without np.mod
    with monkeypatch.context() as m:
        m.setattr(np, "mod", None)
        got = wrap_positions(pos, (L, L))
    assert got.tobytes() == expected.tobytes()
    # past 2L or below -L, not finite, or a box that is not square: np.mod
    for bad in (2 * L, -np.nextafter(L, 2 * L), 5e3 * L, -7e5 * L, np.nan, np.inf):
        mixed = pos.copy()
        mixed[17, 1] = bad
        with np.errstate(invalid="ignore"):
            assert wrap_positions(mixed, (L, L)).tobytes() == \
                np.mod(mixed, np.array([L, L])).tobytes()
    oblong = pos * (1.0, 0.5)
    assert wrap_positions(oblong, (L, L / 2)).tobytes() == \
        np.mod(oblong, np.array([L, L / 2])).tobytes()


def test_scatter_add_refuses_a_field_it_cannot_update_in_place():
    stencil = bilinear_stencil(GRID, np.array([[0.5, 0.5]]), 0)
    with pytest.raises(ValueError):
        scatter_add(np.zeros((41, 82))[:, ::2], stencil, np.ones(1))


def test_gather_scatter_adjoint_mass():
    rng = np.random.Generator(np.random.Philox(key=[11, 0]))
    pos = rng.random((200, 2))
    amounts = rng.random(200)
    field = np.zeros(GRID.shape)
    scatter_add(field, bilinear_stencil(GRID, pos, 0), amounts)
    assert field.sum() == pytest.approx(amounts.sum(), rel=1e-12)


def test_gather_exact_on_nodes():
    field = np.zeros(GRID.shape)
    field[3, 7] = 2.5
    dx, dy = GRID.spacings
    node = bilinear_stencil(GRID, np.array([[3 * dx, 7 * dy]]), 0)
    assert gather(field, node)[0] == pytest.approx(2.5)


# ---------------------------------------------------------------------------
# macroscopic views
# ---------------------------------------------------------------------------


def test_deposit_fields_identity_at_zero_bandwidth():
    cfg = MicroConfig(deposit_bandwidth=0.0, grid=GRID)
    state = micro_init(cfg)
    acid, tissue = deposit_fields(state, cfg)
    assert np.allclose(acid.values, state.acid)
    assert np.allclose(tissue.values, state.tissue)


def test_deposit_fields_uniform_invariant_and_mass():
    cfg = MicroConfig(grid=GRID)
    state = micro_init(cfg)
    state.acid = np.full(GRID.shape, 0.7)
    acid, tissue = deposit_fields(state, cfg)
    assert np.allclose(acid.values, 0.7, atol=1e-12)
    assert tissue.values.sum() == pytest.approx(state.tissue.sum(), rel=1e-8)


def test_deposit_point_mass_spreads_to_unit_bump():
    field = np.zeros(GRID.shape)
    field[20, 20] = 1.0
    out = periodic_gaussian_blur(field, GRID, 0.05)
    assert out.sum() == pytest.approx(1.0, rel=1e-10)
    assert out.max() < 1.0
    assert out[20, 20] == out.max()

