import hashlib

import numpy as np
import pytest

from levyflow import macro
from levyflow.cli import main
from levyflow.config import ensemble_config_from, macro_config_from
from levyflow.drivers import RngStream, StreamChunk
from levyflow.errors import ConfigInvalid, InvariantViolation, SolverDiverged
from levyflow.grids import Grid, centered_difference
from levyflow.macro import (
    _clamp,
    HOperator,
    MacroConfig,
    MacroRunStats,
    MacroState,
    flux_divergence,
    macro_init,
    run_macro,
    step_c,
    step_h,
    step_n,
)

from operator_reference import laplacian5

# bitwise regression anchor for the shipped default configuration
GOLDEN_FINAL_SHA256 = "12f961b7932f2abfe9341cc0d6805450dc80e6f730d502bf03f432ae792f10fd"


def _uniform_state(cfg, h=0.5, c=0.5, n=0.8):
    shape = cfg.grid.shape
    return MacroState(np.full(shape, h), np.full(shape, c), np.full(shape, n))


def _one(state):
    """A single-sample state as a stack of one."""
    return MacroState(state.h[None], state.c[None], state.n[None], state.t, state.step)


def _step_h(state, cfg):
    """step_h on one sample."""
    return step_h(_one(state), cfg, StreamChunk([RngStream(1, 0)]))[0]


def _step_c(state, cfg, stats=None):
    """step_c on one sample."""
    out, alpha = step_c(_one(state), cfg, state.h[None], state.n[None], stats)
    return out[0], alpha[0]


def test_config_validation():
    # the rules live in the [macro] resolver, whose message names the key
    for overrides, key in (({"gamma_1": -1.0}, "gamma_1"), ({"tau": 0.0}, "tau"),
                           ({"a_1": 0.4}, "a_1"), ({"a_1": 0.8, "a_2": 0.7}, "a_2")):
        with pytest.raises(ConfigInvalid, match=rf"\[macro\] {key}:"):
            macro_config_from({"macro": overrides})


def test_step_n_trivials_and_hand_value():
    cfg = MacroConfig(gamma_3=0.0)
    state = _uniform_state(cfg, h=1.0, c=1.0, n=1.0)
    assert np.allclose(step_n(state, cfg), 1.0)

    cfg = MacroConfig()
    state = _uniform_state(cfg, h=0.0, c=0.0, n=0.6)
    assert np.allclose(step_n(state, cfg), 0.6)

    state = _uniform_state(cfg, h=1.0, c=1.0, n=1.0)
    # 1 - 0.1 * 0.015 * (1 + 1) * 1 = 0.997
    assert np.allclose(step_n(state, cfg), 0.997)


def test_step_n_scheme_literal_flips_sign():
    cfg = MacroConfig(scheme_literal=True)
    state = _uniform_state(cfg, h=1.0, c=1.0, n=1.0)
    assert np.allclose(step_n(state, cfg), 1.003)


def test_step_h_identity_when_all_rates_zero():
    cfg = MacroConfig(sigma_H=0.0, gamma_f=0.0, gamma_1=0.0, sigma_W=0.0)
    state = macro_init(cfg)
    out = _step_h(state, cfg)
    assert np.array_equal(out, state.h)


def test_step_h_pure_logistic_hand_value():
    cfg = MacroConfig(sigma_H=0.0, gamma_f=0.0, sigma_W=0.0)
    state = _uniform_state(cfg, h=0.5)
    out = _step_h(state, cfg)
    # 0.5 + 0.1 * 0.005 * 0.5 * 0.5 = 0.500125
    assert np.allclose(out, 0.500125, atol=1e-12)


def test_step_h_pure_diffusion_conserves_mass():
    cfg = MacroConfig(gamma_f=0.0, gamma_1=0.0, sigma_W=0.0)
    state = macro_init(cfg)
    out = _step_h(state, cfg)
    assert out.sum() == pytest.approx(state.h.sum(), rel=1e-8)
    assert not np.allclose(out, state.h)  # diffusion did act


def test_step_c_trivials_and_conservation():
    cfg = MacroConfig(gamma_C=0.0, gamma_2=0.0, gamma_g=0.0, gamma_h=0.0)
    state = macro_init(cfg)
    out, alpha = _step_c(state, cfg)
    assert np.array_equal(out, state.c)
    assert cfg.a_1 <= alpha <= cfg.a_2

    cfg = MacroConfig(gamma_2=0.0, gamma_g=0.0, gamma_h=0.0)
    out, _ = _step_c(state, cfg)
    assert out.sum() == pytest.approx(state.c.sum(), rel=1e-8)
    assert not np.allclose(out, state.c)


def test_step_c_checks_its_residual_against_solver_tol():
    cfg = MacroConfig()
    state = macro_init(cfg)
    stats = MacroRunStats()
    _step_c(state, cfg, stats)
    assert 0.0 < stats.max_residual <= 1e-13
    assert stats.total_iterations == 0
    with pytest.raises(SolverDiverged, match="C-step residual .* above solver_tol 1.000e-300"):
        step_c(_one(state), MacroConfig(solver_tol=1e-300), state.h[None], state.n[None])


def test_step_c_zero_rhs_sample_has_zero_residual():
    """The zero-norm rule holds per sample: a sample with no cancer has a
    zero right-hand side and residual 0, next to a sample solved as usual."""
    cfg = MacroConfig()
    one = macro_init(cfg)
    state = MacroState(np.stack([one.h, one.h]), np.stack([one.c, 0.0 * one.c]),
                       np.stack([one.n, one.n]))
    stats = MacroRunStats(2)
    c_new, alpha = step_c(state, cfg, state.h, state.n, stats)
    assert np.all(c_new[1] == 0.0)
    assert stats.residuals[1] == 0.0
    assert 0.0 < stats.residuals[0] <= 1e-13
    assert alpha.shape == (2,)


def test_flux_divergence_telescopes():
    grid = Grid((2.1, 2.1), (21, 21))
    rng = np.random.Generator(np.random.Philox(key=[9, 0]))
    coef = rng.random(grid.shape)
    u = rng.random(grid.shape)
    out = flux_divergence(coef, u, grid)
    assert abs(out.sum()) <= 1e-10 * np.abs(out).sum()
    # annihilates constants
    assert np.max(np.abs(flux_divergence(coef, np.ones(grid.shape), grid))) == 0.0


H_STENCIL_CONFIGS = {
    "default": MacroConfig(),
    # coefficients large enough that diffusion and advection are O(1) parts
    # of the operator, on an odd anisotropic grid
    "strong-aniso": MacroConfig(grid=Grid((2.1, 1.5), (21, 15)), sigma_H=0.05, gamma_f=0.5),
}


@pytest.mark.parametrize("name", list(H_STENCIL_CONFIGS))
def test_h_stencil_matches_composed_operator(name):
    cfg = H_STENCIL_CONFIGS[name]
    grid, tau = cfg.grid, cfg.tau
    rng = np.random.Generator(np.random.Philox(key=[21, 0]))
    c, x = rng.random((2, 5) + grid.shape)
    f_weight = c / (1.0 + c)
    adv = sum(centered_difference(c, grid, a) * centered_difference(x, grid, a)
              for a in range(grid.ndim))
    composed = x - tau * cfg.sigma_H * laplacian5(x, grid) - tau * cfg.gamma_f * f_weight * adv
    stencil = HOperator(c, cfg)(x)
    assert stencil.shape == x.shape
    assert np.max(np.abs(stencil - composed)) <= 1e-14 * np.max(np.abs(composed))
    # each row is its own system: bitwise the apply on a stack of one
    for row in range(len(c)):
        single = HOperator(c[row:row + 1], cfg)(x[row:row + 1])
        assert single.tobytes() == stencil[row:row + 1].tobytes()


@pytest.mark.parametrize("name", list(H_STENCIL_CONFIGS))
def test_h_stencil_stack_rows_equal_fields_alone(name):
    """The assembled H operator gives every row of a stack of lead shape
    (S,) or (2, S), and of a stack that shrank, bitwise what the field gets
    alone (lead shape ())."""
    cfg = H_STENCIL_CONFIGS[name]
    rng = np.random.Generator(np.random.Philox(key=[23, 0]))
    c, x = rng.random((2, 2, 5) + cfg.grid.shape)
    stacks = [(c, x), (c[0], x[0]), (c[0, [0, 2, 4]], x[0, [0, 2, 4]]), (c[0, [2]], x[0, [2]])]
    for cs, xs in stacks:
        out = HOperator(cs, cfg)(xs)
        assert out.shape == xs.shape
        for index in np.ndindex(xs.shape[:-2]):
            alone = HOperator(cs[index], cfg)(xs[index])
            assert out[index].tobytes() == alone.tobytes()


def test_jacobi_start_sweeps_only_diagonally_dominant_rows():
    """Each row of a stack gets bitwise its own start: the swept one where
    the stencil is strictly diagonally dominant, and rhs itself where the
    advection outweighs the centre and the sweeps could grow the error."""
    cfg = MacroConfig(tau=1.0, gamma_f=0.5)
    state = macro_init(cfg)
    c = np.stack([np.full(cfg.grid.shape, 0.5), state.c])  # flat: no advection
    rhs = np.stack([state.h, state.h])
    op = HOperator(c, cfg)
    start = op.jacobi(rhs, 5)
    assert start[1].tobytes() == rhs[1].tobytes()
    alone = HOperator(c[:1], cfg)
    assert start[0].tobytes() == alone.jacobi(rhs[:1], 5)[0].tobytes()
    miss = lambda x: np.linalg.norm(rhs[:1] - alone(x[None]))  # noqa: E731
    assert miss(start[0]) < 1e-3 * miss(rhs[0])


def test_default_h_steps_need_no_bicgstab_iteration():
    """At the published parameters the Jacobi sweeps meet solver_tol, so
    BiCGSTAB only checks the answer."""
    cfg = MacroConfig(n_steps=10)
    _, stats = run_macro(cfg, StreamChunk(RngStream(8, i) for i in range(3)))
    assert stats.total_iterations == 0
    assert 0.0 < stats.max_residual <= cfg.solver_tol


@pytest.mark.parametrize("stiff", [dict(tau=10.0), dict(sigma_H=1.0), dict(gamma_f=2.0)],
                         ids=["tau", "sigma_H", "gamma_f"])
def test_stiff_h_steps_still_converge(stiff):
    """Where the sweeps do not reach solver_tol, or do not run, BiCGSTAB
    iterates to it: no sample fails."""
    cfg = MacroConfig(n_steps=10, **stiff)
    _, stats = run_macro(cfg, StreamChunk(RngStream(7, i) for i in range(4)))
    assert stats.total_iterations > 0
    assert stats.max_residual <= cfg.solver_tol


def test_a_failed_sample_fails_its_whole_stack():
    """Sample 2's H-step breaks down at gamma_f = 5: the stack of four
    raises that sample's own error, and the other samples solve alone."""
    cfg = MacroConfig(n_steps=10, gamma_f=5.0)
    with pytest.raises(SolverDiverged) as stacked:
        run_macro(cfg, StreamChunk(RngStream(7, i) for i in range(4)))
    with pytest.raises(SolverDiverged) as alone:
        run_macro(cfg, RngStream(7, 2))
    assert str(stacked.value) == str(alone.value)
    assert str(alone.value).startswith("H-step at step ")
    for sample_id in (0, 1, 3):
        _, stats = run_macro(cfg, RngStream(7, sample_id))
        assert stats.max_residual <= cfg.solver_tol


def test_absurd_tau_fails_the_h_step_quietly():
    """A non-finite H-step fails in BiCGSTAB's first residual check, as a
    named SolverDiverged that names the H-step, its step and the keys that
    set the stencil; the sweeps before it raise no RuntimeWarning."""
    state = _one(macro_init(MacroConfig()))
    with pytest.raises(SolverDiverged) as err:
        step_h(state, MacroConfig(tau=1e308), StreamChunk([RngStream(1, 0)]))
    message = str(err.value)
    assert message.startswith("H-step at step 1: BiCGSTAB breakdown: non-finite residual (")
    assert message.endswith("set by [macro] tau, sigma_H and gamma_f)")


@pytest.mark.parametrize("step, source", [(0, "the initial H of [macro] h0_amp and h0_sigma"),
                                          (4, "the H that step 4 solved")])
def test_a_non_finite_h_step_rhs_names_where_its_h_came_from(step, source):
    """An H whose right-hand side overflows fails the H-step with a
    SolverDiverged that names where that H came from and the right-hand
    side's keys, with no RuntimeWarning (the suite raises them as errors)."""
    state = _one(macro_init(MacroConfig(h0_amp=1e308)))
    state.step = step
    with pytest.raises(SolverDiverged) as err:
        step_h(state, MacroConfig(), StreamChunk([RngStream(1, 0)]))
    message = str(err.value)
    assert message.startswith(f"H-step at step {step + 1}: BiCGSTAB breakdown: non-finite ")
    assert message.endswith(
        f"; the right-hand side is not finite; it is set by the step's H, here {source}, "
        "and by [macro] tau, gamma_1 and sigma_W)")


@pytest.mark.parametrize("name", ["tissue monotonicity: N increased",
                                  "exponent left its configured window"])
def test_a_broken_invariant_raises_and_exits_6(monkeypatch, tmp_path, capsys, name):
    """A step that breaks an invariant raises InvariantViolation, named,
    and the macro command exits 6 with that name.  Every step breaks it:
    the tissue grows, or the exponent falls 0.1 below its window (and stays
    a valid exponent)."""
    if name == "tissue monotonicity: N increased":
        monkeypatch.setattr(macro, "step_n", lambda state, cfg, stats=None: state.n + 1e-6)
    else:
        alpha_of_h = MacroConfig.alpha_of_h
        monkeypatch.setattr(MacroConfig, "alpha_of_h", lambda cfg, h: alpha_of_h(cfg, h) - 0.1)
    with pytest.raises(InvariantViolation) as err:
        run_macro(MacroConfig(n_steps=2), RngStream(1, 0))
    assert str(err.value) == name
    cfgfile = tmp_path / "short.cfg"
    cfgfile.write_text("[macro]\nN = 2\n")
    assert main(["--config", str(cfgfile), "--out", str(tmp_path / "o"), "macro"]) == 6
    assert f"invariant violated: {name}" in capsys.readouterr().err


def test_clamp_zeroes_negatives_and_counts_them_per_sample():
    """Negatives become 0.0 in place while -0.0 and NaN stay, bitwise as a
    masked assignment leaves them; values below -1e-12 count per sample."""
    grid = Grid((1.0, 1.0), (3, 3))
    values = np.linspace(-1.0, 1.0, 3 * 9).reshape(3, 3, 3)
    values[0, 0, :3] = [-0.0, np.nan, -1e-13]
    values[2] = np.abs(values[2])
    expected = values.copy()
    expected[expected < 0.0] = 0.0
    stats = MacroRunStats(3)
    out = _clamp(values, grid, stats)
    assert out is values and out.tobytes() == expected.tobytes()
    assert np.signbit(out[0, 0, 0]) and np.isnan(out[0, 0, 1])
    assert stats.clamps.tolist() == [6, 4, 0]
    # a field without negatives is left as it is, and counts nothing
    assert _clamp(values, grid, stats).tobytes() == expected.tobytes()
    assert stats.clamp_events == 10


def test_run_stats_keep_each_samples_largest_residual_and_clamps():
    stats = MacroRunStats(3)
    stats.absorb_solve([1e-12, 2e-12, 3e-12], 4)
    stats.absorb_clamps([1, 0, 2])
    stats.absorb_solve([5e-12, 1e-12, 2e-12], 2)
    stats.absorb_clamps([3, 3, 0])
    assert stats.residuals.tolist() == [5e-12, 2e-12, 3e-12]
    assert stats.clamps.tolist() == [4, 3, 2]
    assert stats.total_iterations == 6 and stats.max_residual == 5e-12


def test_run_macro_zero_steps_returns_initial():
    cfg = MacroConfig(n_steps=0)
    snaps, stats = run_macro(cfg, RngStream(1, 0))
    assert len(snaps) == 1
    init = macro_init(cfg)
    assert np.array_equal(snaps[0].h, init.h)
    assert stats.clamp_events == 0


def test_snapshot_step_validation():
    # the [ensemble] resolver checks the steps against [macro] N
    sections = {"macro": {"N": 10}, "ensemble": {"snapshot_steps": (0, 11)}}
    with pytest.raises(ConfigInvalid, match=r"\[ensemble\] snapshot_steps: .*: \[11\]"):
        ensemble_config_from(sections, 1, 1)


def test_homogeneous_fields_stay_homogeneous():
    """Noise off, spatially constant data: every stencil annihilates the
    fields and only the pointwise reactions act."""
    cfg = MacroConfig(sigma_W=0.0, n_steps=25)
    state = _uniform_state(cfg, h=0.3, c=0.4, n=0.8)
    snaps, _ = run_macro(cfg, RngStream(2, 0), snapshot_steps=[25], initial_state=state)
    final = snaps[0]
    for arr in (final.h, final.c, final.n):
        assert float(np.ptp(arr)) <= 1e-10


def test_translation_equivariance_noise_off():
    cfg = MacroConfig(sigma_W=0.0, n_steps=20)
    base = macro_init(cfg)
    shifted = MacroState(
        np.roll(base.h, 1, axis=0), np.roll(base.c, 1, axis=0), np.roll(base.n, 1, axis=0)
    )
    s1, _ = run_macro(cfg, RngStream(3, 0), snapshot_steps=[20], initial_state=base)
    s2, _ = run_macro(cfg, RngStream(3, 0), snapshot_steps=[20], initial_state=shifted)
    for a, b in ((s1[0].h, s2[0].h), (s1[0].c, s2[0].c), (s1[0].n, s2[0].n)):
        assert np.max(np.abs(np.roll(a, 1, axis=0) - b)) <= 1e-8


def test_full_run_invariants_and_golden_hash():
    cfg = MacroConfig()
    snaps, stats = run_macro(cfg, RngStream(20240901, 0), snapshot_steps=[150])
    final = snaps[-1]
    assert stats.clamp_events == 0
    assert stats.max_residual <= cfg.solver_tol
    assert cfg.a_1 <= stats.alpha_min <= stats.alpha_max <= cfg.a_2
    for arr in (final.h, final.c, final.n):
        assert np.all(np.isfinite(arr))
        assert arr.min() >= 0.0
    digest = hashlib.sha256()
    for arr in (final.h, final.c, final.n):
        digest.update(arr.tobytes())
    assert digest.hexdigest() == GOLDEN_FINAL_SHA256


def test_n_monotone_under_run():
    cfg = MacroConfig(n_steps=30)
    steps, _ = run_macro(cfg, RngStream(4, 0), snapshot_steps=range(31))
    for prev, now in zip(steps, steps[1:]):
        assert np.all(now.n <= prev.n + 1e-12)


def test_alpha_tracks_mean_h():
    cfg = MacroConfig(n_steps=5)
    snaps, _ = run_macro(cfg, RngStream(5, 0), snapshot_steps=[5])
    final = snaps[-1]
    assert final.alpha_value == pytest.approx(cfg.alpha_of_h(float(final.h.mean())))
