import hashlib

import numpy as np
import pytest

from levyflow.drivers import RngStream
from levyflow.errors import ConfigInvalid, SolverDiverged
from levyflow.grids import Grid
from levyflow.macro import (
    MacroConfig,
    MacroRunStats,
    MacroState,
    flux_divergence,
    macro_init,
    macro_step,
    run_macro,
    step_c,
    step_h,
    step_n,
)

# bitwise regression anchor for the shipped default configuration
GOLDEN_FINAL_SHA256 = "e7a3772141cb2bba42b448c21e6aee1b9b8166a13794146cc522db11bad1e16f"


def _uniform_state(cfg, h=0.5, c=0.5, n=0.8):
    shape = cfg.grid.shape
    return MacroState(np.full(shape, h), np.full(shape, c), np.full(shape, n))


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        MacroConfig(gamma_1=-1.0)
    with pytest.raises(ConfigInvalid):
        MacroConfig(tau=0.0)
    with pytest.raises(ConfigInvalid):
        MacroConfig(a_1=0.4)
    with pytest.raises(ConfigInvalid):
        MacroConfig(a_1=0.8, a_2=0.7)


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
    out = step_h(state, cfg, RngStream(1, 0))
    assert np.array_equal(out, state.h)


def test_step_h_pure_logistic_hand_value():
    cfg = MacroConfig(sigma_H=0.0, gamma_f=0.0, sigma_W=0.0)
    state = _uniform_state(cfg, h=0.5)
    out = step_h(state, cfg, RngStream(1, 0))
    # 0.5 + 0.1 * 0.005 * 0.5 * 0.5 = 0.500125
    assert np.allclose(out, 0.500125, atol=1e-12)


def test_step_h_pure_diffusion_conserves_mass():
    cfg = MacroConfig(gamma_f=0.0, gamma_1=0.0, sigma_W=0.0)
    state = macro_init(cfg)
    out = step_h(state, cfg, RngStream(1, 0))
    assert out.sum() == pytest.approx(state.h.sum(), rel=1e-8)
    assert not np.allclose(out, state.h)  # diffusion did act


def test_step_c_trivials_and_conservation():
    cfg = MacroConfig(gamma_C=0.0, gamma_2=0.0, gamma_g=0.0, gamma_h=0.0)
    state = macro_init(cfg)
    out, alpha = step_c(state, cfg, state.h, state.n)
    assert np.array_equal(out, state.c)
    assert cfg.a_1 <= alpha <= cfg.a_2

    cfg = MacroConfig(gamma_2=0.0, gamma_g=0.0, gamma_h=0.0)
    out, _ = step_c(state, cfg, state.h, state.n)
    assert out.sum() == pytest.approx(state.c.sum(), rel=1e-8)
    assert not np.allclose(out, state.c)


def test_step_c_checks_its_residual_against_solver_tol():
    cfg = MacroConfig()
    state = macro_init(cfg)
    stats = MacroRunStats()
    step_c(state, cfg, state.h, state.n, stats)
    assert 0.0 < stats.max_residual <= 1e-13
    assert stats.total_iterations == 0
    with pytest.raises(SolverDiverged):
        step_c(state, MacroConfig(solver_tol=1e-300), state.h, state.n)


def test_flux_divergence_telescopes():
    grid = Grid((2.1, 2.1), (21, 21))
    rng = np.random.Generator(np.random.Philox(key=[9, 0]))
    coef = rng.random(grid.shape)
    u = rng.random(grid.shape)
    out = flux_divergence(coef, u, grid)
    assert abs(out.sum()) <= 1e-10 * np.abs(out).sum()
    # annihilates constants
    assert np.max(np.abs(flux_divergence(coef, np.ones(grid.shape), grid))) == 0.0


def test_run_macro_zero_steps_returns_initial():
    cfg = MacroConfig(n_steps=0)
    snaps, stats = run_macro(cfg, RngStream(1, 0))
    assert len(snaps) == 1
    init = macro_init(cfg)
    assert np.array_equal(snaps[0].h, init.h)
    assert stats.clamp_events == 0


def test_snapshot_step_validation():
    cfg = MacroConfig(n_steps=10)
    with pytest.raises(ConfigInvalid):
        run_macro(cfg, RngStream(1, 0), snapshot_steps=[11])


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
    state = macro_init(cfg)
    stats = MacroRunStats()
    rng = RngStream(4, 0)
    for _ in range(cfg.n_steps):
        prev = state.n.copy()
        state = macro_step(state, cfg, rng, stats)
        assert np.all(state.n <= prev + 1e-12)


def test_alpha_tracks_mean_h():
    cfg = MacroConfig(n_steps=5)
    snaps, _ = run_macro(cfg, RngStream(5, 0), snapshot_steps=[5])
    final = snaps[-1]
    driver = cfg.alpha_driver()
    assert final.alpha_value == pytest.approx(driver.alpha_of_h(float(final.h.mean())))
