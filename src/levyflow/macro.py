"""Coupled macroscopic system: proton index H, cancer density C, tissue N.

Per step (the order matters, later updates consume earlier ones):

1. N is updated explicitly by its decay reaction;
2. H solves an implicit advection-diffusion system with explicit logistic
   reaction and multiplicative Q-Wiener noise on the right-hand side, by
   BiCGSTAB;
3. C solves an implicit per-axis fractional-diffusion system whose exponent
   is refreshed from the spatial mean of H, with explicit taxis fluxes and
   logistic reaction on the right-hand side.  The fractional operator is
   circulant, so this system is solved exactly with one FFT pair.

Taxis pairing follows the continuous model (+div(g grad N) - div(h grad H));
``scheme_literal=True`` switches to the published update-rule pairing, which
couples g with H-differences and h with N-differences and adds (rather than
subtracts) the N reaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .drivers import ProtonIndexDriver, QWienerSpec, RngStream, sample_qwiener_increment
from .errors import ConfigInvalid, InvariantViolation, SolverDiverged
from .fracops import FracLapOperator
from .grids import (Grid, GridField, centered_difference, laplacian5,
                    periodic_gaussian_blur, wrapped_gaussian_bump)
from .linsolve import bicgstab

_CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class MacroConfig:
    grid: Grid = field(default_factory=lambda: Grid((2.1, 2.1), (21, 21)))
    tau: float = 0.1
    n_steps: int = 150
    # growth/decay rates
    gamma_1: float = 0.005
    gamma_2: float = 0.05
    gamma_3: float = 0.015
    sigma_W: float = 0.131
    # migration coefficients; gamma_C doubles as the fractional diffusion
    # coefficient sigma_C of the update scheme
    sigma_H: float = 0.0008
    gamma_C: float = 0.00035
    gamma_g: float = 0.0007
    gamma_h: float = 0.0037
    gamma_f: float = 0.0082
    # exponent driver alpha(H) = a_1 + (a_2 - a_1) a H / (1 + a H)
    a: float = 1.0
    a_1: float = 0.6
    a_2: float = 0.9
    qwiener_modes: int = 4
    solver_tol: float = 1e-10
    # BiCGSTAB cap of the H-step (None: 10 * node count); the C-step is exact
    solver_max_iterations: int | None = None
    scheme_literal: bool = False
    # initial data (the published snapshots are figures, not data; these
    # parametrize qualitatively similar fields)
    h0_amp: float = 0.2
    h0_sigma: float = 0.3
    c0_amp: float = 1.0
    c0_sigma: float = 0.25
    n0_smooth_sigma: float = 0.25
    ic_seed: int = 171717

    def __post_init__(self):
        rates = (
            self.gamma_1, self.gamma_2, self.gamma_3, self.sigma_W,
            self.sigma_H, self.gamma_C, self.gamma_g, self.gamma_h, self.gamma_f,
        )
        if any(r < 0 for r in rates):
            raise ConfigInvalid("all rates must be nonnegative")
        if self.tau <= 0 or self.n_steps < 0:
            raise ConfigInvalid("need tau > 0 and n_steps >= 0")
        if not (0.5 < self.a_1 < self.a_2 < 1.0):
            raise ConfigInvalid("exponent window must satisfy 1/2 < a_1 < a_2 < 1")

    def alpha_driver(self) -> ProtonIndexDriver:
        return ProtonIndexDriver(self.a, self.a_1, self.a_2)


@dataclass
class MacroState:
    h: np.ndarray
    c: np.ndarray
    n: np.ndarray
    t: float = 0.0
    step: int = 0
    alpha_value: float = float("nan")

    def copy(self):
        return MacroState(self.h.copy(), self.c.copy(), self.n.copy(),
                          self.t, self.step, self.alpha_value)


@dataclass
class MacroRunStats:
    clamp_events: int = 0
    max_residual: float = 0.0
    total_iterations: int = 0
    alpha_min: float = float("inf")
    alpha_max: float = -float("inf")

    def absorb_solve(self, residual, iterations):
        self.max_residual = max(self.max_residual, residual)
        self.total_iterations += iterations

    def absorb_alpha(self, alpha):
        self.alpha_min = min(self.alpha_min, alpha)
        self.alpha_max = max(self.alpha_max, alpha)


def _clamp(values: np.ndarray, stats: MacroRunStats | None) -> np.ndarray:
    neg = values < 0.0
    if stats is not None:
        stats.clamp_events += int(np.count_nonzero(values < -_CLAMP_TOL))
    values[neg] = 0.0
    return values


def macro_init(cfg: MacroConfig) -> MacroState:
    ic_rng = RngStream(cfg.ic_seed, 0)
    raw = ic_rng.uniform(cfg.grid.shape)
    smooth = periodic_gaussian_blur(raw, cfg.grid, cfg.n0_smooth_sigma)
    lo, hi = smooth.min(), smooth.max()
    smooth = (smooth - lo) / (hi - lo) if hi > lo else np.zeros_like(smooth)
    return MacroState(
        h=wrapped_gaussian_bump(cfg.grid, cfg.h0_amp, cfg.h0_sigma),
        c=wrapped_gaussian_bump(cfg.grid, cfg.c0_amp, cfg.c0_sigma),
        n=0.5 + 0.5 * smooth,
        alpha_value=cfg.alpha_driver().alpha_of_h(0.0),
    )


# ---------------------------------------------------------------------------
# difference helpers
# ---------------------------------------------------------------------------


def flux_divergence(coef: np.ndarray, u: np.ndarray, grid: Grid) -> np.ndarray:
    """Conservative discretization of div(coef * grad u): per axis,
    ``((coef_k+1 + coef_k)(u_k+1 - u_k) + (coef_k-1 + coef_k)(u_k-1 - u_k)) / (2 d^2)``.
    Telescopes to zero total, so the coupling conserves mass exactly."""
    out = np.zeros_like(u)
    for axis in range(grid.ndim):
        d = grid.spacings[axis]
        up = np.roll(u, -1, axis=axis) - u
        dn = np.roll(u, 1, axis=axis) - u
        cup = np.roll(coef, -1, axis=axis) + coef
        cdn = np.roll(coef, 1, axis=axis) + coef
        out += (cup * up + cdn * dn) / (2.0 * d**2)
    return out


# ---------------------------------------------------------------------------
# the three substeps
# ---------------------------------------------------------------------------


def step_n(state: MacroState, cfg: MacroConfig, stats: MacroRunStats | None = None):
    """Explicit tissue update; decay per the continuous model, growth only
    under ``scheme_literal``."""
    sign = 1.0 if cfg.scheme_literal else -1.0
    n_new = state.n + sign * cfg.tau * cfg.gamma_3 * (state.c + state.h) * state.n
    return _clamp(n_new, stats)


def step_h(state: MacroState, cfg: MacroConfig, rng: RngStream,
           stats: MacroRunStats | None = None):
    """Implicit advection-diffusion solve for the proton index."""
    grid = cfg.grid
    tau = cfg.tau
    qspec = QWienerSpec(cfg.qwiener_modes)
    noise = sample_qwiener_increment(qspec, grid, tau, rng).values
    f_weight = state.c / (1.0 + state.c)
    slopes = [centered_difference(state.c, grid, axis) for axis in range(grid.ndim)]

    def apply_op(x):
        adv = np.zeros_like(x)
        for axis, slope in enumerate(slopes):
            adv += slope * centered_difference(x, grid, axis)
        return x - tau * cfg.sigma_H * laplacian5(x, grid) - tau * cfg.gamma_f * f_weight * adv

    rhs = (state.h
           + tau * cfg.gamma_1 * state.h * (1.0 - state.h)
           + cfg.sigma_W * state.h * noise)
    max_iter = cfg.solver_max_iterations or 10 * grid.node_count
    res = bicgstab(apply_op, rhs, cfg.solver_tol, max_iter, x0=rhs)
    if stats is not None:
        stats.absorb_solve(res.residual, res.iterations)
    return _clamp(res.solution, stats)


def step_c(state: MacroState, cfg: MacroConfig, h_new: np.ndarray, n_new: np.ndarray,
           stats: MacroRunStats | None = None):
    """Implicit fractional-diffusion solve for the cancer density.

    The spectral exponent is p = 2 * alpha(mean H), refreshed every step
    from the freshly updated proton index.  The fractional operator is
    diagonal under the FFT, so the system is solved exactly rather than
    iterated; its true relative residual must still meet ``solver_tol``.
    """
    grid = cfg.grid
    tau = cfg.tau
    alpha = cfg.alpha_driver().alpha_of_h(float(h_new.mean()))
    frac = FracLapOperator(grid, 2.0 * alpha)

    hapto_coef = cfg.gamma_g * n_new * state.c / (1.0 + (state.c + state.n) ** 2)
    ph_coef = cfg.gamma_h * h_new * state.c / (1.0 + (state.c + state.h) ** 2)
    if cfg.scheme_literal:
        taxis = (flux_divergence(hapto_coef, h_new, grid)
                 + flux_divergence(ph_coef, n_new, grid))
    else:
        taxis = (flux_divergence(hapto_coef, n_new, grid)
                 - flux_divergence(ph_coef, h_new, grid))

    rhs = (state.c
           + tau * cfg.gamma_2 * state.c * (1.0 - state.c)
           + tau * taxis)

    shift = tau * cfg.gamma_C
    c_new = frac.solve_shifted(rhs, shift)
    # the solve is exact up to rounding; its true residual is still measured
    rhs_norm = float(np.linalg.norm(rhs))
    miss = rhs - (c_new - shift * frac.apply_values(c_new))
    residual = float(np.linalg.norm(miss)) / rhs_norm if rhs_norm else 0.0
    if not residual <= cfg.solver_tol:
        raise SolverDiverged(
            f"C-step residual {residual:.3e} above solver_tol {cfg.solver_tol:.3e}"
        )
    if stats is not None:
        stats.absorb_solve(residual, 0)
        stats.absorb_alpha(alpha)
    return _clamp(c_new, stats), alpha


def macro_step(state: MacroState, cfg: MacroConfig, rng: RngStream,
               stats: MacroRunStats | None = None) -> MacroState:
    n_new = step_n(state, cfg, stats)
    h_new = step_h(state, cfg, rng, stats)
    c_new, alpha = step_c(state, cfg, h_new, n_new, stats)
    if not cfg.scheme_literal and np.any(n_new > state.n + 1e-12):
        raise InvariantViolation("tissue monotonicity: N increased")
    if not cfg.a_1 <= alpha <= cfg.a_2:
        raise InvariantViolation("exponent left its configured window")
    return MacroState(h_new, c_new, n_new, state.t + cfg.tau, state.step + 1, alpha)


def snapshot_set(cfg: MacroConfig, snapshot_steps) -> set:
    """The distinct step indices to keep; each must lie in [0, n_steps]."""
    wanted = set(int(s) for s in snapshot_steps)
    bad = [s for s in wanted if s < 0 or s > cfg.n_steps]
    if bad:
        raise ConfigInvalid(f"snapshot steps out of range: {sorted(bad)}")
    return wanted


def run_macro(cfg: MacroConfig, rng: RngStream, snapshot_steps=None,
              initial_state: MacroState | None = None):
    """Run the full scheme; returns (snapshots, stats).

    ``snapshot_steps`` lists the step indices to keep (0 = initial state);
    by default only the initial and final states are kept.
    """
    if snapshot_steps is None:
        snapshot_steps = [0, cfg.n_steps]
    wanted = snapshot_set(cfg, snapshot_steps)

    state = macro_init(cfg) if initial_state is None else initial_state.copy()
    stats = MacroRunStats()
    snapshots = []
    if 0 in wanted:
        snapshots.append(state.copy())
    for _ in range(cfg.n_steps):
        state = macro_step(state, cfg, rng, stats)
        if state.step in wanted:
            snapshots.append(state.copy())
    return snapshots, stats


def state_fields(state: MacroState, grid: Grid):
    """The three tracked fields as GridFields, in (H, C, N) order."""
    return (
        GridField(grid, state.h),
        GridField(grid, state.c),
        GridField(grid, state.n),
    )
