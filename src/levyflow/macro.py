"""Coupled macroscopic system: proton index H, cancer density C, tissue N.

Per step (the order matters, later updates consume earlier ones):

1. N is updated explicitly by its decay reaction;
2. H solves an implicit advection-diffusion system with explicit logistic
   reaction and multiplicative Q-Wiener noise on the right-hand side: Jacobi
   sweeps, then BiCGSTAB verifies or finishes.  The noise of the whole
   stack is one draw (each stream's normals in row order, one projection).
   The operator is assembled once per step as a variable-coefficient
   five-point stencil (``HOperator``) from one neighbour gather of C, so
   each apply is one gather through the grid's neighbour table for the
   stack and one weighted sum;
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

from .drivers import (ProtonIndexDriver, QWienerSpec, RngStream, StreamChunk,
                      sample_qwiener_increment)
from .errors import ConfigInvalid, InvariantViolation, SolverDiverged
from .fracops import FracLapOperator
from .grids import Grid, neighbours, periodic_gaussian_blur, wrapped_gaussian_bump
from .linsolve import bicgstab, row_norm

_CLAMP_TOL = 1e-12
# Jacobi sweeps that start each H-step solve.  At the published parameters
# the stencil off the diagonal weighs about 3% of the centre, so each sweep
# cuts the residual about 100-fold and five bring it below solver_tol:
# BiCGSTAB's first residual check then finishes every row, with no
# iteration.  A sweep is one neighbour sum and two array operations, where
# a BiCGSTAB iteration spends dozens of small row reductions and tests.
_H_SWEEPS = 5


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
    """The fields of one sample, shape ``grid.shape``, or of a stack of
    samples, shape ``(S, *grid.shape)`` with one exponent per sample."""

    h: np.ndarray
    c: np.ndarray
    n: np.ndarray
    t: float = 0.0
    step: int = 0
    alpha_value: float | np.ndarray = float("nan")


class MacroRunStats:
    """Diagnostics of a run of S samples, kept per sample.

    ``rows`` maps each row of the stack being advanced to its sample, so a
    sample keeps its entries when a failed sample before it is dropped;
    ``errors`` holds the error of each dropped sample.
    """

    def __init__(self, samples: int = 1):
        self.clamps = np.zeros(samples, dtype=np.int64)
        self.residuals = np.zeros(samples)
        self.rows = np.arange(samples)
        self.errors = {}
        self.total_iterations = 0
        self.alpha_min = float("inf")
        self.alpha_max = -float("inf")

    @property
    def clamp_events(self) -> int:
        return int(self.clamps.sum())

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max())

    def absorb_clamps(self, counts):
        self.clamps[self.rows] += np.reshape(counts, -1)

    def absorb_solve(self, residuals, iterations):
        self.residuals[self.rows] = np.maximum(self.residuals[self.rows],
                                               np.reshape(residuals, -1))
        self.total_iterations += int(iterations)

    def absorb_alpha(self, alpha):
        self.alpha_min = min(self.alpha_min, float(np.min(alpha)))
        self.alpha_max = max(self.alpha_max, float(np.max(alpha)))

    def drop(self, failures: dict) -> np.ndarray:
        """Record the errors of the failed rows and return the rows to keep."""
        for row, error in failures.items():
            self.errors[int(self.rows[row])] = error
        keep = np.array([r for r in range(self.rows.size) if r not in failures], dtype=int)
        self.rows = self.rows[keep]
        return keep


def _per_sample(values: np.ndarray, grid: Grid) -> np.ndarray:
    """A field or a stack of fields as one row per sample."""
    return values.reshape(-1, grid.node_count)


def _clamp(values: np.ndarray, grid: Grid, stats: MacroRunStats | None) -> np.ndarray:
    """Set the negative values to zero in place (-0.0 and NaN stay), and
    count those below -_CLAMP_TOL per sample.  A field with no negative
    value, the usual case, is left as it is after one test."""
    neg = values < 0.0
    if neg.any():
        if stats is not None:
            stats.absorb_clamps(np.count_nonzero(_per_sample(values, grid) < -_CLAMP_TOL, axis=1))
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
    Telescopes to zero total, so the coupling conserves mass exactly.  Acts
    on the trailing grid axes, like the stencils in ``grids``."""
    # one row per neighbour, as in ``neighbours``; in place, so no
    # temporary as large as a gather is made
    flux = neighbours(u, grid)
    flux -= u
    coef_sum = neighbours(coef, grid)
    coef_sum += coef
    flux *= coef_sum
    out = np.zeros_like(u)
    for axis, d in enumerate(grid.spacings):
        out += (flux[2 * axis] + flux[2 * axis + 1]) / (2.0 * d**2)
    return out


# ---------------------------------------------------------------------------
# the three substeps
# ---------------------------------------------------------------------------
#
# Each substep advances a stack of S samples, fields (S, *grid.shape), one
# stream of a StreamChunk per row.  A sample that fails does not raise: its
# row and first error are noted in ``failures`` and the row is carried, on
# finite values, to the end of the step, for the caller to drop.


def step_n(state: MacroState, cfg: MacroConfig, stats: MacroRunStats | None = None):
    """Explicit tissue update; decay per the continuous model, growth only
    under ``scheme_literal``."""
    sign = 1.0 if cfg.scheme_literal else -1.0
    n_new = state.n + sign * cfg.tau * cfg.gamma_3 * (state.c + state.h) * state.n
    return _clamp(n_new, cfg.grid, stats)


class HOperator:
    """The H-step's implicit operator for a stack of cell densities ``c``,
    assembled once as a variable-coefficient five-point stencil:

        x - tau sigma_H laplacian5(x) - tau gamma_f f(c) sum_a slope_a(c) D_a x,

    with ``f(c) = c / (1 + c)``, ``slope_a`` the centred difference of ``c``
    and ``D_a`` that of ``x``.  The centre weight is the scalar
    ``1 + tau sigma_H sum_a 2 / d_a^2``; each neighbour has one weight
    array, ``-tau sigma_H / d_a^2 -+ tau gamma_f f slope_a / (2 d_a)`` for
    the successor and the predecessor along axis a.  Calling the operator
    applies it: one gather through the grid's neighbour table and one
    weighted sum, row by row, so a row's bits do not depend on the stack.
    """

    def __init__(self, c: np.ndarray, cfg: MacroConfig):
        grid = self.grid = cfg.grid
        tau = cfg.tau
        f_weight = c / (1.0 + c)
        self.centre = 1.0 + sum(2.0 * tau * cfg.sigma_H / d**2 for d in grid.spacings)
        # both slopes from one gather, whose rows then take the weights
        weights = self.weights = neighbours(c, grid)
        for axis, d in enumerate(grid.spacings):
            up, down = weights[2 * axis], weights[2 * axis + 1]
            diffusion = -tau * cfg.sigma_H / d**2
            slope = up - down  # as centered_difference
            slope /= 2.0 * d
            advection = (tau * cfg.gamma_f / (2.0 * d)) * f_weight
            advection *= slope
            np.subtract(diffusion, advection, out=up)
            np.add(diffusion, advection, out=down)

    def _neighbour_sum(self, x: np.ndarray) -> np.ndarray:
        """The operator's off-diagonal part applied to ``x``."""
        terms = neighbours(x, self.grid)
        terms *= self.weights
        return terms.sum(axis=0)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = self._neighbour_sum(x)
        out += self.centre * x
        return out

    def jacobi(self, rhs: np.ndarray, sweeps: int) -> np.ndarray:
        """``sweeps`` Jacobi sweeps from x = rhs, each x = (rhs - N x) / centre
        with N the off-diagonal part, on the rows whose stencil is strictly
        diagonally dominant at every node, where each sweep contracts the
        error.  Any other row, where the sweeps may grow it, is left at rhs.
        Under BiCGSTAB's errstate: a non-finite row fails in that solver's
        first check."""
        x = rhs
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for _ in range(sweeps):
                x = rhs - self._neighbour_sum(x)
                x /= self.centre
            off = np.abs(self.weights).sum(axis=0)
            loose = ~(_per_sample(off, self.grid).max(axis=1) < self.centre)
        if loose.any():
            _per_sample(x, self.grid)[loose] = _per_sample(rhs, self.grid)[loose]
        return x


def step_h(state: MacroState, cfg: MacroConfig, streams: StreamChunk, failures: dict,
           stats: MacroRunStats | None = None):
    """Implicit advection-diffusion solve for the proton index.  A sample
    whose solve fails keeps its previous H, so step_c still sees finite
    values."""
    grid = cfg.grid
    tau = cfg.tau
    noise = sample_qwiener_increment(QWienerSpec(cfg.qwiener_modes), grid, tau, streams,
                                     failures=failures)
    apply_op = HOperator(state.c, cfg)
    rhs = (state.h
           + tau * cfg.gamma_1 * state.h * (1.0 - state.h)
           + cfg.sigma_W * state.h * noise)
    res = bicgstab(apply_op, rhs, cfg.solver_tol, x0=apply_op.jacobi(rhs, _H_SWEEPS))
    h_new = res.solution
    for row, error in res.failures.items():
        failures.setdefault(row, error)
        h_new[row] = state.h[row]
    if stats is not None:
        stats.absorb_solve(res.residuals, res.iterations)
    return _clamp(h_new, grid, stats)


def step_c(state: MacroState, cfg: MacroConfig, h_new: np.ndarray, n_new: np.ndarray,
           failures: dict, stats: MacroRunStats | None = None):
    """Implicit fractional-diffusion solve for the cancer density.

    The spectral exponent is p = 2 * alpha(mean H), refreshed every step
    from the freshly updated proton index, per sample.  The fractional
    operator is diagonal under the FFT, so the system is solved exactly
    rather than iterated; each sample's true relative residual must still
    meet ``solver_tol``.
    """
    grid = cfg.grid
    tau = cfg.tau
    h_mean = _per_sample(h_new, grid).sum(axis=1) / grid.node_count
    alpha = cfg.alpha_driver().alpha_of_h(h_mean)
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
    rhs_norm = row_norm(_per_sample(rhs, grid))
    miss = row_norm(_per_sample(rhs - (c_new - shift * frac.apply_values(c_new)), grid))
    residual = np.divide(miss, rhs_norm, out=np.zeros_like(miss), where=rhs_norm != 0.0)
    for row in np.flatnonzero(~(residual <= cfg.solver_tol)):
        failures.setdefault(int(row), SolverDiverged(
            f"C-step residual {residual[row]:.3e} above solver_tol {cfg.solver_tol:.3e}"))
    if stats is not None:
        stats.absorb_solve(residual, 0)
        stats.absorb_alpha(alpha)
    return _clamp(c_new, grid, stats), alpha


def macro_step(state: MacroState, cfg: MacroConfig, streams: StreamChunk, failures: dict,
               stats: MacroRunStats | None = None) -> MacroState:
    n_new = step_n(state, cfg, stats)
    h_new = step_h(state, cfg, streams, failures, stats)
    c_new, alpha = step_c(state, cfg, h_new, n_new, failures, stats)
    if not cfg.scheme_literal:
        grew = np.any(_per_sample(n_new, cfg.grid) > _per_sample(state.n, cfg.grid) + 1e-12, axis=1)
        for row in np.flatnonzero(grew):
            failures.setdefault(int(row), InvariantViolation("tissue monotonicity: N increased"))
    inside = (cfg.a_1 <= alpha) & (alpha <= cfg.a_2)
    for row in np.flatnonzero(np.logical_not(inside)):
        failures.setdefault(int(row), InvariantViolation("exponent left its configured window"))
    return MacroState(h_new, c_new, n_new, state.t + cfg.tau, state.step + 1, alpha)


def default_snapshot_steps(n_steps: int) -> tuple:
    """The snapshot steps of the ``macro`` command and of a macro ensemble
    that names none: 0, N/3, 2N/3 and N (rounded down), each once; this is
    (0, 50, 100, 150) at the published N = 150."""
    return tuple(sorted({0, n_steps // 3, (2 * n_steps) // 3, n_steps}))


def snapshot_set(cfg: MacroConfig, snapshot_steps) -> set:
    """The distinct step indices to keep; each must lie in [0, n_steps]."""
    wanted = set(int(s) for s in snapshot_steps)
    bad = [s for s in wanted if s < 0 or s > cfg.n_steps]
    if bad:
        raise ConfigInvalid(f"snapshot steps out of range: {sorted(bad)}")
    return wanted


def run_macro(cfg: MacroConfig, rng: RngStream | StreamChunk, snapshot_steps=None,
              initial_state: MacroState | None = None):
    """Run the full scheme; returns (snapshots, stats).

    ``snapshot_steps`` lists the step indices to keep (0 = initial state);
    by default only the initial and final states are kept.

    ``rng`` is one RngStream for a single run, whose snapshots hold fields
    of the grid shape and whose failure raises.  A StreamChunk of S streams
    runs S samples in lockstep, one per stack row, all from the same
    initial state; a single run is a chunk of one.  A chunk's snapshots
    hold ``(S, *grid.shape)`` fields, and a sample that fails is dropped
    from the stack, its error kept in ``stats.errors`` and its later
    snapshot rows NaN, while the others run to the end.
    """
    if snapshot_steps is None:
        snapshot_steps = [0, cfg.n_steps]
    wanted = snapshot_set(cfg, snapshot_steps)

    single = isinstance(rng, RngStream)
    streams = StreamChunk([rng]) if single else rng
    samples = len(streams)
    first = macro_init(cfg) if initial_state is None else initial_state
    state = MacroState(
        *(np.broadcast_to(f, (samples,) + cfg.grid.shape).copy() for f in (first.h, first.c, first.n)),
        first.t, first.step, np.broadcast_to(first.alpha_value, (samples,)).copy())
    stats = MacroRunStats(samples)

    def snapshot():
        """The state with one row per sample of the chunk."""
        out = []
        for values in (state.h, state.c, state.n, state.alpha_value):
            full = np.full((samples,) + values.shape[1:], np.nan)
            full[stats.rows] = values
            out.append(full)
        return MacroState(*out[:3], state.t, state.step, out[3])

    snapshots = []
    if 0 in wanted:
        snapshots.append(snapshot())
    for _ in range(cfg.n_steps):
        failures = {}
        state = macro_step(state, cfg, streams, failures, stats)
        if failures:
            keep = stats.drop(failures)
            if keep.size == 0:
                break
            state = MacroState(state.h[keep], state.c[keep], state.n[keep],
                               state.t, state.step, state.alpha_value[keep])
            streams = StreamChunk(streams[k] for k in keep)
        if state.step in wanted:
            snapshots.append(snapshot())
    if single:
        if stats.errors:
            raise stats.errors[0]
        snapshots = [MacroState(s.h[0], s.c[0], s.n[0], s.t, s.step, float(s.alpha_value[0]))
                     for s in snapshots]
    return snapshots, stats


def snapshot_stack(snapshots) -> np.ndarray:
    """The H, C and N fields of the snapshots as one array indexed [snapshot,
    field], then [sample] for the snapshots of a stack."""
    return np.stack([np.stack([s.h, s.c, s.n]) for s in snapshots])
