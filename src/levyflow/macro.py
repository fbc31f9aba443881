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

from .drivers import (QWienerSpec, RngStream, StreamChunk, sample_qwiener_increment,
                      smoothed_uniform_field)
from .errors import InvariantViolation, SolverDiverged
from .fracops import FracLapOperator
from .grids import Grid, centered_difference, flux_divergence, neighbours, wrapped_gaussian_bump
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

    def alpha_of_h(self, h):
        """The exponent of a proton index H, or of an array of them.  A
        negative H counts as zero, so alpha always lies in [a_1, a_2]."""
        h = np.maximum(np.asarray(h, dtype=float), 0.0)
        x = self.a * h
        out = self.a_1 + (self.a_2 - self.a_1) * x / (1.0 + x)
        return float(out) if np.ndim(h) == 0 else out


@dataclass
class MacroState:
    """The fields of one sample, shape ``grid.shape``, or of a stack of
    samples, shape ``(S, *grid.shape)`` with one exponent per sample.  A
    state keeps no clock: step k ends at k * tau."""

    h: np.ndarray
    c: np.ndarray
    n: np.ndarray
    step: int = 0
    alpha_value: float | np.ndarray = float("nan")


class MacroRunStats:
    """The run record of a stack: each sample's clamps and largest residual."""

    def __init__(self, samples: int = 1):
        self.clamps = np.zeros(samples, dtype=np.int64)
        self.residuals = np.zeros(samples)

    @property
    def clamp_events(self) -> int:
        return int(self.clamps.sum())

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max())

    def absorb_clamps(self, counts):
        self.clamps += np.reshape(counts, -1)

    def absorb_solve(self, residuals):
        np.maximum(self.residuals, np.reshape(residuals, -1), out=self.residuals)


def _per_sample(values: np.ndarray, grid: Grid) -> np.ndarray:
    """A field or a stack of fields as one row per sample."""
    return values.reshape(-1, grid.node_count)


def _clamp(values: np.ndarray, grid: Grid, stats: MacroRunStats) -> np.ndarray:
    """Set the negative values to zero in place (-0.0 and NaN stay), and
    count those below -_CLAMP_TOL per sample.  A field with no negative
    value, the usual case, is left as it is after one test."""
    neg = values < 0.0
    if neg.any():
        stats.absorb_clamps(np.count_nonzero(_per_sample(values, grid) < -_CLAMP_TOL, axis=1))
        values[neg] = 0.0
    return values


def macro_init(cfg: MacroConfig) -> MacroState:
    return MacroState(
        h=wrapped_gaussian_bump(cfg.grid, cfg.h0_amp, cfg.h0_sigma),
        c=wrapped_gaussian_bump(cfg.grid, cfg.c0_amp, cfg.c0_sigma),
        n=0.5 + 0.5 * smoothed_uniform_field(cfg.grid, cfg.ic_seed, cfg.n0_smooth_sigma),
        alpha_value=cfg.alpha_of_h(0.0),
    )


# ---------------------------------------------------------------------------
# the three substeps
# ---------------------------------------------------------------------------
#
# Each substep advances a stack of S samples, fields (S, *grid.shape), one
# stream of a StreamChunk per row, and records into one MacroRunStats.  A
# stack fails as a whole: the first failing check raises, naming no sample,
# and a caller that needs to know which sample failed runs them alone.


def step_n(state: MacroState, cfg: MacroConfig, stats: MacroRunStats):
    """Explicit tissue update; decay per the continuous model, growth only
    under ``scheme_literal``."""
    sign = 1.0 if cfg.scheme_literal else -1.0
    # a field that is not finite fails in the H- or C-step, which names its cause
    with np.errstate(invalid="ignore", over="ignore"):
        n_new = state.n + sign * cfg.tau * cfg.gamma_3 * (state.c + state.h) * state.n
    return _clamp(n_new, cfg.grid, stats)


class HOperator:
    """The H-step's implicit operator for a stack of cell densities ``c``,
    assembled once as a variable-coefficient five-point stencil:

        x - tau sigma_H L(x) - tau gamma_f f(c) sum_a slope_a(c) D_a x,

    with ``L`` the five-point Laplacian, ``f(c) = c / (1 + c)``, ``slope_a`` the centred difference of ``c``
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
            slope = centered_difference(up, down, d)
            advection = (tau * cfg.gamma_f / (2.0 * d)) * f_weight
            advection *= slope
            np.subtract(diffusion, advection, out=up)
            np.add(diffusion, advection, out=down)
        # each row's largest sum of absolute off-diagonal weights over its
        # nodes: its stencil is strictly diagonally dominant where this is
        # below ``centre``
        self.off_diagonal = _per_sample(np.abs(weights).sum(axis=0), grid).max(axis=1)

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
        error.  Any other row, where the sweeps may grow it, is left at rhs."""
        x = rhs
        for _ in range(sweeps):
            x = rhs - self._neighbour_sum(x)
            x /= self.centre
        loose = ~(self.off_diagonal < self.centre)
        if loose.any():
            _per_sample(x, self.grid)[loose] = _per_sample(rhs, self.grid)[loose]
        return x


def _origin(name: str, step: int) -> str:
    """Where the H or C that enters step ``step + 1`` came from: the initial
    field's keys, or the substep of step ``step`` that solved it."""
    if step == 0:
        return f"the initial {name} of [macro] {name.lower()}0_amp and {name.lower()}0_sigma"
    keys = " with [macro] tau, gamma_2, gamma_C, gamma_g and gamma_h" if name == "C" else ""
    return f"the {name} that step {step} solved{keys}"


def step_h(state: MacroState, cfg: MacroConfig, streams: StreamChunk, stats: MacroRunStats):
    """Implicit advection-diffusion solve for the proton index."""
    grid = cfg.grid
    tau = cfg.tau
    noise = sample_qwiener_increment(QWienerSpec(cfg.qwiener_modes), grid, tau, streams)
    # one errstate for the operator, the right-hand side and the sweeps: a
    # row that is not finite fails in BiCGSTAB's first check, and the
    # failure names its cause
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        apply_op = HOperator(state.c, cfg)
        rhs = (state.h
               + tau * cfg.gamma_1 * state.h * (1.0 - state.h)
               + cfg.sigma_W * state.h * noise)
        start = apply_op.jacobi(rhs, _H_SWEEPS)
    try:
        res = bicgstab(apply_op, rhs, cfg.solver_tol, x0=start)
    except SolverDiverged as err:
        row = err.row
        off = apply_op.off_diagonal[row]
        if not np.isfinite(_per_sample(rhs, grid)[row]).all():
            cause = (f"the right-hand side is not finite; it is set by the step's H, here "
                     f"{_origin('H', state.step)}, and by [macro] tau, gamma_1 and sigma_W")
        elif off < apply_op.centre < np.inf:
            cause = ("the stencil is strictly diagonally dominant; the right-hand side is "
                     "set by [macro] tau, gamma_1 and sigma_W")
        else:
            cause = (f"the stencil is set by the step's C, here {_origin('C', state.step)}, "
                     "and otherwise set by [macro] tau, sigma_H and gamma_f")
        raise SolverDiverged(
            f"H-step at step {state.step + 1}: {err} (largest off-diagonal weight sum "
            f"{off:.3g} against a centre of {apply_op.centre:.3g}; {cause})") from None
    stats.absorb_solve(res.residuals)
    return _clamp(res.solution, grid, stats)


def step_c(state: MacroState, cfg: MacroConfig, h_new: np.ndarray, n_new: np.ndarray,
           stats: MacroRunStats):
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
    alpha = cfg.alpha_of_h(h_mean)
    frac = FracLapOperator(grid, 2.0 * alpha)

    # one errstate for the right-hand side, the solve and the residual: a
    # sample that is not finite misses solver_tol, and the failure names its cause
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
    missed = np.flatnonzero(~(residual <= cfg.solver_tol))
    if missed.size:
        row = missed[0]
        if not np.isfinite(_per_sample(rhs, grid)[row]).all():
            cause = ("; the right-hand side is not finite; it is set by [macro] tau, gamma_2, "
                     "gamma_g and gamma_h, and by the step's H, which [macro] tau, gamma_1 "
                     "and sigma_W set")
        else:
            cause = ("; the right-hand side is finite; the solve's shift is set by [macro] "
                     "tau and gamma_C, and its tolerance by solver_tol")
        raise SolverDiverged(f"C-step residual {residual[row]:.3e} above solver_tol "
                             f"{cfg.solver_tol:.3e} at step {state.step + 1}{cause}")
    stats.absorb_solve(residual)
    return _clamp(c_new, grid, stats), alpha


def macro_step(state: MacroState, cfg: MacroConfig, streams: StreamChunk,
               stats: MacroRunStats) -> MacroState:
    n_new = step_n(state, cfg, stats)
    h_new = step_h(state, cfg, streams, stats)
    c_new, alpha = step_c(state, cfg, h_new, n_new, stats)
    if not cfg.scheme_literal and np.any(n_new > state.n + 1e-12):
        raise InvariantViolation("tissue monotonicity: N increased")
    if not np.all((cfg.a_1 <= alpha) & (alpha <= cfg.a_2)):
        raise InvariantViolation("exponent left its configured window")
    return MacroState(h_new, c_new, n_new, state.step + 1, alpha)


def default_snapshot_steps(n_steps: int) -> tuple:
    """The snapshot steps of the ``macro`` command and of a macro ensemble
    that names none: 0, N/3, 2N/3 and N (rounded down), each once; this is
    (0, 50, 100, 150) at the published N = 150."""
    return tuple(sorted({0, n_steps // 3, (2 * n_steps) // 3, n_steps}))


def run_macro(cfg: MacroConfig, rng: RngStream | StreamChunk, snapshot_steps=None,
              initial_state: MacroState | None = None):
    """Run the full scheme; returns (snapshots, the run's MacroRunStats).

    ``snapshot_steps`` lists the step indices to keep (0 = initial state),
    each kept once, in step order; by default ``default_snapshot_steps``.

    ``rng`` is one RngStream for a single run, whose snapshots hold fields
    of the grid shape.  A StreamChunk of S streams runs S samples in
    lockstep, one per stack row, all from the same initial state; a single
    run is a chunk of one.  A chunk's snapshots hold ``(S, *grid.shape)``
    fields.  A failure of any sample raises for the whole run.
    """
    wanted = set(default_snapshot_steps(cfg.n_steps) if snapshot_steps is None
                 else snapshot_steps)

    single = isinstance(rng, RngStream)
    streams = StreamChunk([rng]) if single else rng
    samples = len(streams)
    first = macro_init(cfg) if initial_state is None else initial_state
    state = MacroState(
        *(np.broadcast_to(f, (samples,) + cfg.grid.shape).copy() for f in (first.h, first.c, first.n)),
        first.step, np.broadcast_to(first.alpha_value, (samples,)).copy())
    stats = MacroRunStats(samples)

    snapshots = [state] if 0 in wanted else []
    for _ in range(cfg.n_steps):
        state = macro_step(state, cfg, streams, stats)
        if state.step in wanted:
            snapshots.append(state)
    if single:
        snapshots = [MacroState(s.h[0], s.c[0], s.n[0], s.step, float(s.alpha_value[0]))
                     for s in snapshots]
    return snapshots, stats


def snapshot_stack(snapshots) -> np.ndarray:
    """The H, C and N fields of the snapshots as one array indexed [snapshot,
    field], then [sample] for the snapshots of a stack."""
    return np.stack([np.stack([s.h, s.c, s.n]) for s in snapshots])
