"""Particle-level acid-mediated invasion model.

Particles carry position, velocity and an intracellular proton load and
move over a periodic tissue field by a velocity-jump dynamic: the velocity
drifts along the tissue gradient and is kicked by one of three switchable
noise laws.  Extracellular acid and tissue are grid fields coupled to the
particles through bilinear gather/scatter with matching weights, and
particles die when their proton load leaves a viability band or the local
acid exceeds a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .drivers import RngStream, draw_noise, smoothed_uniform_field
from .grids import (Grid, GridField, centered_difference, periodic_gaussian_blur,
                    wrapped_gaussian_bump)


@dataclass(frozen=True)
class MicroConfig:
    n_particles: int = 2500
    n_steps: int = 25
    tau: float = 0.05
    noise: str = "gaussian"  # one of drivers.NOISE_LAWS
    # kill thresholds: viability band for the proton load, acid ceiling
    kill_low: float = 0.3
    kill_high: float = 1.6
    kill_acid: float = 3.2
    # rate closures (saturating forms; CALIBRATED defaults, see config docs)
    efflux_rate: float = 3.6
    buffering_rate: float = 0.45
    production_rate: float = 8.1
    vascular_uptake: float = 0.3
    # cell-to-grid-cell volume ratio: converts per-cell membrane flux into
    # a concentration change of the extracellular field
    field_coupling: float = 0.02
    tissue_decay: float = 0.4
    taxis_sign: float = 1.0
    noise_scale: float = 1.0
    deposit_bandwidth: float = 0.04
    grid: Grid = field(default_factory=lambda: Grid((1.0, 1.0), (41, 41)))
    # initial conditions
    lattice_lo: float = 0.28
    lattice_hi: float = 0.72
    proton_init: float = 1.0
    acid_amp: float = 3.0
    acid_sigma: float = 0.27
    tissue_lo: float = 0.5
    tissue_hi: float = 1.0
    tissue_smooth_sigma: float = 0.06
    ic_seed: int = 424242


@dataclass
class MicroState:
    """The living particles, in index order, and the grid fields.

    ``alive`` is the (M,) mask over the population the run started with;
    ``positions``, ``velocities`` and ``protons`` hold one row per True
    entry.  ``stencil`` is the bilinear stencil of ``positions``, set only
    on a state that ``micro_step`` returns; ``dataclasses.replace`` resets
    it, so a replaced state builds its own."""

    grid: Grid
    positions: np.ndarray  # (n, 2)
    velocities: np.ndarray  # (n, 2)
    protons: np.ndarray  # (n,) intracellular load per particle
    alive: np.ndarray  # (M,) bool
    acid: np.ndarray  # extracellular field on the grid
    tissue: np.ndarray
    t: float = 0.0
    clamp_events: int = 0
    stencil: BilinearStencil | None = field(default=None, init=False, repr=False,
                                            compare=False)

    def alive_count(self) -> int:
        return int(self.alive.sum())


# ---------------------------------------------------------------------------
# bilinear gather / scatter (adjoint pair, mass preserving)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BilinearStencil:
    """Bilinear stencil of n positions, laid out corner by corner: entry
    ``k * n + p`` holds corner k of position p as a flat node index
    ``i * my + j`` and its weight.  Both arrays have shape (4n,)."""

    flat: np.ndarray
    weights: np.ndarray


def bilinear_stencil(grid: Grid, positions) -> BilinearStencil:
    """The stencil of ``positions`` (n, 2).  Each axis wraps its lower
    corner once through ``Grid.wrap_index`` and looks up the upper one as
    its periodic successor; the four corners are written into one array."""
    n = positions.shape[0]
    my = grid.shape[1]
    frac = np.empty((2, n))
    np.divide(positions.T, np.array(grid.spacings)[:, None], out=frac)
    lower = np.floor(frac)
    cells = lower.astype(int)
    frac -= lower  # wx, wy
    rest = 1 - frac  # ux, uy
    i0 = grid.wrap_index(cells[0], 0)
    j0 = grid.wrap_index(cells[1], 1)
    i1 = grid.successor_index(i0, 0)
    j1 = grid.successor_index(j0, 1)
    i0 *= my
    i1 *= my
    flat = np.empty((4, n), dtype=int)
    np.add(i0, j0, out=flat[0])
    np.add(i1, j0, out=flat[1])
    np.add(i0, j1, out=flat[2])
    np.add(i1, j1, out=flat[3])
    weights = np.empty((4, n))
    np.multiply(rest[0], rest[1], out=weights[0])
    np.multiply(frac[0], rest[1], out=weights[1])
    np.multiply(rest[0], frac[1], out=weights[2])
    np.multiply(frac[0], frac[1], out=weights[3])
    return BilinearStencil(flat.reshape(-1), weights.reshape(-1))


def _survivors(stencil: BilinearStencil, killed: np.ndarray) -> BilinearStencil:
    """The stencil of the positions not ``killed``, in their order."""
    if not killed.any():
        return stencil
    keep = np.concatenate((~killed,) * 4)
    return BilinearStencil(stencil.flat[keep], stencil.weights[keep])


def gather(field_values: np.ndarray, stencil: BilinearStencil) -> np.ndarray:
    n = stencil.flat.shape[0] // 4
    terms = (stencil.weights * field_values.take(stencil.flat)).reshape(4, n)
    out = np.zeros(n)
    for term in terms:  # corners in order 0, 1, 2, 3
        out += term
    return out


def scatter_add(field_values: np.ndarray, stencil: BilinearStencil, amounts):
    """Add ``amounts`` at the stencil in place, corner by corner and particle
    by particle in index order."""
    if not field_values.flags.c_contiguous:
        raise ValueError("scatter_add needs a C-contiguous field to update in place")
    np.add.at(field_values.reshape(-1), stencil.flat,
              (stencil.weights.reshape(4, -1) * amounts).reshape(-1))


def wrap_positions(positions: np.ndarray, lengths) -> np.ndarray:
    """``np.mod(positions, lengths)`` bit for bit, for (n, 2) positions.

    In a square box of side L whose coordinates all lie in [-L, 2L), each
    is shifted by at most one L: ``a + L`` below 0, ``a - L`` (exact) from
    L on and ``a + 0.0`` between, which is what ``np.mod`` returns there,
    down to -0.0 becoming +0.0 and an ``a + L`` that rounds to L.  Any
    other box or coordinate (nan included) takes ``np.mod``."""
    length = lengths[0]
    in_range = (positions.size and all(v == length for v in lengths)
                and positions.min() >= -length and positions.max() < 2 * length)
    if not in_range:
        return np.mod(positions, np.asarray(lengths))
    shift = (positions < 0).view(np.int8) - (positions >= length).view(np.int8)
    return positions + shift * length


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------


def micro_init(cfg: MicroConfig) -> MicroState:
    m = cfg.n_particles
    side = int(np.ceil(np.sqrt(m)))
    axis = np.linspace(cfg.lattice_lo, cfg.lattice_hi, side)
    px, py = np.meshgrid(axis, axis, indexing="ij")
    positions = np.column_stack([px.ravel()[:m], py.ravel()[:m]])
    tissue = smoothed_uniform_field(cfg.grid, cfg.ic_seed, cfg.tissue_smooth_sigma)
    return MicroState(
        grid=cfg.grid,
        positions=positions,
        velocities=np.zeros((m, 2)),
        protons=np.full(m, cfg.proton_init),
        alive=np.ones(m, dtype=bool),
        acid=wrapped_gaussian_bump(cfg.grid, cfg.acid_amp, cfg.acid_sigma),
        tissue=cfg.tissue_lo + (cfg.tissue_hi - cfg.tissue_lo) * tissue,
    )


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------


def micro_step(state: MicroState, cfg: MicroConfig, rng: RngStream) -> MicroState:
    """One explicit Euler step of the coupled particle/field dynamics.

    Order: velocity (tissue-gradient drift + noise kick), position (periodic
    wrap), intracellular protons, acid and tissue at the particle
    neighbourhoods, then the kill conditions.  The returned state holds the
    survivors and their stencil after the move: a survivor keeps its
    position and its order, so that stencil is bitwise a fresh build for
    the next step.  The step writes nothing into ``state``.
    """
    tau = cfg.tau
    idx = np.flatnonzero(state.alive)

    acid = state.acid.copy()
    tissue = state.tissue.copy()
    clamps = state.clamp_events

    # drawn for the whole starting population, so the stream does not depend
    # on the deaths
    noise = draw_noise(cfg.noise, rng, tau, size=(state.alive.size, 2))
    kicks = cfg.noise_scale * noise.take(idx, axis=0)

    # the bilinear stencil of the positions before the move and after it
    before = state.stencil
    if before is None:
        before = bilinear_stencil(state.grid, state.positions)
    grad = np.column_stack(
        [gather(centered_difference(tissue, state.grid, axis), before) for axis in (0, 1)]
    )
    vel = state.velocities + (cfg.taxis_sign * grad * tau + kicks)
    pos = wrap_positions(state.positions + vel * tau, state.grid.lengths)
    after = bilinear_stencil(state.grid, pos)

    acid_at = gather(acid, after)
    efflux = cfg.efflux_rate * state.protons / (1.0 + acid_at)
    buffering = cfg.buffering_rate * state.protons
    production = cfg.production_rate / (1.0 + state.protons)
    protons = state.protons + tau * (-efflux - buffering + production)
    neg = protons < 0
    clamps += int(np.count_nonzero(neg))
    protons[neg] = 0.0

    # extracellular side: efflux arrives, the vasculature clears
    acid_rate = cfg.field_coupling * (efflux - cfg.vascular_uptake * acid_at)
    scatter_add(acid, after, tau * acid_rate)
    neg = acid < 0
    clamps += int(np.count_nonzero(neg))
    acid[neg] = 0.0

    # tissue decays where particles sit; the exact integrating factor keeps
    # it positive no matter how many particles share a cell
    exposure = np.zeros_like(tissue)
    scatter_add(exposure, after, tau * cfg.tissue_decay * acid_at)
    tissue *= np.exp(-exposure)

    acid_now = gather(acid, after)
    killed = (protons < cfg.kill_low) | (protons > cfg.kill_high) | (
        acid_now > cfg.kill_acid
    )

    alive = state.alive.copy()
    if killed.any():
        alive[idx[killed]] = False
        keep = ~killed
        pos, vel, protons = (a.compress(keep, axis=0) for a in (pos, vel, protons))

    out = MicroState(
        grid=state.grid,
        positions=pos,
        velocities=vel,
        protons=protons,
        alive=alive,
        acid=acid,
        tissue=tissue,
        t=state.t + tau,
        clamp_events=clamps,
    )
    out.stencil = _survivors(after, killed)
    return out


def survival_fraction(state: MicroState, m0: int) -> float:
    """Alive fraction of the initial population."""
    return state.alive_count() / m0


def run_micro(cfg: MicroConfig, rng: RngStream, initial_state: MicroState | None = None):
    """Run the configured number of steps; returns the final state and the
    per-step alive counts (the count before any step first).

    ``initial_state`` stands in for ``micro_init(cfg)``, so that samples
    of one config can share it; no step changes the state it is given.
    The final state holds the living particles only."""
    state = micro_init(cfg) if initial_state is None else initial_state
    alive_series = [state.alive_count()]
    for _ in range(cfg.n_steps):
        state = micro_step(state, cfg, rng)
        alive_series.append(state.alive_count())
    return state, alive_series


# ---------------------------------------------------------------------------
# macroscopic views
# ---------------------------------------------------------------------------


def deposit_fields(state: MicroState, cfg: MicroConfig):
    """Kernel-smoothed macroscopic acid and tissue fields.

    The smoothing kernel integrates to one, so total mass is preserved; a
    vanishing bandwidth returns the fields unchanged.
    """
    acid = periodic_gaussian_blur(state.acid, state.grid, cfg.deposit_bandwidth)
    tissue = periodic_gaussian_blur(state.tissue, state.grid, cfg.deposit_bandwidth)
    return GridField(state.grid, acid), GridField(state.grid, tissue)

