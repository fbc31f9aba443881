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

from .drivers import GaussianNoise, RngStream, draw_noise
from .errors import ConfigInvalid
from .grids import (Grid, GridField, centered_difference, periodic_gaussian_blur,
                    wrapped_gaussian_bump)


@dataclass(frozen=True)
class MicroConfig:
    n_particles: int = 2500
    n_steps: int = 25
    tau: float = 0.05
    noise: object = field(default_factory=GaussianNoise)
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

    def __post_init__(self):
        if self.n_particles < 1 or self.n_steps < 0 or self.tau <= 0:
            raise ConfigInvalid("need n_particles >= 1, n_steps >= 0, tau > 0")
        if not self.kill_low < self.kill_high:
            raise ConfigInvalid("viability band must satisfy kill_low < kill_high")
        if self.grid.ndim != 2:
            raise ConfigInvalid("micro model runs on a 2D grid")


@dataclass
class MicroState:
    grid: Grid
    positions: np.ndarray  # (M, 2)
    velocities: np.ndarray  # (M, 2)
    protons: np.ndarray  # (M,) intracellular load per particle
    alive: np.ndarray  # (M,) bool
    acid: np.ndarray  # extracellular field on the grid
    tissue: np.ndarray
    t: float = 0.0
    clamp_events: int = 0

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
    return BilinearStencil(flat, weights)


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


# one particle's (x, y) pair of float64, moved as raw bytes
_ROW = np.dtype((np.void, 16))


def _set_rows(dst: np.ndarray, idx, rows: np.ndarray):
    """``dst[idx] = rows`` for C-contiguous (n, 2) float arrays.  Moving each
    row as one 16-byte item copies the same bits in a fraction of the time
    a fancy row assignment takes."""
    dst.view(_ROW)[:, 0][idx] = rows.view(_ROW)[:, 0]


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------


def micro_init(cfg: MicroConfig) -> MicroState:
    ic_rng = RngStream(cfg.ic_seed, 0)
    m = cfg.n_particles
    side = int(np.ceil(np.sqrt(m)))
    axis = np.linspace(cfg.lattice_lo, cfg.lattice_hi, side)
    px, py = np.meshgrid(axis, axis, indexing="ij")
    positions = np.column_stack([px.ravel()[:m], py.ravel()[:m]])
    tissue_raw = ic_rng.uniform(cfg.grid.shape)
    tissue = periodic_gaussian_blur(tissue_raw, cfg.grid, cfg.tissue_smooth_sigma)
    lo, hi = tissue.min(), tissue.max()
    tissue = (tissue - lo) / (hi - lo) if hi > lo else np.zeros_like(tissue)
    tissue = cfg.tissue_lo + (cfg.tissue_hi - cfg.tissue_lo) * tissue
    return MicroState(
        grid=cfg.grid,
        positions=positions,
        velocities=np.zeros((m, 2)),
        protons=np.full(m, cfg.proton_init),
        alive=np.ones(m, dtype=bool),
        acid=wrapped_gaussian_bump(cfg.grid, cfg.acid_amp, cfg.acid_sigma),
        tissue=tissue,
    )


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------


def micro_step(state: MicroState, cfg: MicroConfig, rng: RngStream) -> MicroState:
    """One explicit Euler step of the coupled particle/field dynamics.

    Order: velocity (tissue-gradient drift + noise kick), position (periodic
    wrap), intracellular protons, acid and tissue at the particle
    neighbourhoods, then the kill conditions.  Only the alive particles
    move and act; a dead particle's fields are carried over unchanged.
    """
    if state.grid != cfg.grid:
        raise ConfigInvalid("state grid does not match config grid")
    tau = cfg.tau
    m = state.positions.shape[0]
    idx = np.flatnonzero(state.alive)

    acid = state.acid.copy()
    tissue = state.tissue.copy()
    clamps = state.clamp_events

    # drawn for every particle, so the stream does not depend on the deaths
    noise = np.asarray(draw_noise(cfg.noise, rng, tau, size=(m, 2)))
    kicks = cfg.noise_scale * noise.take(idx, axis=0)

    # the bilinear stencil of the alive positions before the move and after it
    pos = state.positions.take(idx, axis=0)
    before = bilinear_stencil(state.grid, pos)
    grad = np.column_stack(
        [gather(centered_difference(tissue, state.grid, axis), before) for axis in (0, 1)]
    )
    vel = state.velocities.take(idx, axis=0)
    vel += cfg.taxis_sign * grad * tau + kicks
    pos = np.mod(pos + vel * tau, np.asarray(state.grid.lengths))
    after = bilinear_stencil(state.grid, pos)

    acid_at = gather(acid, after)
    protons = state.protons.take(idx)
    efflux = cfg.efflux_rate * protons / (1.0 + acid_at)
    buffering = cfg.buffering_rate * protons
    production = cfg.production_rate / (1.0 + protons)
    protons += tau * (-efflux - buffering + production)
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

    positions = state.positions.copy()
    velocities = state.velocities.copy()
    all_protons = state.protons.copy()
    alive = state.alive.copy()
    _set_rows(positions, idx, pos)
    _set_rows(velocities, idx, vel)
    all_protons[idx] = protons
    alive[idx[killed]] = False

    return MicroState(
        grid=state.grid,
        positions=positions,
        velocities=velocities,
        protons=all_protons,
        alive=alive,
        acid=acid,
        tissue=tissue,
        t=state.t + tau,
        clamp_events=clamps,
    )


def survival_fraction(state: MicroState, m0: int) -> float:
    """Alive fraction of the initial population."""
    if m0 < 1:
        raise ConfigInvalid("initial population must be at least 1")
    return state.alive_count() / m0


def run_micro(cfg: MicroConfig, rng: RngStream):
    """Run the configured number of steps; returns the final state and the
    per-step alive counts (the count before any step first)."""
    state = micro_init(cfg)
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

