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

import time
from dataclasses import dataclass, field

import numpy as np

from .drivers import RngStream, StreamChunk, draw_noise, smoothed_uniform_field
from .grids import (Grid, GridField, centered_difference, neighbours, periodic_gaussian_blur,
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
    """The living particles, in index order, and the grid fields of one run
    or of a stack of S runs.  ``micro_step`` steps stacks only; a run's
    state is what ``micro_init`` builds and ``run_micro`` returns.

    A run's ``alive`` is the (M,) mask over the population it started with,
    its fields have the shape of its config's grid and ``clamp_events`` is
    an int; a stack's ``alive`` is (S, M), its fields (S, *grid.shape) and
    its ``clamp_events`` (S,).  ``positions``, ``velocities`` and ``protons``
    hold one row per True entry of ``alive`` in its C order, so a stack
    holds each sample's living rows in sample order.  ``gradient`` is the
    (n, 2) tissue gradient at ``positions``, set only on a state that
    ``micro_step`` returns; ``dataclasses.replace`` resets it, so a replaced
    state gathers its own.  A state keeps no clock: step k ends at k * tau."""

    positions: np.ndarray  # (n, 2)
    velocities: np.ndarray  # (n, 2)
    protons: np.ndarray  # (n,) intracellular load per particle
    alive: np.ndarray  # (M,) or (S, M) bool
    acid: np.ndarray  # extracellular field on the grid
    tissue: np.ndarray
    clamp_events: int | np.ndarray = 0
    gradient: np.ndarray | None = field(default=None, init=False, repr=False,
                                        compare=False)

    def alive_count(self) -> int:
        return int(self.alive.sum())


# ---------------------------------------------------------------------------
# bilinear gather / scatter (adjoint pair, mass preserving)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BilinearStencil:
    """Bilinear stencil of n positions: row k of ``flat`` and ``weights``,
    both C-contiguous (4, n) arrays, holds corner k of each position as a
    flat node index ``i * my + j`` plus the position's offset, and its
    weight."""

    flat: np.ndarray
    weights: np.ndarray


def bilinear_stencil(grid: Grid, positions, offsets) -> BilinearStencil:
    """The stencil of ``positions`` (n, 2).  Each axis wraps its lower
    corner once through ``Grid.wrap_index`` and looks up the upper one as
    its periodic successor.  ``offsets`` (n,) is added to every node index
    of its position: in a stack, sample s's positions are offset by s times
    the grid's node count, so that one flat index addresses the stack of
    fields.

    The build writes the weights into their output array and drops each
    temporary once used, so that a step allocates less."""
    n = positions.shape[0]
    my = grid.shape[1]
    weights = np.empty((4, n))
    ux, uy, wx, wy = weights
    frac = weights[2:]
    np.divide(positions.T, np.array(grid.spacings)[:, None], out=frac)
    lower = np.floor(frac)
    cells = lower.astype(int)
    frac -= lower  # wx, wy
    del lower
    np.subtract(1, frac, out=weights[:2])  # ux, uy
    # each product keeps its operand order, which fixes a NaN's sign
    corner2 = ux * wy
    np.multiply(wx, wy, out=wy)
    wx *= uy
    ux *= uy
    weights[1] = wx
    weights[2] = corner2
    del corner2

    i0 = grid.wrap_index(cells[0], 0)
    j0 = grid.wrap_index(cells[1], 1)
    del cells
    i1 = grid.successor_index(i0, 0)
    j1 = grid.successor_index(j0, 1)
    i0 *= my
    i1 *= my
    i0 += offsets
    i1 += offsets
    flat = np.empty((4, n), dtype=int)
    np.add(i0, j0, out=flat[0])
    np.add(i1, j0, out=flat[1])
    np.add(i0, j1, out=flat[2])
    np.add(i1, j1, out=flat[3])
    return BilinearStencil(flat, weights)


def gather(field_values: np.ndarray, stencil: BilinearStencil) -> np.ndarray:
    """The weighted sum of ``field_values`` at each position's corners,
    added in corner order 0, 1, 2, 3.  One corner's terms are made at a
    time, so a gather holds two (n,) arrays, not five."""
    out = np.zeros(stencil.flat.shape[1])
    for flat, weights in zip(stencil.flat, stencil.weights):
        term = field_values.take(flat)
        np.multiply(weights, term, out=term)
        out += term
    return out


def scatter_add(field_values: np.ndarray, stencil: BilinearStencil, amounts):
    """Add ``amounts`` at the stencil in place, corner by corner and particle
    by particle in index order, one corner's (n,) products at a time."""
    if not field_values.flags.c_contiguous:
        raise ValueError("scatter_add needs a C-contiguous field to update in place")
    nodes = field_values.reshape(-1)
    for flat, weights in zip(stencil.flat, stencil.weights):
        np.add.at(nodes, flat, weights * amounts)


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


def micro_step(state: MicroState, cfg: MicroConfig, noise: NoiseAhead) -> MicroState:
    """One explicit Euler step of the coupled particle/field dynamics.

    Order: velocity (tissue-gradient drift + noise kick), position (periodic
    wrap), intracellular protons, acid and tissue at the particle
    neighbourhoods, then the kill conditions.  The returned state holds the
    survivors and the tissue gradient at their positions, gathered through
    the stencil after the move: that is bitwise the gradient a fresh build
    of the next step would gather.

    ``state`` is a stack (see MicroState).  Every particle of a stack
    reads and writes its own sample's fields only, and each node sums its
    particles' contributions in their order, so each sample's bits are
    those of its run alone.  The step writes nothing into ``state``.

    ``noise`` is the run's source of kicks, a NoiseAhead over the stack's
    streams in sample order: ``noise.take(idx)`` hands out this step's
    draws for the flat indices ``idx`` of the living particles.
    """
    tau = cfg.tau
    grid = cfg.grid
    samples, m = state.alive.shape
    idx = np.flatnonzero(state.alive)

    def stencil(positions):
        # sample s addresses its fields from flat node s * nodes
        return bilinear_stencil(grid, positions, idx // m * grid.node_count)

    grad = state.gradient
    if grad is None:
        grad = _tissue_gradient(state.tissue, grid, stencil(state.positions))
    vel = state.velocities + (cfg.taxis_sign * grad * tau + cfg.noise_scale * noise.take(idx))
    pos = wrap_positions(state.positions + vel * tau, grid.lengths)
    after = stencil(pos)

    acid = state.acid.copy()
    tissue = state.tissue.copy()
    clamps = np.zeros(samples, dtype=np.int64)

    # efflux and buffering take protons out, production puts them in; the
    # rates stay unnamed so that the step holds few per-particle arrays
    acid_at = gather(acid, after)
    efflux = cfg.efflux_rate * state.protons / (1.0 + acid_at)
    protons = state.protons + tau * (-efflux - cfg.buffering_rate * state.protons
                                     + cfg.production_rate / (1.0 + state.protons))
    neg = protons < 0
    if neg.any():
        clamps += np.bincount(idx[neg] // m, minlength=samples)
        protons[neg] = 0.0

    # extracellular side: efflux arrives, the vasculature clears
    scatter_add(acid, after, tau * (cfg.field_coupling * (efflux - cfg.vascular_uptake * acid_at)))
    neg = acid < 0
    if neg.any():
        clamps += np.count_nonzero(neg.reshape(samples, -1), axis=1)
        acid[neg] = 0.0

    # tissue decays where particles sit; the exact integrating factor keeps
    # it positive no matter how many particles share a cell
    exposure = np.zeros_like(tissue)
    scatter_add(exposure, after, tau * cfg.tissue_decay * acid_at)
    tissue *= np.exp(-exposure)

    killed = (protons < cfg.kill_low) | (protons > cfg.kill_high) | (
        gather(acid, after) > cfg.kill_acid
    )
    del acid_at, efflux  # held through the gradient gather, they would set the step's peak
    grad = _tissue_gradient(tissue, grid, after)
    alive = state.alive.copy()
    if killed.any():
        alive.reshape(-1)[idx[killed]] = False
        keep = ~killed
        # one at a time, so that each array's old rows are freed before the next copy
        pos = pos.compress(keep, axis=0)
        vel = vel.compress(keep, axis=0)
        protons = protons.compress(keep, axis=0)
        grad = grad.compress(keep, axis=0)

    out = MicroState(
        positions=pos,
        velocities=vel,
        protons=protons,
        alive=alive,
        acid=acid,
        tissue=tissue,
        clamp_events=state.clamp_events + clamps,
    )
    out.gradient = grad
    return out


def _tissue_gradient(tissue: np.ndarray, grid: Grid, stencil: BilinearStencil) -> np.ndarray:
    """The centred tissue gradient gathered at each position of ``stencil``,
    (n, 2)."""
    return np.column_stack(
        [gather(centered_difference(*neighbours(tissue, grid, axis), grid.spacings[axis]),
                stencil) for axis in (0, 1)]
    )


def _draw_step_noise(draws: np.ndarray, cfg: MicroConfig, streams) -> None:
    """Fill ``draws`` (S, M, 2) with one step's noise, each stream's row
    for its sample's whole starting population, so that the draws do not
    depend on the deaths; a step keeps the living particles' rows."""
    for row, stream in zip(draws, streams):
        draw_noise(cfg.noise, stream, cfg.tau, out=row)


# The noise helper's trial.  Step 0 waits for the first fill, so the helper
# is judged on steps 1..NOISE_TRIAL_STEPS: it stays only if, over them, the
# process's CPU time ran ahead of its wall time by at least
# NOISE_OVERLAP_FRACTION of the helper's own CPU time for their fills.  On
# a 2-vCPU host the ensemble's micro stacks at M = 2500 read 0.72-0.96 with
# a CPU free, and -0.52-0.005 pinned to one CPU, beside a busy process or
# beside a second run, where a helper that stays costs 5-9.5% of the run;
# on one CPU the trial itself costs about 1.5% of a stack of four's run.
NOISE_TRIAL_STEPS = 3
NOISE_OVERLAP_FRACTION = 0.5


class NoiseAhead:
    """A run's noise, drawn one step ahead on a one-thread executor into
    one reused (S, M, 2) buffer.

    The first fill is submitted at once, and each later one when ``take``
    has copied the rows of the step before out of the buffer, until every
    step is filled or the trial finds no overlap (NOISE_OVERLAP_FRACTION),
    after which ``take`` draws each step itself.  Every stream draws in the
    order and amounts of an inline run either way.  A fill's exception is
    raised by the next ``take``; ``close`` shuts the executor down and
    waits for its thread."""

    def __init__(self, cfg: MicroConfig, streams, m: int):
        # only a micro run needs it, not the command line's start
        from concurrent.futures import ThreadPoolExecutor

        self._draws = np.empty((len(streams), m, 2))
        self._cfg, self._streams = cfg, streams
        self._steps = 0  # taken so far
        self._start = None  # at the trial's start: process CPU minus wall time, helper CPU
        self._pool = ThreadPoolExecutor(1, "levyflow-noise")
        self._filled = self._pool.submit(self._fill) if cfg.n_steps else None

    def _fill(self) -> float:
        """Draw the next step into the buffer; the helper's CPU time after."""
        _draw_step_noise(self._draws, self._cfg, self._streams)
        return time.thread_time()

    def take(self, idx: np.ndarray) -> np.ndarray:
        """The rows ``idx`` of this step's flat (S * M, 2) draws.  Once the
        helper has stopped, each step is drawn here into a fresh buffer,
        which measured 1.5-2% faster than reusing the helper's."""
        if self._pool is None:
            draws = np.empty_like(self._draws)
            _draw_step_noise(draws, self._cfg, self._streams)
            return draws.reshape(-1, 2).take(idx, axis=0)
        filled = self._filled.result()
        rows = self._draws.reshape(-1, 2).take(idx, axis=0)
        if self._steps == 0:  # the trial starts once the first fill is in
            self._start = (time.process_time() - time.perf_counter(), filled)
        self._steps += 1
        if self._steps == NOISE_TRIAL_STEPS + 1 and (
                time.process_time() - time.perf_counter() - self._start[0]
                < NOISE_OVERLAP_FRACTION * (filled - self._start[1])):
            self.close()
        elif self._steps < self._cfg.n_steps:
            self._filled = self._pool.submit(self._fill)
        return rows

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


def survival_fraction(state: MicroState, m0: int) -> float:
    """Alive fraction of the initial population."""
    return state.alive_count() / m0


def run_micro(cfg: MicroConfig, rng: RngStream | StreamChunk,
              initial_state: MicroState | None = None):
    """Run the configured number of steps.

    A StreamChunk of S streams advances S samples as one stack, all from
    the same initial state, and returns each sample's (final state, alive
    counts before the first step and after each) in stream order, each bit
    for bit its single run, and the stack's total alive count per step.
    One RngStream runs a stack of one and returns its (final state, alive
    counts).  Counts are Python ints.

    ``initial_state`` stands in for ``micro_init(cfg)``, so that samples
    of one config can share it; no step changes the state it is given.
    Final states hold the living particles only.

    Each step takes its kicks from the run's NoiseAhead, whose helper
    thread draws each step's noise while the step before runs for as long
    as its own timing shows that it overlaps the steps; the draws, and so
    every result, are the same either way.  No thread outlives the call."""
    first = micro_init(cfg) if initial_state is None else initial_state
    single = isinstance(rng, RngStream)
    streams = StreamChunk([rng]) if single else rng
    state = _stacked(first, len(streams))
    counts = [np.count_nonzero(state.alive, axis=-1)]
    noise = NoiseAhead(cfg, streams, state.alive.shape[-1])
    try:
        for _ in range(cfg.n_steps):
            state = micro_step(state, cfg, noise)
            counts.append(np.count_nonzero(state.alive, axis=-1))
    finally:
        noise.close()
    counts = np.array(counts)
    runs = _unstacked(state, counts)
    return runs[0] if single else (runs, counts.sum(axis=1).tolist())


def _stacked(state: MicroState, samples: int) -> MicroState:
    """A stack of ``samples`` copies of a run's state.  Its alive mask and
    fields are read-only broadcasts: no step writes into a state."""
    rows = (np.concatenate([a] * samples) for a in (state.positions, state.velocities,
                                                     state.protons))
    masks_and_fields = (np.broadcast_to(a, (samples,) + a.shape)
                        for a in (state.alive, state.acid, state.tissue))
    return MicroState(*rows, *masks_and_fields, np.full(samples, state.clamp_events))


def _unstacked(state: MicroState, counts: np.ndarray) -> list:
    """Each sample's (state, alive counts) of a stack whose per-step alive
    counts ``counts`` are (steps + 1, S); the states' arrays are views of
    the stack's."""
    ends = np.cumsum(counts[-1])
    runs = []
    for k, (start, end) in enumerate(zip(ends - counts[-1], ends)):
        sample = MicroState(state.positions[start:end], state.velocities[start:end],
                            state.protons[start:end], state.alive[k], state.acid[k],
                            state.tissue[k], int(state.clamp_events[k]))
        runs.append((sample, counts[:, k].tolist()))
    return runs


# ---------------------------------------------------------------------------
# macroscopic views
# ---------------------------------------------------------------------------


def deposit_fields(state: MicroState, cfg: MicroConfig):
    """Kernel-smoothed macroscopic acid and tissue fields.

    The smoothing kernel integrates to one, so total mass is preserved; a
    vanishing bandwidth returns the fields unchanged.
    """
    acid = periodic_gaussian_blur(state.acid, cfg.grid, cfg.deposit_bandwidth)
    tissue = periodic_gaussian_blur(state.tissue, cfg.grid, cfg.deposit_bandwidth)
    return GridField(cfg.grid, acid), GridField(cfg.grid, tissue)

