"""Reference route of AC-7: a velocity-jump particle ensemble and its
kinetic-equation twin.

The model is a particle moving with one of finitely many velocities; at
compound-Poisson event times the velocity index jumps by a symmetric random
shift on the cyclic index lattice.  The position density then obeys a
transport equation

    d/dt p(x, v_i) = -v_i d/dx p(x, v_i)
                     + rate * sum_k mu_k (p(x, v_{i-k}) - p(x, v_i)),

solved here with an upwind finite-difference scheme.  The two routes are
independent; AC-7 compares their position histograms, and
``tests/test_transport.py`` checks each route on its own.
"""

import math
from dataclasses import dataclass

import numpy as np

from levyflow.drivers import RngStream
from levyflow.errors import ConfigInvalid


@dataclass(frozen=True)
class VelocityJumpModel:
    """Finite cyclic velocity lattice with symmetric jump shifts.

    ``shift_probs[k]`` is the probability that one jump moves the velocity
    index by +-(k+1) (half each way); probabilities must sum to at most 1,
    any remainder is a null shift.
    """

    velocities: tuple
    jump_rate: float
    shift_probs: tuple

    def __post_init__(self):
        if len(self.velocities) < 2:
            raise ConfigInvalid("need at least two velocity states")
        if self.jump_rate < 0:
            raise ConfigInvalid("jump rate must be nonnegative")
        if sum(self.shift_probs) > 1.0 + 1e-12 or any(p < 0 for p in self.shift_probs):
            raise ConfigInvalid("shift probabilities must be a sub-distribution")

    @property
    def n_states(self):
        return len(self.velocities)

    def shift_distribution(self):
        """Probability of each cyclic index shift 0..m-1 per jump event."""
        m = self.n_states
        probs = np.zeros(m)
        probs[0] = 1.0 - sum(self.shift_probs)
        for k, p in enumerate(self.shift_probs, start=1):
            probs[k % m] += 0.5 * p
            probs[(-k) % m] += 0.5 * p
        return probs


def default_transport_model() -> VelocityJumpModel:
    return VelocityJumpModel(
        velocities=(-0.6, -0.2, 0.2, 0.6),
        jump_rate=2.5,
        shift_probs=(0.7, 0.3),
    )


def wrapped_gaussian_density(x, center, sigma, length, images=6):
    """Density of a Gaussian wrapped onto the circle of given length."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for k in range(-images, images + 1):
        out += np.exp(-((x - center + k * length) ** 2) / (2 * sigma**2))
    return out / (math.sqrt(2 * math.pi) * sigma)


# ---------------------------------------------------------------------------
# particle route
# ---------------------------------------------------------------------------


def simulate_velocity_jump(
    model: VelocityJumpModel,
    n_particles: int,
    t_end: float,
    dt: float,
    rng: RngStream,
    x_center: float = 0.5,
    x_sigma: float = 0.06,
    length: float = 1.0,
):
    """Euler-thinned simulation of the velocity-jump process on the circle.

    Returns final positions (n,).  Initial positions are wrapped-Gaussian
    around ``x_center``; initial velocity states are uniform.  The draws
    come from a generator on ``rng``'s Philox key, so from the start of
    its stream.
    """
    if dt <= 0 or t_end < 0:
        raise ConfigInvalid("need dt > 0 and t_end >= 0")
    m = model.n_states
    vels = np.asarray(model.velocities)
    shift_probs = model.shift_distribution()
    shift_cdf = np.cumsum(shift_probs)

    key = np.array([rng.base_seed, rng.stream_index], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    x = np.mod(x_center + x_sigma * gen.standard_normal(n_particles), length)
    s = gen.integers(0, m, n_particles)
    n_steps = int(round(t_end / dt))
    p_jump = model.jump_rate * dt
    if p_jump > 0.2:
        raise ConfigInvalid("jump_rate * dt too large for Euler thinning")
    for _ in range(n_steps):
        x = np.mod(x + vels[s] * dt, length)
        jumping = gen.random(n_particles) < p_jump
        if np.any(jumping):
            u = gen.random(int(jumping.sum()))
            shifts = np.searchsorted(shift_cdf, u)
            s[jumping] = (s[jumping] + shifts) % m
    return x


def position_histogram(positions, n_bins: int, length: float = 1.0):
    """Bin-probability vector (sums to 1)."""
    idx = np.floor(np.asarray(positions) / (length / n_bins)).astype(int) % n_bins
    counts = np.zeros(n_bins)
    np.add.at(counts, idx, 1.0)
    return counts / counts.sum()


# ---------------------------------------------------------------------------
# kinetic-equation route (the oracle)
# ---------------------------------------------------------------------------


def transport_pde_solve(
    model: VelocityJumpModel,
    t_end: float,
    n_cells: int = 800,
    length: float = 1.0,
    x_center: float = 0.5,
    x_sigma: float = 0.06,
    cfl: float = 0.95,
):
    """Upwind finite-difference solve of the transport equation.

    Returns (x_nodes, position_density) where the density is the velocity
    marginal, normalized so that ``sum(density) * dx = 1``.
    """
    m = model.n_states
    vels = np.asarray(model.velocities)
    dx = length / n_cells
    vmax = float(np.max(np.abs(vels)))
    if vmax == 0:
        raise ConfigInvalid("transport needs a nonzero velocity")
    dt = cfl * dx / vmax
    n_steps = max(1, int(math.ceil(t_end / dt)))
    dt = t_end / n_steps
    if model.jump_rate * dt > 0.5:
        raise ConfigInvalid("jump coupling unstable; refine the grid")

    x = np.arange(n_cells) * dx
    p = np.tile(wrapped_gaussian_density(x, x_center, x_sigma, length) / m, (m, 1))
    shift_probs = model.shift_distribution()

    for _ in range(n_steps):
        adv = np.empty_like(p)
        for i, v in enumerate(vels):
            if v >= 0:
                adv[i] = p[i] - (v * dt / dx) * (p[i] - np.roll(p[i], 1))
            else:
                adv[i] = p[i] - (v * dt / dx) * (np.roll(p[i], -1) - p[i])
        gain = np.zeros_like(p)
        for k, prob in enumerate(shift_probs):
            if prob > 0:
                gain += prob * np.roll(adv, k, axis=0)
        p = adv + model.jump_rate * dt * (gain - adv)
    return x, p.sum(axis=0)


def density_to_bins(x_nodes, density, n_bins: int, length: float = 1.0):
    """Aggregate a fine-grid density into bin probabilities."""
    n_cells = len(x_nodes)
    if n_cells % n_bins != 0:
        raise ConfigInvalid("n_bins must divide the PDE grid size")
    per = n_cells // n_bins
    dx = length / n_cells
    return density.reshape(n_bins, per).sum(axis=1) * dx


def l1_distance(p, q) -> float:
    return float(np.abs(np.asarray(p) - np.asarray(q)).sum())
