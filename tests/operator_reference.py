"""Test-side references for the operators: the classical Laplacian as a
field map (AC-2, AC-4), the fractional operator and the spectral oracle on
a ``GridField`` (AC-1, AC-2), one Q-Wiener increment as a ``GridField`` and
its exact pointwise variance (AC-3), the symmetric frequency probe grid
(AC-9), and the multiplier bound checks of the driver- and exponent-indexed
symbol families (AC-8).

Both families are built from the symbols that the package ships: a member
of the driver-indexed family is the resolvent form ``(1 + max(beta psi(xi),
0))^(s/2)`` of a real symbol psi, and the exponent-indexed family is the
stable symbol ``|xi|^(2 alpha)``.
"""

from collections import namedtuple

import numpy as np

from levyflow import drivers, fracops
from levyflow.drivers import StreamChunk, _basis_matrix
from levyflow.errors import DimensionMismatch, EmptyGrid, ExponentOutOfRange, GridMismatch
from levyflow.grids import GridField, neighbours
from levyflow.symbols import StableSymbol, TripleSymbol, _as_points

# |xi|^2 on the line, the base of the resolvent weight (1 + |xi|^2)^(eta/2)
_SQUARE = TripleSymbol(drift=(0.0,), q_matrix=((2.0,),))

Pair = namedtuple("Pair", "sup_value ratio")
LipschitzReport = namedtuple("LipschitzReport", "pairs sup_ratio constant satisfied")
HolderReport = namedtuple("HolderReport", "pairs sup_ratio all_finite")


def require_same_grid(a, b):
    if a != b:
        raise GridMismatch(f"grids differ: {a} vs {b}")


def laplacian5(values, grid):
    """Classical second-difference Laplacian (the 5-point stencil in 2D) of a
    field or a stack of fields."""
    nb = neighbours(values, grid)
    out = np.zeros_like(values)
    for axis in range(grid.ndim):
        d = grid.spacings[axis]
        out += (nb[2 * axis] + nb[2 * axis + 1] - 2.0 * values) / d**2
    return out


def standard_laplacian(grid, f):
    """Classical second-difference Laplacian, for the p -> 2 consistency check."""
    require_same_grid(f.grid, grid)
    return GridField(grid, laplacian5(f.values, grid))


class FracLapOperator(fracops.FracLapOperator):
    """The package operator, applied to a ``GridField`` on its grid."""

    def apply(self, f):
        require_same_grid(f.grid, self.grid)
        return GridField(self.grid, self.apply_values(f.values))


def spectral_oracle(grid, p, f):
    """``fracops.spectral_oracle`` of a ``GridField`` on ``grid`` (a
    ``GridField`` comes back) or of an array stack (an array comes back)."""
    if isinstance(f, GridField):
        require_same_grid(f.grid, grid)
        return GridField(grid, fracops.spectral_oracle(grid, p, f.values))
    return fracops.spectral_oracle(grid, p, f)


def sample_qwiener_increment(spec, grid, dt, rng):
    """One increment of ``rng``'s stream as a ``GridField``: the package's
    stacked draw for a stack of one."""
    values = drivers.sample_qwiener_increment(spec, grid, dt, StreamChunk([rng]))
    return GridField(grid, values[0])


def qwiener_pointwise_variance(spec, grid, dt):
    """Exact variance field ``dt * sum lambda^2 e^2 (x) e^2 (y)`` of one
    increment on a 2D grid."""
    ax = _basis_matrix(spec.modes, grid.lengths[0], grid.shape[0])
    ay = _basis_matrix(spec.modes, grid.lengths[1], grid.shape[1])
    return dt * (ax * ax).sum(axis=0)[:, None] * (ay * ay).sum(axis=0)[None, :]


def default_probe_points(d: int, radius: float = 10.0, per_axis: int = 101) -> np.ndarray:
    """Deterministic probe grid: a symmetric lattice of frequency points."""
    line = np.linspace(-radius, radius, per_axis)
    if d == 1:
        return line[:, None]
    if d == 2:
        gx, gy = np.meshgrid(line, line, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])
    raise DimensionMismatch("probe grids implemented for d in {1, 2}")


def resolvent_symbol(psi, beta: float, s: float, points) -> np.ndarray:
    """``(1 + max(beta psi(xi), 0))^(s/2)`` at the (n, d) points, for a real
    symbol psi; it is 1 at xi = 0."""
    vals = psi.evaluate_many(points)
    if np.max(np.abs(vals.imag), initial=0.0) > 1e-10:
        raise ValueError("the resolvent form needs a real valued symbol")
    return np.power(1.0 + np.maximum(beta * vals.real, 0.0), 0.5 * s)


def _pair(a: float, b: float, sup) -> Pair:
    """``sup(a, b)`` and its ratio to the gap ``|a - b|``; 0 for a == b."""
    if a == b:
        return Pair(0.0, 0.0)
    value = sup(a, b)
    return Pair(value, value / abs(a - b))


def multiplier_lipschitz_check(base, s, r, beta_pairs, probe_points, beta_low=None,
                               beta_high=None, fixed_constant=None) -> LipschitzReport:
    """Sup of ``theta_{b1,r} |1/theta_{b1,s} - 1/theta_{b2,s}|`` per unit of
    ``|b1 - b2|`` over the probe grid, with ``theta_{b,s}`` the resolvent
    form of ``base`` at driver value b.

    The sup/gap ratio must stay below ``C * (beta_high/beta_low)^{r/2} /
    beta_low`` with one constant C for every pair.  Pass ``fixed_constant``
    to verify against a previously fitted C; otherwise C is fitted as the
    smallest constant covering all supplied pairs.
    """
    if not 1.0 < r <= s:
        raise ExponentOutOfRange(f"need 1 < r <= s, got r={r}, s={s}")
    pts = _as_points(probe_points, base.d)
    if pts.shape[0] == 0:
        raise EmptyGrid("probe grid is empty")
    betas = [b for pair in beta_pairs for b in pair[:2]]
    lo = min(betas) if beta_low is None else beta_low
    hi = max(betas) if beta_high is None else beta_high
    if lo <= 0 or not all(lo <= b <= hi for b in betas):
        raise ValueError(f"beta values {betas} must lie in [{lo}, {hi}], with {lo} > 0")

    def sup(b1, b2):
        diff = np.abs(1.0 / resolvent_symbol(base, b1, s, pts)
                      - 1.0 / resolvent_symbol(base, b2, s, pts))
        return float(np.max(resolvent_symbol(base, b1, r, pts) * diff))

    pairs = tuple(_pair(float(p[0]), float(p[1]), sup) for p in beta_pairs)
    bound_scale = (hi / lo) ** (0.5 * r) / lo
    sup_ratio = max((p.ratio for p in pairs), default=0.0)
    constant = sup_ratio / bound_scale if fixed_constant is None else fixed_constant
    satisfied = all(p.ratio <= constant * bound_scale * (1.0 + 1e-9) for p in pairs)
    return LipschitzReport(pairs, sup_ratio, constant, satisfied)


def alpha_resolvent_holder_check(exponent_pairs, probe_radii, weight_exponent=1.0,
                                 window=(0.5, 1.0)) -> HolderReport:
    """Resolvent-difference bound for the exponent-driven stable family.

    Evaluates ``(1+|xi|^2)^{eta/2} * | |xi|^{-2 a1} - |xi|^{-2 a2} |`` on the
    radial probe grid (away from 0; the ratio diverges as |xi| -> 0, which
    is why callers must exclude a neighbourhood of the origin) and reports
    sup / |a1 - a2| per pair.
    """
    radii = np.asarray(probe_radii, dtype=float)
    if radii.size == 0:
        raise EmptyGrid("probe grid is empty")
    if np.any(radii <= 0):
        raise ExponentOutOfRange("probe radii must be positive (0 is singular)")
    lo, hi = window
    for a in (a for pair in exponent_pairs for a in pair):
        if not lo < a < hi:
            raise ExponentOutOfRange(f"exponent {a} outside ({lo}, {hi})")
    pts = radii[:, None]
    weight = resolvent_symbol(_SQUARE, 1.0, weight_exponent, pts)

    def inverse(a):
        return 1.0 / StableSymbol(2.0 * a).evaluate_many(pts).real

    def sup(a1, a2):
        return float(np.max(weight * np.abs(inverse(a1) - inverse(a2))))

    pairs = tuple(_pair(a1, a2, sup) for a1, a2 in exponent_pairs)
    ratios = [p.ratio for p in pairs]
    return HolderReport(pairs, max(ratios, default=0.0), all(np.isfinite(ratios)))
