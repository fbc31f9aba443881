"""Fractional Laplacian on periodic grids, and symbols as Fourier multipliers.

A symbol ``psi`` (``symbols.SymbolSpec``) is the operator ``psi(D)``: on a
periodic grid it multiplies each Fourier mode ``e^{i(xi, x)}`` by
``psi(xi)``.  ``symbol_multiplier`` evaluates any symbol on the grid's FFT
lattice and ``fourier_multiply`` applies such a multiplier to a real field
or stack of fields; every Fourier multiplier here goes through that pair.

The production operator is the splitting scheme: a singular second-difference
part with coefficient ``c / ((2 - p) h^p)`` plus a quadrature of the integral
tail, wrapped periodically (Huang & Oberman, SIAM J. Numer. Anal. 52, 2014).
The wrapped kernel is circulant, so the operator is applied and inverted as a
Fourier multiplier made of the kernel's own eigenvalues.  Everything it
produces approximates the *generator* ``-(-Laplace)^{p/2}`` (negative
semidefinite); the spectral oracle applies the exact multiplier ``-psi`` of
the stable symbol ``psi(xi) = |xi|^p`` and serves as ground truth in the
acceptance comparisons.  The multiplier bound checks evaluate their symbol
families through the same ``SymbolSpec`` classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import BetaOutOfRange, EmptyGrid, ExponentOutOfRange
from .grids import Grid, GridField, laplacian5, require_same_grid
from .symbols import (ShiftedSymbol, StableSymbol, SymbolSpec, TripleSymbol, _as_points,
                      driven_symbol)

_TAIL_REMAINDER = 1e-6
_TAIL_CAP_FACTOR = 10


def frac_constant(d: int, p: float) -> float:
    """``|c_{d,p}| = 2^p Gamma((d+p)/2) / (pi^{d/2} |Gamma(-p/2)|)``.

    Continuous in p on (0, 2); ``frac_constant(1, p) / (2 - p) -> 1`` as
    p -> 2, which makes the singular stencil reproduce the classical
    3-point Laplacian weight in that limit.
    """
    if d not in (1, 2):
        raise ExponentOutOfRange(f"dimension must be 1 or 2, got {d}")
    if not 0.0 < p < 2.0:
        raise ExponentOutOfRange(f"exponent must lie in (0,2), got {p}")
    return 2.0**p * math.gamma((d + p) / 2.0) / (
        math.pi ** (d / 2.0) * abs(math.gamma(-p / 2.0))
    )


def default_tail_nodes(p: float, h: float, axis_points: int) -> int:
    """Tail node count: truncate once the omitted remainder is below
    ``1e-6 * ||f||_inf``, capped at 10 * M nodes."""
    need = (2.0 / (_TAIL_REMAINDER * p)) ** (1.0 / p)
    return int(min(max(math.ceil(need / h), 2), _TAIL_CAP_FACTOR * axis_points))


def _panel_power_gaps(y: np.ndarray, q: float) -> np.ndarray:
    """``a^q - b^q`` for the panels ``[a, b]`` between consecutive nodes
    ``y``, taking one power per node.  The powers are freed on return: held
    alongside the kernel's other temporaries at 10 * M tail nodes they cost
    more in page faults than the halved power count saves."""
    powers = y**q
    return powers[:-1] - powers[1:]


def _axis_kernel(axis_points: int, spacing: float, p: float, cutoff_steps: int, n_tail: int):
    """Periodic difference kernel of the 1D operator along one axis.

    Returns (kernel, far), ``kernel`` a dense length-M array with
    ``kernel[0] = 0``, such that

        (A f)[k] = sum_o kernel[o] * (f[(k + o) % M] - f[k])
                   + far * (mean(f) - f[k]).

    The tail uses product-trapezoid weights: the increment is interpolated
    linearly between nodes i*h and integrated against y^(-1-p) exactly, so
    the quadrature stays accurate near the singular cutoff.  Offsets wrap,
    which realises the integral tail on the torus.  ``far`` closes the
    truncated remainder beyond n_tail*h against the field mean.
    """
    m = axis_points
    h = cutoff_steps * spacing
    c1 = frac_constant(1, p)
    kernel = np.zeros(m)
    # singular part: second difference at +-h scaled by c / ((2-p) h^p)
    sing = c1 / ((2.0 - p) * h**p)
    kernel[cutoff_steps % m] += sing
    kernel[(-cutoff_steps) % m] += sing
    # tail: nodes i*h for i = 1..n_tail, panels between consecutive nodes
    i = np.arange(1, n_tail + 1)
    y = i * h
    a, b = y[:-1], y[1:]
    mom0 = _panel_power_gaps(y, -p) / p
    if abs(p - 1.0) < 1e-12:
        mom1 = np.log(b / a)
    else:
        mom1 = _panel_power_gaps(y, 1.0 - p) / (p - 1.0)
    w = np.zeros(n_tail)
    w[:-1] += (b * mom0 - mom1) / h
    w[1:] += (mom1 - a * mom0) / h
    w *= c1
    offs = (i * cutoff_steps) % m
    np.add.at(kernel, offs, w)
    np.add.at(kernel, (-i * cutoff_steps) % m, w)
    far = 2.0 * c1 * (n_tail * h) ** (-p) / p
    kernel[0] = 0.0  # offsets that wrap onto the center contribute nothing
    return kernel, far


def _axis_symbols(kernels: np.ndarray, fars: np.ndarray) -> np.ndarray:
    """Eigenvalues of circulant 1D operators on the FFT modes 0..M-1, one
    row per kernel of the ``(P, M)`` stack ``kernels``.

    Each kernel is symmetric, so its DFT is real: mode k has eigenvalue
    ``Re FFT(kernel)_k - sum(kernel) - far * [k != 0]`` (the mean of a
    nonzero mode vanishes).  The FFT and the sum act on each row on its
    own, so a row's bits do not depend on the stack.
    """
    lam = np.fft.fft(kernels, axis=-1).real - kernels.sum(axis=-1, keepdims=True) - fars[:, None]
    lam[:, 0] = 0.0
    return lam


@lru_cache(maxsize=32)
def _half_lattice(grid: Grid):
    """(points, shape): the half FFT lattice of ``grid`` as an ``(n, ndim)``
    array of angular frequencies, read-only, and its shape.  Cached per
    grid because the oracle evaluates one symbol per exponent on it."""
    freqs = [2.0 * math.pi * np.fft.fftfreq(m, d)
             for m, d in zip(grid.shape[:-1], grid.spacings[:-1])]
    freqs.append(2.0 * math.pi * np.fft.rfftfreq(grid.shape[-1], grid.spacings[-1]))
    lattice = np.meshgrid(*freqs, indexing="ij")
    points = np.stack([axis.ravel() for axis in lattice], axis=-1)
    points.flags.writeable = False
    return points, lattice[0].shape


def symbol_multiplier(grid: Grid, spec: SymbolSpec) -> np.ndarray:
    """``psi(xi)`` of ``spec`` on the half FFT lattice of ``grid``.

    The lattice has the angular frequencies ``2 pi fftfreq`` on the leading
    axes and only the nonnegative ones, ``2 pi rfftfreq``, on the last, so
    the result has the shape of ``np.fft.rfftn`` of a field on ``grid``.
    The half is enough: every symbol here satisfies ``psi(-xi) = conj
    psi(xi)``, so ``psi(D)`` maps real fields to real fields and
    ``fourier_multiply`` restores the other half.  ``spec.d`` must equal
    ``grid.ndim``; the values come back complex.
    """
    points, shape = _half_lattice(grid)
    return spec.evaluate_many(points).reshape(shape)


def fourier_multiply(grid: Grid, values: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
    """``multiplier(D) values`` for a real field or stack of fields whose
    trailing axes are ``grid``, with ``multiplier`` on the half FFT lattice
    of ``symbol_multiplier``; a leading multiplier axis broadcasts against
    the stack's axes before the grid axes."""
    axes = tuple(range(-grid.ndim, 0))
    spectrum = np.fft.rfftn(values, axes=axes)
    return np.fft.irfftn(multiplier * spectrum, s=grid.shape, axes=axes)


@dataclass
class FracLapOperator:
    """``-(-Laplace)^{p/2}`` on a periodic grid, diagonal in Fourier space.

    In 2D the operator is the sum of the two per-axis 1D operators
    (dimension splitting); the isotropic 2D integral is intentionally not
    used, matching the per-axis update scheme of the macro solver.  Each
    per-axis kernel is circulant, so the build stores the operator's real
    eigenvalues on the half FFT lattice of ``symbol_multiplier``: applying
    it and solving ``(I - shift A) x = b`` are each one ``fourier_multiply``.

    ``exponent`` may also be a 1-D array, one exponent per sample of a
    stack: the eigenvalues then carry a leading sample axis and act on
    ``(S, *grid.shape)`` stacks, each sample with its own exponent, or on
    any stack whose axis before the grid axes broadcasts against S.  Each
    exponent's kernel is its own scalar build, and the FFT and sums over
    the stack of kernels act row by row, so every row is bitwise the
    single-exponent operator's.
    """

    grid: Grid
    exponent: float
    cutoff_steps: int = 1
    n_tail: int | None = None
    _symbol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        exponents = np.asarray(self.exponent, dtype=float)
        if not all(0.0 < p < 2.0 for p in exponents.ravel().tolist()):
            raise ExponentOutOfRange(f"exponent must lie in (0,2), got {self.exponent}")
        if self.cutoff_steps < 1:
            raise ExponentOutOfRange("cutoff must be at least one grid step")
        if any(2 * self.cutoff_steps >= m for m in self.grid.shape):
            raise ExponentOutOfRange("cutoff radius too large for the grid")
        symbols = self._eigenvalues(exponents.ravel().tolist())
        self._symbol = symbols.reshape(exponents.shape + symbols.shape[1:])

    def _eigenvalues(self, exponents: list) -> np.ndarray:
        """The operator's eigenvalues on the half FFT lattice, one row per
        exponent: one scalar kernel build per exponent and axis, then one
        FFT over the stack of kernels and one broadcast sum over the axes."""
        ndim = self.grid.ndim
        symbol = np.zeros(())
        axis_symbols = {}  # one kernel stack per distinct (points, spacing)
        for axis in range(ndim):
            m = self.grid.shape[axis]
            d = self.grid.spacings[axis]
            if (m, d) not in axis_symbols:
                h = self.cutoff_steps * d
                kernels, fars = zip(*(
                    _axis_kernel(m, d, p, self.cutoff_steps,
                                 self.n_tail or default_tail_nodes(p, h, m))
                    for p in exponents))
                axis_symbols[m, d] = _axis_symbols(np.array(kernels), np.array(fars))
            lam = axis_symbols[m, d]
            if axis == ndim - 1:  # the half lattice keeps the last axis' nonnegative modes
                lam = lam[:, : m // 2 + 1]
            shape = [len(exponents)] + [1] * ndim
            shape[1 + axis] = lam.shape[1]
            symbol = symbol + lam.reshape(shape)
        return symbol

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        return fourier_multiply(self.grid, values, self._symbol)

    def solve_shifted(self, b: np.ndarray, shift: float) -> np.ndarray:
        """Exact solution of ``(I - shift A) x = b``.

        ``A`` is negative semidefinite, so any ``shift >= 0`` gives a
        nonsingular system.  ``shift == 0`` returns a copy of ``b``, bit
        for bit.
        """
        if shift == 0:
            return b.copy()
        return fourier_multiply(self.grid, b, 1.0 / (1.0 - shift * self._symbol))

    def apply(self, f: GridField) -> GridField:
        require_same_grid(f.grid, self.grid)
        return GridField(self.grid, self.apply_values(f.values))


def spectral_oracle(grid: Grid, p, f):
    """The exact generator ``-|xi|^p`` (0 at the zero mode) applied as a
    Fourier multiplier: ``-psi(D) f`` for the stable symbol ``psi(xi) =
    |xi|^p``, and for p = 2 the diffusion symbol with ``Q = 2I``, the
    spectral Laplacian.  Ground truth for the difference scheme.

    ``f`` is a ``GridField`` on ``grid`` (a ``GridField`` comes back) or an
    array stack whose trailing axes are the grid (an array comes back).
    ``p`` is a scalar or a sequence of P exponents; a sequence gives the
    multiplier a leading axis of one row per exponent, which broadcasts
    against the stack's axis just before the grid axes, so a ``(K, P,
    *grid.shape)`` or ``(K, 1, *grid.shape)`` stack gets exponent ``p[j]``
    in row ``j``.  Each row is its own symbol evaluation, so every row is
    bitwise the single-exponent result.
    """
    exponents = np.asarray(p, dtype=float)
    if not all(0.0 < q <= 2.0 for q in exponents.ravel().tolist()):
        raise ExponentOutOfRange(f"exponent must lie in (0,2], got {p}")
    if isinstance(f, GridField):
        require_same_grid(f.grid, grid)
        return GridField(grid, spectral_oracle(grid, p, f.values))
    rows = [-symbol_multiplier(grid, _power_symbol(q, grid.ndim)).real
            for q in exponents.ravel().tolist()]
    mult = np.array(rows).reshape(exponents.shape + rows[0].shape)
    return fourier_multiply(grid, f, mult)


def _power_symbol(p: float, d: int) -> SymbolSpec:
    """``|xi|^p`` on d axes: the stable symbol, or for p = 2 (outside the
    stable range) the diffusion symbol ``(xi, Q xi)/2`` with ``Q = 2I``."""
    if p == 2.0:
        return TripleSymbol(drift=(0.0,) * d, q_matrix=2.0 * np.eye(d))
    return StableSymbol(p, dim=d)


def standard_laplacian(grid: Grid, f: GridField) -> GridField:
    """Classical second-difference Laplacian, for the p -> 2 consistency check."""
    require_same_grid(f.grid, grid)
    return GridField(grid, laplacian5(f.values, grid))


# ---------------------------------------------------------------------------
# multiplier bound checks for the random-symbol operator family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairRatio:
    left: float
    right: float
    sup_value: float
    ratio: float


@dataclass(frozen=True)
class MultiplierLipschitzReport:
    pairs: tuple
    sup_ratio: float
    bound_scale: float
    constant: float
    satisfied: bool


def multiplier_lipschitz_check(
    base: SymbolSpec,
    s: float,
    r: float,
    beta_pairs,
    probe_points,
    beta_low: float | None = None,
    beta_high: float | None = None,
    fixed_constant: float | None = None,
) -> MultiplierLipschitzReport:
    """Sup of ``theta_{b1,r} |1/theta_{b1,s} - 1/theta_{b2,s}|`` per unit of
    ``|b1 - b2|`` over the probe grid, where ``theta_{b,s} = (1 + b
    psi)^{s/2}`` is ``driven_symbol(base, b, s)``.

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
    if float(np.max(np.abs(base.evaluate_many(pts).imag))) > 1e-10:
        raise BetaOutOfRange("base symbol must be real valued")

    def theta(beta, order):
        return driven_symbol(base, beta, order).evaluate_many(pts).real

    betas = [b for pair in beta_pairs for b in pair[:2]]
    lo = beta_low if beta_low is not None else min(betas)
    hi = beta_high if beta_high is not None else max(betas)
    if lo <= 0:
        raise BetaOutOfRange("driver range must stay positive")
    entries = []
    for pair in beta_pairs:
        b1, b2 = float(pair[0]), float(pair[1])
        for b in (b1, b2):
            if not lo <= b <= hi:
                raise BetaOutOfRange(f"beta value {b} outside [{lo}, {hi}]")
        if b1 == b2:
            entries.append(PairRatio(b1, b2, 0.0, 0.0))
            continue
        diff = np.abs(1.0 / theta(b1, s) - 1.0 / theta(b2, s))
        sup_m = float(np.max(theta(b1, r) * diff))
        entries.append(PairRatio(b1, b2, sup_m, sup_m / abs(b1 - b2)))
    bound_scale = (hi / lo) ** (0.5 * r) / lo
    sup_ratio = max(e.ratio for e in entries) if entries else 0.0
    constant = fixed_constant if fixed_constant is not None else sup_ratio / bound_scale
    satisfied = all(e.ratio <= constant * bound_scale * (1.0 + 1e-9) for e in entries)
    return MultiplierLipschitzReport(tuple(entries), sup_ratio, bound_scale, constant, satisfied)


@dataclass(frozen=True)
class ResolventHolderReport:
    pairs: tuple
    sup_ratio: float
    all_finite: bool


def alpha_resolvent_holder_check(
    exponent_pairs,
    probe_radii,
    weight_exponent: float = 1.0,
    window=(0.5, 1.0),
) -> ResolventHolderReport:
    """Resolvent-difference bound for the exponent-driven stable family.

    Evaluates ``(1+|xi|^2)^{eta/2} * | |xi|^{-2 a1} - |xi|^{-2 a2} |`` on the
    radial probe grid (away from 0; the ratio diverges as |xi| -> 0, which
    is why callers must exclude a neighbourhood of the origin) and reports
    sup / |a1 - a2| per pair.  ``|xi|^{-2a}`` is the inverse of the stable
    symbol of exponent 2a, and the weight (eta > 0) is the shifted symbol of
    ``|xi|^2``.
    """
    radii = np.asarray(probe_radii, dtype=float)
    if radii.size == 0:
        raise EmptyGrid("probe grid is empty")
    if np.any(radii <= 0):
        raise ExponentOutOfRange("probe radii must be positive (0 is singular)")
    lo, hi = window
    weight = _radial(ShiftedSymbol(_power_symbol(2.0, 1), weight_exponent), radii)
    entries = []
    for a1, a2 in exponent_pairs:
        for a in (a1, a2):
            if not lo < a < hi:
                raise ExponentOutOfRange(f"exponent {a} outside ({lo}, {hi})")
        if a1 == a2:
            entries.append(PairRatio(a1, a2, 0.0, 0.0))
            continue
        diff = np.abs(1.0 / _radial(StableSymbol(2.0 * a1), radii)
                      - 1.0 / _radial(StableSymbol(2.0 * a2), radii))
        sup_m = float(np.max(weight * diff))
        entries.append(PairRatio(a1, a2, sup_m, sup_m / abs(a1 - a2)))
    ratios = [e.ratio for e in entries]
    return ResolventHolderReport(
        tuple(entries),
        max(ratios) if ratios else 0.0,
        all(np.isfinite(r) for r in ratios),
    )


def _radial(spec: SymbolSpec, radii: np.ndarray) -> np.ndarray:
    """Real part of a one-dimensional symbol at the radii."""
    return spec.evaluate_many(radii[:, None]).real
