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
    ``1e-6 * ||f||_inf``, capped at 10 * M nodes.  A count past every float
    (a tiny ``p`` or ``h``) is past the cap too."""
    cap = _TAIL_CAP_FACTOR * axis_points
    try:
        nodes = math.ceil((2.0 / (_TAIL_REMAINDER * p)) ** (1.0 / p) / h)
    except (OverflowError, ZeroDivisionError):
        return cap
    return min(max(nodes, 2), cap)


@lru_cache(maxsize=32)
def _tail_nodes(n_tail: int, h: float) -> np.ndarray:
    """The tail quadrature nodes ``i * h`` for i = 1..n_tail, read-only;
    cached because every macro step rebuilds its operator on the same ones."""
    y = np.arange(1, n_tail + 1) * h
    y.flags.writeable = False
    return y


@lru_cache(maxsize=32)
def _fold_bins(axis_points: int, cutoff_steps: int) -> np.ndarray:
    """The offsets ``i * cutoff_steps % M`` of the tail nodes i = 1..period,
    read-only, where ``period = M / gcd(cutoff_steps, M)``: node i + period
    lands where node i does, and node period on the centre."""
    period = axis_points // math.gcd(cutoff_steps, axis_points)
    bins = np.arange(1, period + 1) * cutoff_steps % axis_points
    bins.flags.writeable = False
    return bins


def _axis_kernels(axis_points: int, spacing: float, exponents: list, cutoff_steps: int,
                  n_tails: list):
    """Periodic difference kernels of the 1D operator along one axis, one
    row per exponent ``exponents[r]`` with ``n_tails[r]`` tail nodes.

    Returns (kernels, fars), ``kernels`` a ``(P, M)`` stack with
    ``kernels[:, 0] = 0``, such that row r is the operator

        (A f)[k] = sum_o kernels[r, o] * (f[(k + o) % M] - f[k])
                   + fars[r] * (mean(f) - f[k]).

    The singular part is the second difference at +-h scaled by ``c /
    ((2-p) h^p)``.  The tail uses product-trapezoid weights: the increment
    is interpolated linearly between nodes i*h and integrated against
    y^(-1-p) exactly, so the quadrature stays accurate near the singular
    cutoff.  Offsets wrap, which realises the integral tail on the torus;
    ``far`` closes the truncated remainder beyond n_tail*h against the
    field mean.

    Each row is bitwise the scalar build that adds the singular weights,
    then every node's weight at its offset and then at its mirror offset,
    in node order.  So each power takes one scalar exponent (NumPy may take
    fast paths, such as sqrt for 0.5, that an array of exponents does not),
    the constants are Python floats, and the fold adds one period of nodes
    at a time, in node order; a shorter tail is padded with zero weights,
    which add nothing.  The per-exponent temporaries are one tail long,
    freed or reused in place as soon as possible: at 10 * M nodes, fresh
    pages cost more than the arithmetic.
    """
    m = axis_points
    h = cutoff_steps * spacing
    n_max = max(n_tails)
    y = _tail_nodes(n_max, h)
    bins = _fold_bins(m, cutoff_steps)
    period = len(bins)
    blocks = -(-n_max // period)
    weights = np.zeros((len(exponents), blocks, period))
    sing, fars = [], []
    for row, p, n in zip(weights.reshape(len(exponents), -1), exponents, n_tails):
        a, b = y[: n - 1], y[1:n]
        powers = y[:n] ** -p
        mom0 = powers[:-1] - powers[1:]
        mom0 /= p
        if abs(p - 1.0) < 1e-12:
            mom1 = np.log(b / a)
        else:
            powers = y[:n] ** (1.0 - p)
            mom1 = powers[:-1] - powers[1:]
            mom1 /= p - 1.0
        del powers
        part = b * mom0
        part -= mom1
        part /= h
        row[: n - 1] += part
        np.multiply(a, mom0, out=part)
        np.subtract(mom1, part, out=part)
        part /= h
        row[1:n] += part
        c1 = frac_constant(1, p)
        row[:n] *= c1
        sing.append(c1 / ((2.0 - p) * h**p))
        fars.append(2.0 * c1 * (n * h) ** (-p) / p)
    # 2 * cutoff_steps < M makes period >= 3, so the two singular columns differ
    folded = np.zeros((len(exponents), period))
    folded[:, 0] = sing  # offset +cutoff_steps, node 1's
    folded[:, -2] = sing  # offset -cutoff_steps, node period - 1's
    for k in range(blocks):
        folded += weights[:, k]
    # the mirror of node i lands on node -i's offset: within a period,
    # positions period-2..0 on columns 0..period-2 (position period-1 is
    # the centre's, which keeps no weight)
    for k in range(blocks):
        folded[:, :-1] += weights[:, k, -2::-1]
    kernels = np.zeros((len(exponents), m))
    kernels[:, bins] = folded
    kernels[:, 0] = 0.0  # offsets that wrap onto the center contribute nothing
    return kernels, np.array(fars)


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
    the stack's axes before the grid axes.

    The transforms go one axis at a time, in the order of ``rfftn`` and
    ``irfftn`` (so with the same bits) but without their argument handling.
    """
    leading = range(-grid.ndim, -1)
    spectrum = np.fft.rfft(values, axis=-1)
    for axis in reversed(leading):
        spectrum = np.fft.fft(spectrum, axis=axis)
    spectrum = multiplier * spectrum
    for axis in leading:
        spectrum = np.fft.ifft(spectrum, axis=axis)
    return np.fft.irfft(spectrum, n=grid.shape[-1], axis=-1)


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
    any stack whose axis before the grid axes broadcasts against S.  One
    build makes the kernels of every exponent as a stack, and each row of
    it, the FFT over it and the sums act row by row, so every row is
    bitwise the single-exponent operator's.
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
        exponent: one stacked kernel build and one FFT over the stack per
        distinct axis, then one broadcast sum over the axes."""
        ndim = self.grid.ndim
        symbol = np.zeros(())
        axis_symbols = {}  # one kernel stack per distinct (points, spacing)
        for axis in range(ndim):
            m = self.grid.shape[axis]
            d = self.grid.spacings[axis]
            if (m, d) not in axis_symbols:
                h = self.cutoff_steps * d
                n_tails = [self.n_tail or default_tail_nodes(p, h, m) for p in exponents]
                kernels, fars = _axis_kernels(m, d, exponents, self.cutoff_steps, n_tails)
                axis_symbols[m, d] = _axis_symbols(kernels, fars)
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
