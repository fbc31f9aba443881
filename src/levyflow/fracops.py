"""Discrete fractional Laplacian on periodic grids plus its spectral oracle.

The production operator is the splitting scheme: a singular second-difference
part with coefficient ``c / ((2 - p) h^p)`` plus a quadrature of the integral
tail, wrapped periodically (Huang & Oberman, SIAM J. Numer. Anal. 52, 2014).
The wrapped kernel is circulant, so the operator is applied and inverted as a
Fourier multiplier made of the kernel's own eigenvalues.  Everything it
produces approximates the *generator* ``-(-Laplace)^{p/2}`` (negative
semidefinite); the spectral oracle applies the exact Fourier multiplier
``-|xi|^p`` and serves as ground truth in the acceptance comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BetaOutOfRange, EmptyGrid, ExponentOutOfRange
from .grids import Grid, GridField, laplacian5, require_same_grid
from .symbols import SymbolSpec, _as_points

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
    mom0 = (a ** (-p) - b ** (-p)) / p
    if abs(p - 1.0) < 1e-12:
        mom1 = np.log(b / a)
    else:
        mom1 = (a ** (1.0 - p) - b ** (1.0 - p)) / (p - 1.0)
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


def _axis_symbol(kernel: np.ndarray, far: float) -> np.ndarray:
    """Eigenvalues of the circulant 1D operator on the FFT modes 0..M-1.

    The kernel is symmetric, so its DFT is real: mode k has eigenvalue
    ``Re FFT(kernel)_k - sum(kernel) - far * [k != 0]`` (the mean of a
    nonzero mode vanishes).
    """
    lam = np.fft.fft(kernel).real - kernel.sum() - far
    lam[0] = 0.0
    return lam


@dataclass
class FracLapOperator:
    """``-(-Laplace)^{p/2}`` on a periodic grid, diagonal in Fourier space.

    In 2D the operator is the sum of the two per-axis 1D operators
    (dimension splitting); the isotropic 2D integral is intentionally not
    used, matching the per-axis update scheme of the macro solver.  Each
    per-axis kernel is circulant, so the build stores the operator's real
    eigenvalues on the ``rfftn`` grid: applying it and solving
    ``(I - shift A) x = b`` are each one FFT pair.
    """

    grid: Grid
    exponent: float
    cutoff_steps: int = 1
    n_tail: int | None = None
    _symbol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.exponent < 2.0:
            raise ExponentOutOfRange(f"exponent must lie in (0,2), got {self.exponent}")
        if self.cutoff_steps < 1:
            raise ExponentOutOfRange("cutoff must be at least one grid step")
        ndim = self.grid.ndim
        self._symbol = np.zeros(())
        for axis in range(ndim):
            m = self.grid.shape[axis]
            if 2 * self.cutoff_steps >= m:
                raise ExponentOutOfRange("cutoff radius too large for the grid")
            d = self.grid.spacings[axis]
            h = self.cutoff_steps * d
            n_tail = self.n_tail or default_tail_nodes(self.exponent, h, m)
            lam = _axis_symbol(*_axis_kernel(m, d, self.exponent, self.cutoff_steps, n_tail))
            if axis == ndim - 1:  # rfftn keeps the nonnegative half of the last axis
                lam = lam[: m // 2 + 1]
            shape = [1] * ndim
            shape[axis] = lam.size
            self._symbol = self._symbol + lam.reshape(shape)

    @property
    def cutoff_radius(self) -> float:
        return self.cutoff_steps * self.grid.spacings[0]

    def _multiply(self, values: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
        axes = tuple(range(self.grid.ndim))
        spectrum = np.fft.rfftn(values, axes=axes)
        return np.fft.irfftn(multiplier * spectrum, s=values.shape, axes=axes)

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        return self._multiply(values, self._symbol)

    def solve_shifted(self, b: np.ndarray, shift: float) -> np.ndarray:
        """Exact solution of ``(I - shift A) x = b``.

        ``A`` is negative semidefinite, so any ``shift >= 0`` gives a
        nonsingular system.  ``shift == 0`` returns a copy of ``b``, bit
        for bit.
        """
        if shift == 0:
            return b.copy()
        return self._multiply(b, 1.0 / (1.0 - shift * self._symbol))

    def apply(self, f: GridField) -> GridField:
        require_same_grid(f.grid, self.grid)
        return GridField(self.grid, self.apply_values(f.values))


def apply_frac_laplacian(op: FracLapOperator, f: GridField) -> GridField:
    return op.apply(f)


def spectral_oracle(grid: Grid, p: float, f: GridField) -> GridField:
    """Exact Fourier-multiplier application of ``-|xi|^p`` (0 at the zero
    mode).  Ground truth for the difference scheme; p = 2 reproduces the
    spectral Laplacian."""
    if not 0.0 < p <= 2.0:
        raise ExponentOutOfRange(f"exponent must lie in (0,2], got {p}")
    require_same_grid(f.grid, grid)
    freqs = [
        2.0 * math.pi * np.fft.fftfreq(m, d)
        for m, d in zip(grid.shape, grid.spacings)
    ]
    if grid.ndim == 1:
        ksq = freqs[0] ** 2
    else:
        ksq = freqs[0][:, None] ** 2 + freqs[1][None, :] ** 2
    mult = -np.power(ksq, p / 2.0, where=ksq > 0, out=np.zeros_like(ksq))
    out = np.fft.ifftn(mult * np.fft.fftn(f.values)).real
    return GridField(grid, out)


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
    """Sup of ``(1+b1 psi)^{r/2} |(1+b1 psi)^{-s/2} - (1+b2 psi)^{-s/2}|``
    per unit of ``|b1 - b2|``, over the probe grid.

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
    psi = base.evaluate_many(pts)
    if float(np.max(np.abs(psi.imag))) > 1e-10:
        raise BetaOutOfRange("base symbol must be real valued")
    psi = np.maximum(psi.real, 0.0)

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
        weight = np.power(1.0 + b1 * psi, 0.5 * r)
        diff = np.abs(
            np.power(1.0 + b1 * psi, -0.5 * s) - np.power(1.0 + b2 * psi, -0.5 * s)
        )
        sup_m = float(np.max(weight * diff))
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
    sup / |a1 - a2| per pair.
    """
    radii = np.asarray(probe_radii, dtype=float)
    if radii.size == 0:
        raise EmptyGrid("probe grid is empty")
    if np.any(radii <= 0):
        raise ExponentOutOfRange("probe radii must be positive (0 is singular)")
    lo, hi = window
    entries = []
    for a1, a2 in exponent_pairs:
        for a in (a1, a2):
            if not lo < a < hi:
                raise ExponentOutOfRange(f"exponent {a} outside ({lo}, {hi})")
        if a1 == a2:
            entries.append(PairRatio(a1, a2, 0.0, 0.0))
            continue
        weight = np.power(1.0 + radii * radii, 0.5 * weight_exponent)
        diff = np.abs(np.power(radii, -2.0 * a1) - np.power(radii, -2.0 * a2))
        sup_m = float(np.max(weight * diff))
        entries.append(PairRatio(a1, a2, sup_m, sup_m / abs(a1 - a2)))
    ratios = [e.ratio for e in entries]
    return ResolventHolderReport(
        tuple(entries),
        max(ratios) if ratios else 0.0,
        all(np.isfinite(r) for r in ratios),
    )
