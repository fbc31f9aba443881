"""Negative definite functions of Levy processes and their quadruples.

Conventions used throughout the package:

* the characteristic function of the process at time t is
  ``phi_t(xi) = exp(-t * psi(xi))``, so every symbol ``psi`` here has
  nonnegative real part and the generator of the semigroup is ``-psi(D)``;
* a quadruple ``(a, b, Q, nu)`` evaluates as

  ``psi(xi) = a + i(b, xi) + (xi, Q xi)/2
            + integral_{y != 0} (1 - e^{i(xi,y)} + i(xi,y)/(1+|y|^2)) nu(dy)``;

* every drift + diffusion + compound Poisson symbol is one
  ``TripleSymbol``, and every Bernstein function used for subordination is
  one ``AffinePowerBernstein`` ``c0 + c1 * lam**alpha``;
* stable symbols store the *spectral* exponent ``p`` in (0, 2), i.e.
  ``psi(xi) = scale * |xi|**p``.  Callers working with a fractional power
  ``alpha`` of the (negative) Laplacian should pass ``p = 2 * alpha``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyGrid,
    ExponentOutOfRange,
    NotRealValued,
    UnsupportedMeasure,
)

_REAL_TOL = 1e-12


# ---------------------------------------------------------------------------
# adaptive Gauss-Legendre quadrature (used only by density-type measures)
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _gl_panel(f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.sum(_GL_WEIGHTS * f(mid + half * _GL_NODES)))


def adaptive_gauss_legendre(f, a, b, rel_tol=1e-8, abs_tol=1e-13, max_depth=40):
    """Adaptive Gauss-Legendre integration of a real vectorized integrand."""

    def recurse(lo, hi, whole, depth, tol):
        mid = 0.5 * (lo + hi)
        left = _gl_panel(f, lo, mid)
        right = _gl_panel(f, mid, hi)
        err = abs(left + right - whole)
        if depth >= max_depth or err <= tol:
            return left + right
        return recurse(lo, mid, left, depth + 1, 0.5 * tol) + recurse(
            mid, hi, right, depth + 1, 0.5 * tol
        )

    whole = _gl_panel(f, a, b)
    tol = max(abs_tol, rel_tol * abs(whole))
    return recurse(a, b, whole, 0, tol)


def _oscillatory_tail(xi, power, y0, n_terms=6):
    """``integral_{y0}^{inf} exp(i xi y) y**(-power) dy`` by repeated parts.

    Requires ``|xi| * y0`` well above 1; accurate to ~1e-10 for
    ``|xi| * y0 >= 40`` and ``power`` in (1, 3).
    """
    # repeated parts give  -phase * sum_k rising(power, k) y0^(-power-k) / (i xi)^(k+1);
    # the alternation from unrolling cancels against the derivative signs
    total = 0.0 + 0.0j
    deriv = y0 ** (-power)  # |g^(k)(y0)|, updated in the loop
    phase = cmath.exp(1j * xi * y0)
    for k in range(n_terms):
        total += -phase * deriv / (1j * xi) ** (k + 1)
        deriv *= (power + k) / y0
    return total


# ---------------------------------------------------------------------------
# jump laws for compound Poisson parts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteJumpLaw:
    """Probability law on finitely many jump vectors."""

    points: tuple
    probs: tuple

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[0] == 1 and pts.shape[1] > 1 and np.ndim(self.points) == 1:
            pts = pts.T  # a flat list means scalar jumps
        pr = np.asarray(self.probs, dtype=float)
        if pts.shape[0] != pr.shape[0]:
            raise DimensionMismatch("one probability per jump point required")
        if np.any(pr < 0) or abs(pr.sum() - 1.0) > 1e-12:
            raise UnsupportedMeasure("jump probabilities must be a distribution")
        object.__setattr__(self, "points", tuple(map(tuple, pts)))
        object.__setattr__(self, "probs", tuple(pr))

    @property
    def dim(self):
        return len(self.points[0])

    def char_fn_many(self, points):
        pts = np.asarray(self.points)
        pr = np.asarray(self.probs)
        phases = points @ pts.T  # (n, n_atoms)
        return np.exp(1j * phases) @ pr


@dataclass(frozen=True)
class GaussianJumpLaw:
    """Isotropic Gaussian jump law with characteristic function
    ``exp(i(xi, mean) - sd^2 |xi|^2 / 2)``."""

    mean: tuple
    sd: float

    def __post_init__(self):
        object.__setattr__(self, "mean", tuple(float(v) for v in np.atleast_1d(self.mean)))
        if self.sd < 0:
            raise UnsupportedMeasure("sd must be nonnegative")

    @property
    def dim(self):
        return len(self.mean)

    def char_fn_many(self, points):
        m = np.asarray(self.mean)
        return np.exp(1j * (points @ m) - 0.5 * self.sd**2 * np.sum(points * points, axis=1))


# ---------------------------------------------------------------------------
# Levy measures
# ---------------------------------------------------------------------------


class LevyMeasureSpec:
    """Base class; subclasses provide the compensated jump integral

    ``I(xi) = integral (1 - e^{i(xi,y)} + i(xi,y)/(1+|y|^2)) nu(dy)``.
    """

    def compensated_integral(self, xi) -> complex:
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroMeasure(LevyMeasureSpec):
    def compensated_integral(self, xi):
        return 0.0 + 0.0j


@dataclass(frozen=True)
class AtomMeasure(LevyMeasureSpec):
    """Finite measure carried by atoms away from the origin."""

    points: tuple
    weights: tuple

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[0] == 1 and np.ndim(self.points) == 1:
            pts = pts.T
        w = np.asarray(self.weights, dtype=float)
        if pts.shape[0] != w.shape[0]:
            raise DimensionMismatch("one weight per atom required")
        if np.any(w < 0):
            raise UnsupportedMeasure("atom weights must be nonnegative")
        if np.any(np.linalg.norm(pts, axis=1) == 0):
            raise UnsupportedMeasure("no atom at the origin allowed")
        object.__setattr__(self, "points", tuple(map(tuple, pts)))
        object.__setattr__(self, "weights", tuple(w))

    def compensated_integral(self, xi):
        xi = np.asarray(xi, dtype=float)
        total = 0.0 + 0.0j
        for y, w in zip(self.points, self.weights):
            y = np.asarray(y)
            dot = float(xi @ y)
            total += w * (1.0 - cmath.exp(1j * dot) + 1j * dot / (1.0 + float(y @ y)))
        return total


@dataclass(frozen=True)
class StableTailMeasure(LevyMeasureSpec):
    """Power-law density ``scale * |y|**(-1-alpha)`` on the line.

    ``side="symmetric"`` puts the density on both half lines (alpha in
    (0, 2)); ``side="positive"`` is the one-sided subordinator-type tail
    and is restricted to alpha in (0, 1), where the jump integral is
    evaluated without the compensator (small jumps are then absolutely
    integrable) and has the closed form ``scale*Gamma(1-alpha)/alpha *
    (-i xi)^alpha`` when ``scale = alpha / Gamma(1 - alpha)``.
    """

    alpha: float
    scale: float = 1.0
    side: str = "symmetric"

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ExponentOutOfRange("stable tail exponent must lie in (0,2)")
        if self.side not in ("symmetric", "positive"):
            raise UnsupportedMeasure(f"unknown side {self.side!r}")
        if self.side == "positive" and self.alpha >= 1.0:
            raise UnsupportedMeasure("one-sided tails require alpha < 1")
        if self.scale < 0:
            raise UnsupportedMeasure("scale must be nonnegative")

    # -- helpers -----------------------------------------------------------

    def _inner_series(self, xi, eps, trig):
        """integral_0^eps of (1 - e^{i xi y}) y^{-1-a}, or of (1 - cos) if
        trig, via the power series; needs |xi|*eps <= 0.5."""
        a = self.alpha
        total = 0.0 + 0.0j
        if trig:
            term = 1.0
            for k in range(1, 30):
                term *= -(xi * eps) ** 2 / ((2 * k - 1) * (2 * k))
                total += -term * eps ** (-a) / (2 * k - a)
        else:
            term = 1.0 + 0.0j
            for k in range(1, 40):
                term *= 1j * xi * eps / k
                total += -term * eps ** (-a) / (k - a)
        return total

    def _outer(self, xi, trig):
        """integral_1^inf of (1 - e^{i xi y}) y^{-1-a} (or 1 - cos)."""
        a = self.alpha
        y_far = max(10.0, 60.0 / abs(xi))
        re = adaptive_gauss_legendre(lambda y: np.cos(xi * y) * y ** (-1.0 - a), 1.0, y_far)
        tail = _oscillatory_tail(xi, 1.0 + a, y_far)
        osc = re + tail.real
        if trig:
            return 1.0 / a - osc
        im = adaptive_gauss_legendre(lambda y: np.sin(xi * y) * y ** (-1.0 - a), 1.0, y_far)
        return 1.0 / a - (osc + 1j * (im + tail.imag))

    def uncompensated_integral(self, xi) -> complex:
        """``integral (1 - e^{i xi y}) nu(dy)`` (both sides folded in)."""
        xi = float(np.atleast_1d(xi)[0])
        if xi == 0.0:
            return 0.0 + 0.0j
        a = self.alpha
        if self.side == "symmetric":
            # odd parts cancel; evaluate 2 * integral_0^inf (1 - cos)
            x = abs(xi)
            eps = min(1.0, 0.5 / x)
            inner = self._inner_series(x, eps, trig=True)
            if eps < 1.0:
                inner += adaptive_gauss_legendre(
                    lambda y: (1.0 - np.cos(x * y)) * y ** (-1.0 - a), eps, 1.0
                )
            return 2.0 * self.scale * (inner + self._outer(x, trig=True))
        eps = min(1.0, 0.5 / abs(xi))
        inner = self._inner_series(xi, eps, trig=False)
        if eps < 1.0:
            inner += adaptive_gauss_legendre(
                lambda y: (1.0 - np.cos(xi * y)) * y ** (-1.0 - a), eps, 1.0
            ) - 1j * adaptive_gauss_legendre(
                lambda y: np.sin(xi * y) * y ** (-1.0 - a), eps, 1.0
            )
        return self.scale * (inner + self._outer(xi, trig=False))

    def compensated_integral(self, xi):
        xi = float(np.atleast_1d(xi)[0])
        if self.side == "symmetric":
            # the compensator is odd, so it integrates to zero here
            return self.uncompensated_integral(xi)
        # one-sided, alpha < 1: add i*xi * integral y^(-alpha)/(1+y^2) dy
        comp = math.pi / (2.0 * math.cos(math.pi * self.alpha / 2.0))
        return self.uncompensated_integral(xi) + 1j * xi * self.scale * comp


def subordinator_measure(alpha: float) -> StableTailMeasure:
    """Jump measure of the standard alpha-subordinator,
    ``alpha / Gamma(1-alpha) * y**(-1-alpha) dy`` on (0, inf)."""
    return StableTailMeasure(alpha, alpha / math.gamma(1.0 - alpha), side="positive")


def symmetric_stable_measure(p: float, scale: float = 1.0) -> StableTailMeasure:
    """Jump measure whose real symbol is ``scale * |xi|**p`` on the line.

    Uses ``integral_0^inf (1-cos u) u^{-1-p} du = pi / (2 Gamma(1+p) sin(pi p/2))``.
    """
    kp = math.pi / (2.0 * math.gamma(1.0 + p) * math.sin(math.pi * p / 2.0))
    return StableTailMeasure(p, scale / (2.0 * kp), side="symmetric")


# ---------------------------------------------------------------------------
# the quadruple
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevyQuadruple:
    """Quadruple ``(a, b, Q, nu)`` of a continuous negative definite function."""

    a: float
    b: tuple
    q_matrix: tuple
    nu: LevyMeasureSpec

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        q = np.atleast_2d(np.asarray(self.q_matrix, dtype=float))
        if self.a < 0:
            raise ExponentOutOfRange("killing constant must be nonnegative")
        if q.shape != (b.size, b.size):
            raise DimensionMismatch("Q must be d x d for drift of length d")
        if np.max(np.abs(q - q.T)) > 0:
            raise DimensionMismatch("Q must be symmetric")
        eigs = np.linalg.eigvalsh(0.5 * (q + q.T))
        if np.min(eigs) < -1e-12:
            raise ExponentOutOfRange("Q must be positive semidefinite")
        object.__setattr__(self, "b", tuple(b))
        object.__setattr__(self, "q_matrix", tuple(map(tuple, q)))

    @property
    def dim(self):
        return len(self.b)

    def evaluate(self, xi) -> complex:
        xi = np.asarray(xi, dtype=float)
        if xi.shape != (self.dim,):
            raise DimensionMismatch(f"expected xi of length {self.dim}")
        b = np.asarray(self.b)
        q = np.asarray(self.q_matrix)
        val = self.a + 1j * float(b @ xi) + 0.5 * float(xi @ q @ xi)
        return val + self.nu.compensated_integral(xi)


# ---------------------------------------------------------------------------
# Bernstein functions (outer functions for subordination)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffinePowerBernstein:
    """``lam -> c0 + c1 * lam**alpha`` with c0, c1 >= 0 and alpha in (0, 1].

    ``(0, 1, 1)`` is the identity and ``(0, 1, alpha)`` the pure power.
    """

    c0: float
    c1: float
    alpha: float

    def __post_init__(self):
        if self.c0 < 0 or self.c1 < 0:
            raise ExponentOutOfRange("affine coefficients must be nonnegative")
        if not 0.0 < self.alpha <= 1.0:
            raise ExponentOutOfRange("Bernstein power must lie in (0,1]")

    def __call__(self, lam):
        return self.c0 + self.c1 * np.power(np.asarray(lam, dtype=float), self.alpha)


# ---------------------------------------------------------------------------
# symbol specifications
# ---------------------------------------------------------------------------


class SymbolSpec:
    """Base class of parametric symbols; subclasses set ``d`` and implement
    ``evaluate_many`` on an (n, d) array of frequency points."""

    d: int

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def evaluate(self, xi) -> complex:
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        if xi.shape != (self.d,):
            raise DimensionMismatch(f"expected xi of length {self.d}, got {xi.shape}")
        return complex(self.evaluate_many(xi[None, :])[0])

    def quadruple(self) -> LevyQuadruple:
        raise UnsupportedMeasure(f"{type(self).__name__} has no explicit quadruple")


def _as_points(points, d):
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != d:
        raise DimensionMismatch(f"probe points must have shape (n, {d})")
    return pts


@dataclass(frozen=True)
class StableSymbol(SymbolSpec):
    """Rotation invariant stable symbol ``psi(xi) = scale * |xi|**p``.

    ``exponent`` is the spectral power p in (0, 2); the generator is
    ``-scale * (-Laplace)^{p/2}``.
    """

    exponent: float
    scale: float = 1.0
    dim: int = 1

    def __post_init__(self):
        if not 0.0 < self.exponent < 2.0:
            raise ExponentOutOfRange("spectral exponent must lie in (0,2)")
        if self.scale < 0:
            raise ExponentOutOfRange("scale must be nonnegative")

    @property
    def d(self):
        return self.dim

    def evaluate_many(self, points):
        pts = _as_points(points, self.d)
        r = np.sqrt(np.sum(pts * pts, axis=1))
        return np.power(r, self.exponent).astype(complex) * self.scale

    def quadruple(self):
        if self.dim != 1:
            raise UnsupportedMeasure("explicit stable quadruple implemented for d=1")
        return LevyQuadruple(
            0.0, (0.0,), ((0.0,),), symmetric_stable_measure(self.exponent, self.scale)
        )


@dataclass(frozen=True)
class TripleSymbol(SymbolSpec):
    """Levy-Khintchine symbol of drift, diffusion and compound Poisson jumps,

    ``psi(xi) = -i(b, xi) + (xi, Q xi)/2 + rate * (1 - phi_jumps(xi))``

    with ``phi_jumps`` the characteristic function of the jump law
    (``DiscreteJumpLaw`` or ``GaussianJumpLaw``).  Without jumps
    (``rate == 0``) the law is not needed.
    """

    drift: tuple
    q_matrix: tuple
    rate: float = 0.0
    jumps: object = None

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.drift, dtype=float))
        q = np.atleast_2d(np.asarray(self.q_matrix, dtype=float))
        LevyQuadruple(0.0, b, q, ZeroMeasure())  # validates b and Q
        if self.rate < 0:
            raise ExponentOutOfRange("rate must be nonnegative")
        if self.rate > 0 and self.jumps is None:
            raise UnsupportedMeasure("a positive rate needs a jump law")
        if self.jumps is not None and self.jumps.dim != b.size:
            raise DimensionMismatch("jump law and drift must have the same dimension")
        object.__setattr__(self, "drift", tuple(b))
        object.__setattr__(self, "q_matrix", tuple(map(tuple, q)))

    @property
    def d(self):
        return len(self.drift)

    def evaluate_many(self, points):
        pts = _as_points(points, self.d)
        b = np.asarray(self.drift)
        q = np.asarray(self.q_matrix)
        vals = -1j * (pts @ b) + 0.5 * np.sum((pts @ q) * pts, axis=1)
        if self.rate:
            vals = vals + self.rate * (1.0 - self.jumps.char_fn_many(pts))
        return vals

    def quadruple(self):
        """``(0, -b - rate * sum_j p_j y_j / (1 + |y_j|^2), Q, rate * p)``: the
        linear term carries -drift and cancels the compensator of each atom."""
        b = -np.asarray(self.drift)
        if not self.rate:
            return LevyQuadruple(0.0, tuple(b), self.q_matrix, ZeroMeasure())
        if not isinstance(self.jumps, DiscreteJumpLaw):
            raise UnsupportedMeasure("quadruple needs a discrete jump law")
        y = np.asarray(self.jumps.points)
        p = np.asarray(self.jumps.probs)
        b = b - self.rate * (p[:, None] * y / (1.0 + np.sum(y * y, axis=1))[:, None]).sum(axis=0)
        nu = AtomMeasure(self.jumps.points, tuple(self.rate * p))
        return LevyQuadruple(0.0, tuple(b), self.q_matrix, nu)


def _require_real(spec: SymbolSpec, where: str):
    pts = default_probe_points(spec.d, radius=8.0, per_axis=33)
    vals = spec.evaluate_many(pts)
    worst = float(np.max(np.abs(vals.imag)))
    if worst > _REAL_TOL:
        raise NotRealValued(f"{where}: symbol has imaginary part up to {worst:.3e}")
    if float(np.min(vals.real)) < -_REAL_TOL:
        raise NotRealValued(f"{where}: symbol is negative on the probe grid")


@dataclass(frozen=True)
class ComposedSymbol(SymbolSpec):
    """Subordinated symbol ``outer(inner(xi))`` for a Bernstein outer part."""

    outer: AffinePowerBernstein
    inner: SymbolSpec

    def __post_init__(self):
        _require_real(self.inner, "compose_symbols")

    @property
    def d(self):
        return self.inner.d

    def evaluate_many(self, points):
        vals = self.inner.evaluate_many(points)
        return self.outer(np.maximum(vals.real, 0.0)).astype(complex)


@dataclass(frozen=True)
class ScaledSymbol(SymbolSpec):
    """``factor * psi`` for a nonnegative factor (e.g. a bounded driver value)."""

    factor: float
    base: SymbolSpec

    def __post_init__(self):
        if self.factor < 0:
            raise ExponentOutOfRange("scaling factor must be nonnegative")

    @property
    def d(self):
        return self.base.d

    def evaluate_many(self, points):
        return self.factor * self.base.evaluate_many(points)


@dataclass(frozen=True)
class ShiftedSymbol(SymbolSpec):
    """Resolvent-type symbol ``(1 + psi_base(xi))**(s/2)`` for real bases.

    Carries killing constant 1: the value at xi = 0 is 1.
    """

    base: SymbolSpec
    order: float

    def __post_init__(self):
        if self.order <= 0:
            raise ExponentOutOfRange("order must be positive")
        _require_real(self.base, "shifted symbol")

    @property
    def d(self):
        return self.base.d

    def evaluate_many(self, points):
        vals = np.maximum(self.base.evaluate_many(points).real, 0.0)
        return np.power(1.0 + vals, 0.5 * self.order).astype(complex)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def compose_symbols(outer: AffinePowerBernstein, inner: SymbolSpec) -> SymbolSpec:
    """Compose a Bernstein function with a real nonnegative symbol.

    The identity composition returns the inner symbol unchanged.
    """
    if (outer.c0, outer.c1, outer.alpha) == (0, 1, 1):
        _require_real(inner, "compose_symbols")
        return inner
    return ComposedSymbol(outer, inner)


def driven_symbol(base: SymbolSpec, driver_value: float, order: float) -> ShiftedSymbol:
    """Snapshot of a driver-indexed symbol family:
    ``(1 + driver_value * psi_base(xi))**(order/2)``.

    ``driver_value`` is one sample of a bounded scalar process, so freezing
    it at two times and comparing the resulting multipliers is exactly what
    ``fracops.multiplier_lipschitz_check`` evaluates.
    """
    return ShiftedSymbol(ScaledSymbol(driver_value, base), order)


def growth_bound_constant(spec: SymbolSpec, probe_points) -> float:
    """``sup |psi(xi)| / (1 + |xi|^2)`` over the probe grid."""
    pts = _as_points(probe_points, spec.d)
    if pts.shape[0] == 0:
        raise EmptyGrid("probe grid is empty")
    vals = np.abs(spec.evaluate_many(pts))
    denom = 1.0 + np.sum(pts * pts, axis=1)
    return float(np.max(vals / denom))


def default_probe_points(d: int, radius: float = 10.0, per_axis: int = 101) -> np.ndarray:
    """Deterministic probe grid: a symmetric lattice of frequency points."""
    line = np.linspace(-radius, radius, per_axis)
    if d == 1:
        return line[:, None]
    if d == 2:
        gx, gy = np.meshgrid(line, line, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])
    raise DimensionMismatch("probe grids implemented for d in {1, 2}")


def generator_symbol_table():
    """The five named symbols used across the test suites.

    Names are stable identifiers: ``bm_drift``, ``poisson``,
    ``compound_poisson``, ``full_triple``, ``alpha_stable``.
    """
    unit_jump = DiscreteJumpLaw(points=(1.0,), probs=(1.0,))
    sym_jumps = DiscreteJumpLaw(points=(-1.0, 1.0), probs=(0.5, 0.5))
    return [
        ("bm_drift", TripleSymbol(drift=(1.0, -0.5), q_matrix=((1.0, 0.2), (0.2, 0.5)))),
        ("poisson", TripleSymbol(drift=(0.0,), q_matrix=((0.0,),), rate=2.0, jumps=unit_jump)),
        (
            "compound_poisson",
            TripleSymbol(drift=(0.0,), q_matrix=((0.0,),), rate=1.5, jumps=sym_jumps),
        ),
        (
            "full_triple",
            TripleSymbol(drift=(0.5,), q_matrix=((1.0,),), rate=1.0, jumps=sym_jumps),
        ),
        ("alpha_stable", StableSymbol(exponent=1.5, scale=1.0, dim=1)),
    ]
