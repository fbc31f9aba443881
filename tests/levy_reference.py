"""Reference route for the symbols: Levy-Khintchine quadruples, jump
measures and their quadrature.

A quadruple ``(a, b, Q, nu)`` evaluates as

``psi(xi) = a + i(b, xi) + (xi, Q xi)/2
          + integral_{y != 0} (1 - e^{i(xi,y)} + i(xi,y)/(1+|y|^2)) nu(dy)``,

a route independent of the symbols' ``evaluate_many``: the stable symbol is
reached through its jump measure and adaptive quadrature, a triple symbol
through its atoms and the compensator.  ``tests/test_symbols.py`` checks
that both routes agree.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from levyflow.errors import DimensionMismatch, ExponentOutOfRange, UnsupportedMeasure
from levyflow.symbols import StableSymbol, TripleSymbol

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
    """Symmetric power-law density ``scale * |y|**(-1-alpha)`` on the line,
    alpha in (0, 2).  Its compensator is odd and integrates to zero."""

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ExponentOutOfRange("stable tail exponent must lie in (0,2)")
        if self.scale < 0:
            raise UnsupportedMeasure("scale must be nonnegative")

    def _inner_series(self, x, eps):
        """integral_0^eps of (1 - cos x y) y^{-1-a} via the power series;
        needs x*eps <= 0.5."""
        a = self.alpha
        total = 0.0
        term = 1.0
        for k in range(1, 30):
            term *= -(x * eps) ** 2 / ((2 * k - 1) * (2 * k))
            total += -term * eps ** (-a) / (2 * k - a)
        return total

    def _outer(self, x):
        """integral_1^inf of (1 - cos x y) y^{-1-a}."""
        a = self.alpha
        y_far = max(10.0, 60.0 / x)
        re = adaptive_gauss_legendre(lambda y: np.cos(x * y) * y ** (-1.0 - a), 1.0, y_far)
        tail = _oscillatory_tail(x, 1.0 + a, y_far)
        return 1.0 / a - (re + tail.real)

    def compensated_integral(self, xi):
        """``2 * scale * integral_0^inf (1 - cos |xi| y) y^{-1-a} dy``: the
        odd parts of both half lines cancel."""
        x = abs(float(np.atleast_1d(xi)[0]))
        if x == 0.0:
            return 0.0 + 0.0j
        a = self.alpha
        eps = min(1.0, 0.5 / x)
        inner = self._inner_series(x, eps)
        if eps < 1.0:
            inner += adaptive_gauss_legendre(
                lambda y: (1.0 - np.cos(x * y)) * y ** (-1.0 - a), eps, 1.0
            )
        return complex(2.0 * self.scale * (inner + self._outer(x)))


def symmetric_stable_measure(p: float, scale: float = 1.0) -> StableTailMeasure:
    """Jump measure whose real symbol is ``scale * |xi|**p`` on the line.

    Uses ``integral_0^inf (1-cos u) u^{-1-p} du = pi / (2 Gamma(1+p) sin(pi p/2))``.
    """
    kp = math.pi / (2.0 * math.gamma(1.0 + p) * math.sin(math.pi * p / 2.0))
    return StableTailMeasure(p, scale / (2.0 * kp))


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
        if np.min(np.linalg.eigvalsh(q)) < -1e-12:
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


def quadruple(spec) -> LevyQuadruple:
    """The quadruple of a stable symbol on the line or of a triple symbol.

    A triple symbol's is ``(0, -b - rate * sum_j p_j y_j / (1 + |y_j|^2), Q,
    rate * p)``: the linear term carries -drift and cancels the compensator
    of each atom.
    """
    if isinstance(spec, StableSymbol) and spec.dim == 1:
        return LevyQuadruple(
            0.0, (0.0,), ((0.0,),), symmetric_stable_measure(spec.exponent, spec.scale)
        )
    if not isinstance(spec, TripleSymbol):
        raise UnsupportedMeasure(f"{type(spec).__name__} has no explicit quadruple")
    b = -np.asarray(spec.drift)
    if not spec.rate:
        return LevyQuadruple(0.0, tuple(b), spec.q_matrix, ZeroMeasure())
    y = np.asarray(spec.jumps.points)
    p = np.asarray(spec.jumps.probs)
    b = b - spec.rate * (p[:, None] * y / (1.0 + np.sum(y * y, axis=1))[:, None]).sum(axis=0)
    nu = AtomMeasure(spec.jumps.points, tuple(spec.rate * p))
    return LevyQuadruple(0.0, tuple(b), spec.q_matrix, nu)
