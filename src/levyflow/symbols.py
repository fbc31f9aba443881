"""Negative definite functions of Levy processes: the symbols that the
pseudo-differential operators in ``fracops`` are built from.

Conventions used throughout the package:

* the characteristic function of the process at time t is
  ``phi_t(xi) = exp(-t * psi(xi))``, so every symbol ``psi`` here has
  nonnegative real part and the generator of the semigroup is ``-psi(D)``;
* every drift + diffusion + compound Poisson symbol is one
  ``TripleSymbol``; each symbol class has the dimension ``d`` and
  ``evaluate_many``, its values on an (n, d) array of frequency points;
* stable symbols store the *spectral* exponent ``p`` in (0, 2), i.e.
  ``psi(xi) = scale * |xi|**p``.  Callers working with a fractional power
  ``alpha`` of the (negative) Laplacian should pass ``p = 2 * alpha``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyGrid,
    ExponentOutOfRange,
    UnsupportedMeasure,
)


# ---------------------------------------------------------------------------
# jump laws for compound Poisson parts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteJumpLaw:
    """Probability law on n jump vectors: (n, d) ``points``, n ``probs``."""

    points: tuple
    probs: tuple

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
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


# ---------------------------------------------------------------------------
# symbol specifications
# ---------------------------------------------------------------------------


def _as_points(points, d):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise DimensionMismatch(f"probe points must have shape (n, {d})")
    return pts


@dataclass(frozen=True)
class StableSymbol:
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


@dataclass(frozen=True)
class TripleSymbol:
    """Levy-Khintchine symbol of drift, diffusion and compound Poisson jumps,

    ``psi(xi) = -i(b, xi) + (xi, Q xi)/2 + rate * (1 - phi_jumps(xi))``

    with ``phi_jumps`` the characteristic function of the jump law, a
    ``DiscreteJumpLaw``.  Without jumps (``rate == 0``) the law is not
    needed.  Q must be a symmetric positive semidefinite d x d matrix for a
    drift of length d.
    """

    drift: tuple
    q_matrix: tuple
    rate: float = 0.0
    jumps: object = None

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.drift, dtype=float))
        q = np.atleast_2d(np.asarray(self.q_matrix, dtype=float))
        if q.shape != (b.size, b.size):
            raise DimensionMismatch("Q must be d x d for drift of length d")
        if np.max(np.abs(q - q.T)) > 0:
            raise DimensionMismatch("Q must be symmetric")
        if np.min(np.linalg.eigvalsh(q)) < -1e-12:
            raise ExponentOutOfRange("Q must be positive semidefinite")
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


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def growth_bound_constant(spec, probe_points) -> float:
    """``sup |psi(xi)| / (1 + |xi|^2)`` over the probe grid."""
    pts = _as_points(probe_points, spec.d)
    if pts.shape[0] == 0:
        raise EmptyGrid("probe grid is empty")
    vals = np.abs(spec.evaluate_many(pts))
    denom = 1.0 + np.sum(pts * pts, axis=1)
    return float(np.max(vals / denom))


def generator_symbol_table():
    """The five named symbols used across the test suites.

    Names are stable identifiers: ``bm_drift``, ``poisson``,
    ``compound_poisson``, ``full_triple``, ``alpha_stable``.
    """
    unit_jump = DiscreteJumpLaw(points=((1.0,),), probs=(1.0,))
    sym_jumps = DiscreteJumpLaw(points=((-1.0,), (1.0,)), probs=(0.5, 0.5))
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
