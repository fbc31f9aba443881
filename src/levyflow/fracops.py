"""Fractional Laplacian on periodic grids, and symbols as Fourier multipliers.

A symbol ``psi`` (``symbols.StableSymbol`` or ``TripleSymbol``) is the
operator ``psi(D)``: on a periodic grid it multiplies each Fourier mode
``e^{i(xi, x)}`` by ``psi(xi)``.  ``symbol_multiplier`` evaluates any
symbol on the grid's FFT lattice and ``grids.fourier_multiply`` applies such
a multiplier to a real field or stack of fields; every Fourier multiplier
here goes through that pair.

The production operator is the splitting scheme: a singular second-difference
part with coefficient ``c / ((2 - p) h^p)`` plus a quadrature of the integral
tail, wrapped periodically (Huang & Oberman, SIAM J. Numer. Anal. 52, 2014).
The wrapped tail is summed exactly, in closed form through the Hurwitz zeta,
so the operator has no truncation radius.  Its kernel is circulant, so the
operator is applied and inverted as a Fourier multiplier made of the kernel's
own eigenvalues.  Everything it produces approximates the *generator*
``-(-Laplace)^{p/2}`` (negative semidefinite); the spectral oracle applies
the exact multiplier ``-psi`` of the stable symbol ``psi(xi) = |xi|^p`` and
serves as ground truth in the acceptance comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ExponentOutOfRange
from .grids import Grid, fourier_multiply
from .symbols import StableSymbol

# Euler-Maclaurin for the Hurwitz zeta: this many leading terms summed
# directly, then the corrections with the Bernoulli numbers B_2 .. B_16,
# kept as B_2j / (2j)!
_ZETA_HEAD = 4
_BERNOULLI = tuple(b / math.factorial(2 * j) for j, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510), start=1))


def frac_constant(p: float) -> float:
    """``|c_{1,p}| = 2^p Gamma((1+p)/2) / (sqrt(pi) |Gamma(-p/2)|)``, the
    constant of the 1D operator.

    Continuous in p on (0, 2); ``frac_constant(p) / (2 - p) -> 1`` as
    p -> 2, which makes the singular stencil reproduce the classical
    3-point Laplacian weight in that limit.
    """
    return 2.0**p * math.gamma((1.0 + p) / 2.0) / (math.sqrt(math.pi) * abs(math.gamma(-p / 2.0)))


def _expm1_ratio(s: np.ndarray, logs) -> np.ndarray:
    """``(x^-s - 1) / s`` from ``logs = log x``, elementwise, with its limit
    ``-log x`` at s = 0 and no loss of digits near it."""
    z = -s * logs
    out = np.negative(np.broadcast_to(logs, z.shape))
    return np.divide(np.expm1(z, out=z), s, out=out, where=s != 0.0)


@lru_cache(maxsize=32)
def _zeta_nodes(axis_points: int):
    """(x, logs, powers) for the tail classes of an M-point axis, read-only:
    ``logs`` holds ``log(k + a)`` for k = 0.._ZETA_HEAD at the arguments
    ``a = q / M``, q = 1..M+2, flat in (k, q) order, and then ``log 2`` for
    node 1's half-segment, so one ``_expm1_ratio`` pass serves both;
    ``x = _ZETA_HEAD + a``, and ``powers[j] = x^(-2j)`` for the
    Euler-Maclaurin corrections.  Cached because every macro step rebuilds
    its operator on the same ones."""
    a = np.arange(1, axis_points + 3) / axis_points
    x = np.arange(_ZETA_HEAD + 1)[:, None] + a
    logs = np.append(np.log(x), math.log(2.0))
    powers = x[-1] ** -(2.0 * np.arange(len(_BERNOULLI)))[:, None]
    for array in (x, logs, powers):
        array.flags.writeable = False
    return x[-1], logs, powers


def _bernoulli_terms(p: float) -> list:
    """The Euler-Maclaurin coefficients ``B_2j / (2j)! (s+1)..(s+2j-2)`` of
    ``zeta(s, a) / s``, s = p - 1, for j = 1..8."""
    s, rising, terms = p - 1.0, 1.0, []
    for j, b in enumerate(_BERNOULLI, start=1):
        terms.append(b * rising)
        rising *= (s + (2 * j - 1)) * (s + 2 * j)
    return terms


def _axis_kernels(axis_points: int, spacing: float, exponents: list) -> np.ndarray:
    """Periodic difference kernels of the 1D operator along one axis, one
    row per exponent: a ``(P, M)`` stack with ``kernels[:, 0] = 0`` such
    that row r is the operator

        (A f)[k] = sum_o kernels[r, o] * (f[(k + o) % M] - f[k]).

    The singular part is the second difference at +-h scaled by ``c /
    ((2-p) h^p)``.  The tail uses product-trapezoid weights on the nodes
    i h, i >= 1: the increment is interpolated linearly between nodes and
    integrated against ``c y^(-1-p)`` exactly, so the quadrature stays
    accurate near the singular cutoff.  With ``Phi(y) = y^(1-p) / (p
    (p-1))``, whose second derivative is y^(-1-p), node i >= 2 weighs ``c
    h^-p (Phi(i+1) - 2 Phi(i) + Phi(i-1))``, and node 1, which keeps only
    its right half-segment, ``c h^-p (Phi(2) - Phi(1) - Phi'(1))``.

    Node i lands on offset i mod M and its mirror on -i mod M, which
    realises the integral tail on the torus.  Every node is summed: the
    nodes jM + r, j >= 0, of each class r = 2..M+1 add up in closed form,
    ``sum_j Phi(jM + r) = M^(1-p) zeta(p-1, r/M) / (p (p-1))`` with the
    Hurwitz zeta, here by Euler-Maclaurin.  Only second differences in r/M
    enter, on equally spaced arguments, so the parts of zeta constant or
    linear in its argument are dropped; written with ``_expm1_ratio``, the
    rest is one formula for every p, p = 1 (where Phi = -log y) included.
    All of it is scaled by p, and ``c / p`` stays finite as p -> 0.

    Each step acts on each row on its own (the sums run over the head
    terms and the corrections, not over the stack), and the per-exponent
    constants are Python floats, so each row is bitwise the single-exponent
    build.
    """
    m = axis_points
    p = np.array(exponents, dtype=float)[:, None]
    s = p - 1.0
    x, logs, powers = _zeta_nodes(m)
    # the Euler-Maclaurin corrections first, so that their (P, 8, M+2)
    # products and the expm1 pass are never held at once
    terms = np.array([_bernoulli_terms(q) for q in exponents])[:, :, None]
    corrections = (terms * powers).sum(axis=1)
    # p zeta(s, a) / (s p), less its parts constant and linear in a; the
    # last column of the expm1 pass is node 1's half-segment term
    ratios = _expm1_ratio(s, logs)
    half = ratios[:, -1]
    e = ratios[:, :-1].reshape(len(exponents), _ZETA_HEAD + 1, m + 2)
    zeta = e[:, :-1].sum(axis=1)
    zeta += (x / (s - 1.0) + 0.5) * e[:, -1]
    zeta += np.exp(-p * logs[-(m + 3):-1]) * corrections  # the logs of x, before log 2
    # the second difference of class r = 2..M+1 lands on offset r mod M
    kernels = np.empty((len(exponents), m))
    kernels[:, 2:] = zeta[:, 2:m] - 2.0 * zeta[:, 1 : m - 1] + zeta[:, : m - 2]
    kernels[:, :2] = zeta[:, m:] - 2.0 * zeta[:, m - 1 : -1] + zeta[:, m - 2 : -2]
    kernels *= np.array([m ** (1.0 - q) for q in exponents])[:, None]
    # node 1's half-segment and the singular part, both at offset 1
    kernels[:, 1] += 1.0 + half + (p / (2.0 - p))[:, 0]
    kernels *= np.array([frac_constant(q) / q * spacing**-q for q in exponents])[:, None]
    # add each offset's mirror; offsets that wrap onto the centre contribute nothing
    kernels[:, 1:] = kernels[:, 1:] + kernels[:, :0:-1]
    kernels[:, 0] = 0.0
    return kernels


def _axis_symbols(kernels: np.ndarray) -> np.ndarray:
    """Eigenvalues of circulant 1D operators on the FFT modes 0..M-1, one
    row per kernel of the ``(P, M)`` stack ``kernels``.

    Each kernel is symmetric, so its DFT is real: mode k has eigenvalue
    ``Re FFT(kernel)_k - sum(kernel)``.  The FFT and the sum act on each
    row on its own, so a row's bits do not depend on the stack.
    """
    lam = np.fft.fft(kernels, axis=-1).real - kernels.sum(axis=-1, keepdims=True)
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


def symbol_multiplier(grid: Grid, spec) -> np.ndarray:
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


@dataclass
class FracLapOperator:
    """``-(-Laplace)^{p/2}`` on a periodic grid, diagonal in Fourier space.

    In 2D the operator is the sum of the two per-axis 1D operators
    (dimension splitting); the isotropic 2D integral is intentionally not
    used, matching the per-axis update scheme of the macro solver.  Each
    per-axis kernel splits at one grid step and sums its tail over every
    period of the torus in closed form, so the operator depends on nothing
    but the grid and the exponent.  The kernel is circulant, so the build
    stores the operator's real eigenvalues on the half FFT lattice of
    ``symbol_multiplier``: applying it and solving ``(I - shift A) x = b``
    are each one ``fourier_multiply``.

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
    _symbol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        exponents = np.asarray(self.exponent, dtype=float)
        if not all(0.0 < p < 2.0 for p in exponents.ravel().tolist()):
            raise ExponentOutOfRange(f"exponent must lie in (0,2), got {self.exponent}")
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
                axis_symbols[m, d] = _axis_symbols(_axis_kernels(m, d, exponents))
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


def spectral_oracle(grid: Grid, p, f: np.ndarray) -> np.ndarray:
    """The exact generator ``-|xi|^p`` (0 at the zero mode) applied as a
    Fourier multiplier: ``-psi(D) f`` for the stable symbol ``psi(xi) =
    |xi|^p``.  Ground truth for the difference scheme.

    ``f`` is an array stack whose trailing axes are the grid.  ``p`` is a
    scalar or a sequence of P exponents in (0, 2); a sequence gives the
    multiplier a leading axis of one row per exponent, which broadcasts
    against the stack's axis just before the grid axes, so a ``(K, P,
    *grid.shape)`` or ``(K, 1, *grid.shape)`` stack gets exponent ``p[j]``
    in row ``j``.  Each row is its own symbol evaluation, so every row is
    bitwise the single-exponent result.
    """
    exponents = np.asarray(p, dtype=float)
    rows = [-symbol_multiplier(grid, StableSymbol(q, dim=grid.ndim)).real
            for q in exponents.ravel().tolist()]
    mult = np.array(rows).reshape(exponents.shape + rows[0].shape)
    return fourier_multiply(grid, f, mult)
