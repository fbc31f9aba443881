"""Uniform periodic grids and the scalar fields living on them.

Axis convention for 2D arrays: ``values[k, j]`` holds the value at node
``(x_k, y_j)`` with ``x_k = k * dx`` and ``y_j = j * dy`` (axis 0 is x,
axis 1 is y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import GridMismatch


# The grid's lookup tables depend on its shape alone, so they are cached by
# shape, shared by equal grids, and read-only.  Gather through a cached
# table with ``values[table]``: ``values.take(table)`` copies a read-only
# index array on every call (123 against 24 us for the neighbour table of a
# 16-sample 21x21 stack on a 2-vCPU x86-64 host, NumPy 2.4).


@lru_cache(maxsize=4)
def _neighbour_table(shape: tuple, lead: tuple) -> np.ndarray:
    """``Grid.neighbour_table(lead)`` for a grid of ``shape``.  Few stack
    shapes are kept: a run uses its stack's, and a failed stack's reruns
    that of a sample alone."""
    n = math.prod(shape)
    if lead:
        starts = np.arange(0, math.prod(lead) * n, n).reshape(lead + (1,))
        table = _neighbour_table(shape, ())[(slice(None),) + (None,) * len(lead)] + starts
    else:
        nodes = np.arange(n).reshape(shape)
        table = np.stack([np.roll(nodes, shift, axis).ravel()
                          for axis in range(len(shape)) for shift in (-1, 1)])
    table.flags.writeable = False
    return table


@lru_cache(maxsize=32)
def _axis_table(m: int) -> np.ndarray:
    """Row 0: the node indices 0..m-1 of an m-point axis; row 1: the
    successor ``(k + 1) mod m`` of each."""
    nodes = np.arange(m)
    table = np.stack([nodes, np.roll(nodes, -1)])
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid in 1 or 2 dimensions.

    Nodes along an axis of length L with M partitions sit at k*L/M for
    k = 0..M-1; the node at L is identified with the node at 0.
    """

    lengths: tuple
    shape: tuple
    # node spacing L / M per axis and the node count, derived once from
    # lengths and shape
    spacings: tuple = field(init=False, repr=False, compare=False)
    node_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lengths = tuple(float(v) for v in self.lengths)
        shape = tuple(int(v) for v in self.shape)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "shape", shape)
        if len(lengths) != len(shape):
            raise GridMismatch("lengths and shape must have equal rank")
        if len(lengths) not in (1, 2):
            raise GridMismatch("only 1D and 2D grids are supported")
        if any(v <= 0 for v in lengths):
            raise GridMismatch("domain lengths must be positive")
        if any(m < 2 for m in shape):
            raise GridMismatch("need at least 2 nodes per axis")
        object.__setattr__(
            self, "spacings", tuple(L / M for L, M in zip(lengths, shape)))
        object.__setattr__(self, "node_count", math.prod(shape))

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def axis_coords(self, axis: int) -> np.ndarray:
        d = self.spacings[axis]
        return np.arange(self.shape[axis]) * d

    def meshes(self):
        """The x and y coordinate arrays of a 2-D grid, each of the grid's
        shape ('ij' indexing)."""
        return tuple(np.meshgrid(self.axis_coords(0), self.axis_coords(1), indexing="ij"))

    def neighbour_table(self, lead: tuple = ()) -> np.ndarray:
        """Flat node indices of the periodic neighbours, shape ``(2 * ndim,
        node_count)``: row ``2a`` holds each node's successor along axis
        ``a`` and row ``2a + 1`` its predecessor.

        For a stack of fields of shape ``lead + self.shape`` seen as one
        flat array, the table has shape ``(2 * ndim, *lead, node_count)``
        and field ``i`` (in flat order) adds ``i * node_count`` to every
        index, so one flat index gathers the neighbours of the whole
        stack.  Built on first use and cached by shape."""
        return _neighbour_table(self.shape, lead)

    def wrap_index(self, k, axis: int):
        """The periodic node index ``k mod M`` along ``axis`` of every int
        ``k``, negatives included.

        A wrap-mode ``take`` on the axis's node indices gives the integer
        modulo without an integer division.  Its cost grows with how many
        periods ``k`` lies from the box, so indices more than one period
        outside are first reduced with ``%``."""
        k = np.asarray(k)
        m = self.shape[axis]
        if k.size and (k.min() < -m or k.max() >= 2 * m):
            k = k % m
        return _axis_table(m)[0].take(k, mode="wrap")

    def successor_index(self, k, axis: int):
        """The periodic successor ``(k + 1) mod M`` along ``axis`` of every
        node index ``k`` in ``[0, M)``, by lookup in a cached table."""
        return _axis_table(self.shape[axis])[1].take(k)


@dataclass
class GridField:
    """Scalar field sampled on a :class:`Grid`; values must stay finite."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise GridMismatch(
                f"field shape {self.values.shape} != grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise GridMismatch("field contains non-finite values")


# ---------------------------------------------------------------------------
# periodic stencils and smoothers shared by the field solvers
# ---------------------------------------------------------------------------


# Every stencil acts on the trailing ``grid.ndim`` axes, so one call serves a
# single field and a stack of fields (leading axes index the samples).


def neighbours(values: np.ndarray, grid: Grid, axis: int | None = None) -> np.ndarray:
    """The periodic neighbours of every node, gathered through the grid's
    neighbour table for the stack's shape in one flat index, into a
    C-contiguous array: ``out[2a]`` is ``np.roll(values, -1, a)`` (each
    node's successor along grid axis ``a``) and ``out[2a + 1]`` is
    ``np.roll(values, 1, a)``.  With ``axis`` given, only that axis's
    pair, as ``out[0]`` and ``out[1]``."""
    lead = values.shape[: values.ndim - grid.ndim]
    table = grid.neighbour_table(lead)
    if axis is not None:
        table = table[2 * axis: 2 * axis + 2]
    return values.reshape(-1)[table].reshape(table.shape[:-1] + grid.shape)


def centered_difference(up: np.ndarray, down: np.ndarray, spacing: float) -> np.ndarray:
    """Second-order centred first derivative from a gathered successor and
    predecessor pair along an axis of node spacing ``spacing``, such as
    ``neighbours(values, grid, axis)``, into a new array."""
    slope = up - down
    slope /= 2.0 * spacing
    return slope


def flux_divergence(coef: np.ndarray, u: np.ndarray, grid: Grid) -> np.ndarray:
    """Conservative discretization of div(coef * grad u): per axis,
    ``((coef_k+1 + coef_k)(u_k+1 - u_k) + (coef_k-1 + coef_k)(u_k-1 - u_k)) / (2 d^2)``.
    Telescopes to zero total, so the coupling conserves mass exactly.

    Each edge flux ``F_k = (u_k+1 - u_k)(coef_k+1 + coef_k)`` is computed
    once: the predecessor term is ``-F_k-1`` bit for bit (negation and
    commutation are exact), so an axis adds ``(F_k - F_k-1) / (2 d^2)``."""
    table = grid.neighbour_table(u.shape[: u.ndim - grid.ndim])
    flat_u, flat_coef = u.reshape(-1), coef.reshape(-1)
    out = np.zeros(table.shape[1:])  # one row of nodes per field, as the table
    for axis, d in enumerate(grid.spacings):
        succ, pred = table[2 * axis], table[2 * axis + 1]
        flux = flat_u[succ] - flat_u.reshape(out.shape)
        flux *= flat_coef[succ] + flat_coef.reshape(out.shape)
        flux -= flux.reshape(-1)[pred]
        flux /= 2.0 * d**2
        out += flux
    return out.reshape(u.shape)


def wrapped_gaussian_bump(grid: Grid, amp, sigma) -> np.ndarray:
    """Gaussian bump centred in a 2D box, summed over the eight neighbouring
    periodic images so that it is continuous across the boundary."""
    xs, ys = grid.meshes()
    lx, ly = grid.lengths
    cx, cy = 0.5 * lx, 0.5 * ly
    out = np.zeros(grid.shape)
    for ix in (-1, 0, 1):
        for iy in (-1, 0, 1):
            out += np.exp(
                -((xs - cx + ix * lx) ** 2 + (ys - cy + iy * ly) ** 2) / (2 * sigma**2)
            )
    return amp * out


def fourier_multiply(grid: Grid, values: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
    """``multiplier(D) values`` for a real field or stack of fields whose
    trailing axes are ``grid``, with ``multiplier`` on the half FFT lattice
    (the shape of ``np.fft.rfftn`` of a field on ``grid``); a leading
    multiplier axis broadcasts against the stack's axes before the grid axes.

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


def periodic_gaussian_blur(values: np.ndarray, grid: Grid, sigma: float) -> np.ndarray:
    """Convolve a field on a 2-D grid with a periodized Gaussian normalized
    to unit mass."""
    if sigma <= 0:
        return values.copy()
    axes_kernels = []
    for axis in range(2):
        x = grid.axis_coords(axis)
        lx = grid.lengths[axis]
        dist = np.minimum(x, lx - x)
        axes_kernels.append(np.exp(-(dist**2) / (2 * sigma**2)))
    kern = np.outer(*axes_kernels)
    kern /= kern.sum()
    return fourier_multiply(grid, values, np.fft.rfftn(kern))
