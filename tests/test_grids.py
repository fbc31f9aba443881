import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyflow.errors import GridMismatch
from levyflow.grids import Grid, GridField, periodic_shift, require_same_grid

GRID = Grid((2.0, 1.0), (8, 4))


def test_grid_properties():
    assert GRID.ndim == 2
    assert GRID.spacings == (0.25, 0.25)
    assert GRID.node_count == 32
    assert np.allclose(GRID.axis_coords(1), [0.0, 0.25, 0.5, 0.75])


def test_cached_spacings_leave_value_semantics_alone():
    same = Grid((2, 1), (8.0, 4.0))
    other = Grid((2.0, 1.0), (8, 8))
    assert same == GRID and hash(same) == hash(GRID)
    assert other != GRID
    assert repr(GRID) == "Grid(lengths=(2.0, 1.0), shape=(8, 4))"
    restored = pickle.loads(pickle.dumps(GRID))
    assert restored == GRID and restored.spacings == GRID.spacings
    assert dataclasses.replace(GRID, shape=(8, 8)).spacings == (0.25, 0.125)


def test_grid_validation():
    with pytest.raises(GridMismatch):
        Grid((1.0,), (8, 8))
    with pytest.raises(GridMismatch):
        Grid((0.0,), (8,))
    with pytest.raises(GridMismatch):
        Grid((1.0,), (1,))
    with pytest.raises(GridMismatch):
        Grid((1.0, 1.0, 1.0), (4, 4, 4))


@given(st.integers(-10_000, 10_000))
@settings(max_examples=200, deadline=None)
def test_wrap_index_total(k):
    wrapped = int(GRID.wrap_index(k, 0))
    assert 0 <= wrapped < 8
    assert (k - wrapped) % 8 == 0


def test_field_shape_and_finiteness_guards():
    with pytest.raises(GridMismatch):
        GridField(GRID, np.zeros((8, 5)))
    bad = np.zeros(GRID.shape)
    bad[0, 0] = np.nan
    with pytest.raises(GridMismatch):
        GridField(GRID, bad)
    inf = np.zeros(GRID.shape)
    inf[1, 1] = np.inf
    with pytest.raises(GridMismatch):
        GridField(GRID, inf)


def test_field_copy_and_total():
    f = GridField(GRID, np.ones(GRID.shape))
    g = f.copy()
    g.values[0, 0] = 5.0
    assert f.values[0, 0] == 1.0
    assert f.total() == 32.0


def test_require_same_grid():
    with pytest.raises(GridMismatch):
        require_same_grid(GRID, Grid((2.0, 1.0), (8, 8)))


@pytest.mark.parametrize("shape", [(7,), (5, 6), (3, 5, 6)])
def test_periodic_shift_is_np_roll(shape):
    values = np.arange(np.prod(shape), dtype=float).reshape(shape)
    for axis in range(-len(shape), len(shape)):
        for shift in (1, -1, 2):
            assert np.array_equal(periodic_shift(values, shift, axis),
                                  np.roll(values, shift, axis=axis))
