import ast
import dataclasses
import pickle
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levyflow
from levyflow.errors import GridMismatch
from levyflow.grids import (Grid, GridField, _neighbour_table, centered_difference, flux_divergence,
                            neighbours)

from operator_reference import laplacian5

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
    # the neighbour table is a cache: it leaves equality alone and a
    # replaced grid builds its own
    built = Grid((2.0, 1.0), (8, 4))
    assert built.neighbour_table().shape == (4, 32) and built == GRID
    assert dataclasses.replace(built, shape=(8, 8)).neighbour_table().shape == (4, 64)
    # so is the node index that wrap_index takes from
    assert int(built.wrap_index(9, 1)) == 1 and built == GRID
    assert int(dataclasses.replace(built, shape=(8, 8)).wrap_index(9, 1)) == 1
    # the tables are cached by shape, so equal-shape grids share them
    stretched = Grid((5.0, 3.0), (8, 4))
    assert stretched.neighbour_table((3,)) is built.neighbour_table((3,))
    assert stretched.neighbour_table() is GRID.neighbour_table()


def test_grid_validation():
    with pytest.raises(GridMismatch):
        Grid((1.0,), (8, 8))
    with pytest.raises(GridMismatch):
        Grid((0.0,), (8,))
    with pytest.raises(GridMismatch):
        Grid((1.0,), (1,))
    with pytest.raises(GridMismatch):
        Grid((1.0, 1.0, 1.0), (4, 4, 4))


@given(st.integers(-10_000, 10_000),
       st.lists(st.integers(-2**63, 2**63 - 1) | st.integers(-20, 20), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_wrap_index_total(k, ks):
    wrapped = int(GRID.wrap_index(k, 0))
    assert 0 <= wrapped < 8
    assert (k - wrapped) % 8 == 0
    # arrays of negative and large int64 indices, along both axes: the
    # integer modulo, whether or not they lie within a period of the box
    ks = np.array(ks, dtype=np.int64)
    for axis, m in enumerate(GRID.shape):
        assert GRID.wrap_index(ks, axis).tolist() == (ks % m).tolist()
        near = np.arange(-2 * m, 3 * m)
        assert GRID.wrap_index(near, axis).tolist() == (near % m).tolist()


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


def _roll_laplacian(values, grid):
    out = np.zeros_like(values)
    for axis in range(grid.ndim):
        a = axis - grid.ndim
        d = grid.spacings[axis]
        out += (np.roll(values, -1, a) + np.roll(values, 1, a) - 2.0 * values) / d**2
    return out


def _roll_centered_difference(values, grid, axis):
    a = axis - grid.ndim
    return (np.roll(values, -1, a) - np.roll(values, 1, a)) / (2.0 * grid.spacings[axis])


def _roll_flux_divergence(coef, u, grid):
    out = np.zeros_like(u)
    for axis in range(grid.ndim):
        a = axis - grid.ndim
        up, dn = np.roll(u, -1, a) - u, np.roll(u, 1, a) - u
        cup, cdn = np.roll(coef, -1, a) + coef, np.roll(coef, 1, a) + coef
        out += (cup * up + cdn * dn) / (2.0 * grid.spacings[axis]**2)
    return out


STENCIL_GRIDS = {
    "1d": Grid((1.0,), (16,)),
    "1d-odd": Grid((2.5,), (7,)),
    "2d": Grid((2.1, 2.1), (21, 21)),
    "2d-odd-aniso": Grid((1.0, 1.5), (5, 6)),
}


@pytest.mark.parametrize("name", list(STENCIL_GRIDS))
@pytest.mark.parametrize("lead", [(), (3,)], ids=["field", "stack"])
def test_stencils_through_neighbour_table_equal_np_roll(name, lead):
    grid = STENCIL_GRIDS[name]
    rng = np.random.Generator(np.random.Philox(key=[3, 0]))
    u, coef = rng.standard_normal((2,) + lead + grid.shape)
    nb = neighbours(u, grid)
    for axis in range(grid.ndim):
        a = axis - grid.ndim
        assert np.array_equal(nb[2 * axis], np.roll(u, -1, a))
        assert np.array_equal(nb[2 * axis + 1], np.roll(u, 1, a))
        assert np.array_equal(neighbours(u, grid, axis), nb[2 * axis: 2 * axis + 2])
        assert (centered_difference(*nb[2 * axis: 2 * axis + 2], grid.spacings[axis]).tobytes()
                == _roll_centered_difference(u, grid, axis).tobytes())
    assert laplacian5(u, grid).tobytes() == _roll_laplacian(u, grid).tobytes()
    assert (flux_divergence(coef, u, grid).tobytes()
            == _roll_flux_divergence(coef, u, grid).tobytes())


@pytest.mark.parametrize("name", list(STENCIL_GRIDS))
@pytest.mark.parametrize("case", ["signed-zeros", "1e+150", "1e-150", "lead-2-S"])
def test_edge_flux_divergence_equals_np_roll_bitwise(name, case):
    """Each edge flux is computed once and its predecessor's is subtracted;
    that is bitwise the two-term reference, signed zeros and ties, extreme
    magnitudes and a (2, S) lead stack included."""
    grid = STENCIL_GRIDS[name]
    rng = np.random.Generator(np.random.Philox(key=[11, 0]))
    lead = (2, 3) if case == "lead-2-S" else (3,)
    u, coef = rng.standard_normal((2,) + lead + grid.shape)
    if case == "signed-zeros":  # equal neighbours, +-0.0 values and coefficient sums
        u = rng.integers(-1, 2, lead + grid.shape) * np.array([1.0, -0.0, 0.0, 2.0])[
            rng.integers(0, 4, lead + grid.shape)]
        coef = rng.choice([-0.0, 0.0, 1.0, -1.0], lead + grid.shape)
    elif case != "lead-2-S":
        scale = float(case)
        u, coef = u * scale, coef * scale
    assert (flux_divergence(coef, u, grid).tobytes()
            == _roll_flux_divergence(coef, u, grid).tobytes())


@pytest.mark.parametrize("name", list(STENCIL_GRIDS))
def test_stack_rows_equal_fields_alone_bitwise(name):
    """Every row of a stack of lead shape (S,) or (2, S), and of smaller
    stacks of its rows, gets from each stencil bitwise what the field gets
    alone (lead shape ())."""
    grid = STENCIL_GRIDS[name]
    rng = np.random.Generator(np.random.Philox(key=[5, 0]))
    u, coef = rng.standard_normal((2, 2, 6) + grid.shape)
    stacks = [(u, coef), (u[0], coef[0])]
    rows = list(range(6))
    while len(rows) > 1:  # take out the middle row, down to one
        del rows[len(rows) // 2]
        stacks.append((u[0, rows], coef[0, rows]))
    for us, cs in stacks:
        lead = us.shape[: us.ndim - grid.ndim]
        nb = neighbours(us, grid)
        assert nb.flags.c_contiguous and nb.shape == (2 * grid.ndim,) + us.shape
        flux = flux_divergence(cs, us, grid)
        for index in np.ndindex(lead):
            alone = us[index]
            assert nb[(slice(None),) + index].tobytes() == neighbours(alone, grid).tobytes()
            for axis in range(grid.ndim):
                pair = neighbours(us, grid, axis)[(slice(None),) + index]
                assert pair.tobytes() == neighbours(alone, grid, axis).tobytes()
                d = grid.spacings[axis]
                assert (centered_difference(*neighbours(us, grid, axis), d)[index].tobytes()
                        == centered_difference(*neighbours(alone, grid, axis), d).tobytes())
            assert flux[index].tobytes() == flux_divergence(cs[index], alone, grid).tobytes()
    # the cache keeps the tables of the last few stack shapes only
    info = _neighbour_table.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_only_grids_indexes_and_differences_periodic_neighbours():
    """``grids`` is the one home of the periodic stencils: no other package
    module rolls an array, reads the neighbour table or defines a stencil,
    and the H-step's slopes and the micro tissue gradient come from its one
    centred difference."""
    names, defined, differencers = defaultdict(set), defaultdict(set), set()
    for path in Path(levyflow.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names[node.attr].add(path.name)
            elif isinstance(node, ast.FunctionDef):
                defined[node.name].add(path.name)
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "centered_difference"):
                    differencers.add(f"{path.stem}.{top.name}")
    assert names["roll"] == names["neighbour_table"] == {"grids.py"}
    assert defined["flux_divergence"] == defined["centered_difference"] == {"grids.py"}
    assert differencers == {"macro.HOperator", "micro._tissue_gradient"}
