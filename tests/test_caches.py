"""Every lookup table the package caches is bounded and read-only: a cached
array is shared by every caller, so one caller's write would reach them all."""

import numpy as np

from levyflow import drivers, fracops, grids

# a sample call of each cached function
SAMPLE_ARGS = {
    "_basis_matrix": (4, 2.1, 21),
    "_neighbour_table": ((8, 4), (3,)),
    "_axis_table": (8,),
    "_zeta_nodes": (64,),
    "_half_lattice": (grids.Grid((2.0, 1.0), (8, 4)),),
}


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


def test_cached_arrays_are_bounded_and_read_only():
    cached = {name: function for module in (drivers, grids, fracops)
              for name, function in vars(module).items() if hasattr(function, "cache_info")}
    assert sorted(cached) == sorted(SAMPLE_ARGS)
    for name, function in cached.items():
        assert function.cache_info().maxsize is not None, name
        arrays = list(_arrays(function(*SAMPLE_ARGS[name])))
        assert arrays, name
        assert not any(array.flags.writeable for array in arrays), name
