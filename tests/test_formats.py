import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from levyflow import __version__
from levyflow.errors import ConfigInvalid
from levyflow.formats import (
    contour_points,
    fmt17,
    read_grid_binary,
    render_pgm,
    sha256_file,
    verify_manifest,
    write_csv,
    write_grid_binary,
    write_manifest,
    write_pgm,
)
from levyflow.grids import Grid, GridField


def test_fmt17_round_trips_doubles():
    for v in (1.0 / 3.0, np.pi, 1e-300, 123456.789, -0.1):
        assert float(fmt17(v)) == v


def test_csv_writer_rfc4180(tmp_path):
    path = write_csv(tmp_path / "a.csv", ["x", "y"], [(0.1, 2), (1.0 / 3.0, 5)])
    raw = path.read_bytes()
    assert b"\r\n" in raw
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y"]
    assert float(rows[1][0]) == 0.1
    assert float(rows[2][0]) == 1.0 / 3.0


def test_lvf_round_trip_2d(tmp_path):
    grid = Grid((1.0, 2.0), (5, 7))
    rng = np.random.Generator(np.random.Philox(key=[1, 0]))
    f = GridField(grid, rng.random(grid.shape))
    path = write_grid_binary(tmp_path / "f.lvf", f)
    values, (mx, my) = read_grid_binary(path)
    assert (mx, my) == (5, 7)
    assert np.array_equal(values, f.values)


def test_lvf_round_trip_1d(tmp_path):
    grid = Grid((1.0,), (9,))
    f = GridField(grid, np.arange(9.0))
    path = write_grid_binary(tmp_path / "g.lvf", f)
    values, (mx, my) = read_grid_binary(path)
    assert (mx, my) == (9, 1)
    assert np.array_equal(values[:, 0], f.values)


def test_lvf_magic_check(tmp_path):
    bad = tmp_path / "bad.lvf"
    bad.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ConfigInvalid):
        read_grid_binary(bad)


def test_pgm_mapping_documented():
    values = np.array([[0.0, 0.5], [1.0, 0.25]])
    raw = render_pgm(values, lo=0.0, hi=1.0)
    header, rest = raw.split(b"255\n", 1)
    assert header == b"P5\n2 2\n"
    # round half up: 0.5 * 255 = 127.5 -> 128
    assert list(rest) == [0, 128, 255, 64]


def test_pgm_constant_field_mid_gray(tmp_path):
    values = np.full((3, 4), 1.7)
    raw = render_pgm(values)
    assert set(raw.split(b"255\n", 1)[1]) == {128}
    path = write_pgm(tmp_path / "c.pgm", values)
    assert path.read_bytes() == raw


def test_contour_points_on_simple_ramp():
    grid = Grid((1.0, 1.0), (4, 4))
    xs, _ = grid.meshes()
    f = GridField(grid, xs.astype(float))  # values 0, .25, .5, .75 along x
    rows = contour_points(f, [0.4])
    assert rows, "expected crossings"
    for level, x, y in rows:
        assert level == 0.4
        # crossings on x-edges between nodes 1 and 2 interpolate to x = 0.4,
        # except the wrap edge from 0.75 back down to 0
        assert x == pytest.approx(0.4) or x > 0.75


def test_manifest_round_trip_and_verification(tmp_path):
    out = tmp_path / "file.bin"
    out.write_bytes(b"payload")
    mpath = write_manifest(tmp_path / "manifest.json", "[a]\nb = 1\n", 5, time.time(), [out])
    data = json.loads(mpath.read_text())
    assert data["base_seed"] == 5
    assert data["outputs"][0]["sha256"] == sha256_file(out)
    assert verify_manifest(mpath)
    out.write_bytes(b"tampered")
    assert not verify_manifest(mpath)


def test_manifest_version_is_the_project_version(tmp_path):
    """The tool_version a manifest records is pyproject.toml's [project]
    version: the package keeps no second copy of it."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    mpath = write_manifest(tmp_path / "manifest.json", "", 0, time.time(), [])
    assert json.loads(mpath.read_text())["tool_version"] == __version__ == project["version"]
