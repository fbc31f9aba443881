"""Bit-exact output formats: CSV, the LVF1 grid container, PGM renders,
contour exports, and the run manifest.

* CSV is RFC-4180 with '.' decimals and 17 significant digits, enough to
  round-trip any double exactly.
* LVF1 is little-endian: magic "LVF1", u32 Mx, u32 My, then Mx*My f64
  values row-major (x index outermost); 1D grids store My = 1.
* PGM is binary P5, 8 bits, with the linear map
  ``gray = floor(255 * clip((v - lo) / (hi - lo), 0, 1) + 0.5)``
  (round half up); a degenerate range renders mid-gray 128.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigInvalid
from .grids import GridField, neighbours


def fmt17(value) -> str:
    """17-significant-digit decimal rendering (lossless for f64)."""
    return format(float(value), ".17g")


def write_csv(path, header, rows):
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [fmt17(v) if isinstance(v, (float, np.floating)) else v for v in row]
            )
    return path


# ---------------------------------------------------------------------------
# LVF1 binary grids
# ---------------------------------------------------------------------------

_LVF_MAGIC = b"LVF1"


def write_grid_binary(path, f: GridField):
    values = f.values if f.values.ndim == 2 else f.values[:, None]
    mx, my = values.shape
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(_LVF_MAGIC)
        fh.write(struct.pack("<II", mx, my))
        fh.write(values.astype("<f8").tobytes(order="C"))
    return path


def read_grid_binary(path):
    """Returns (values array, (Mx, My)); 1D payloads come back as (Mx, 1).
    A file that cannot be read, or whose size is not its header's ``12 + 8
    Mx My`` bytes, is refused."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigInvalid(f"{path}: cannot read ({exc.strerror})") from exc
    if len(raw) < 12 or raw[:4] != _LVF_MAGIC:
        raise ConfigInvalid(f"{path}: not an LVF1 file")
    mx, my = struct.unpack("<II", raw[4:12])
    if len(raw) != 12 + 8 * mx * my:
        raise ConfigInvalid(f"{path}: {len(raw)} bytes, but a {mx}x{my} LVF1 grid "
                            f"takes {12 + 8 * mx * my}")
    values = np.frombuffer(raw[12:], dtype="<f8").reshape(mx, my)
    return values.copy(), (mx, my)


# ---------------------------------------------------------------------------
# PGM rendering and contour export
# ---------------------------------------------------------------------------


def render_pgm(values: np.ndarray, lo=None, hi=None) -> bytes:
    values = np.asarray(values, dtype=float)
    lo = float(values.min()) if lo is None else float(lo)
    hi = float(values.max()) if hi is None else float(hi)
    if hi <= lo:
        gray = np.full(values.shape, 128, dtype=np.uint8)
    else:
        # a value far outside [lo, hi] overflows to an infinity, which the
        # clip takes to 0 or 1; a range too wide for a double is halved
        with np.errstate(over="ignore"):
            if math.isinf(hi - lo):
                scaled = (0.5 * values - 0.5 * lo) / (0.5 * hi - 0.5 * lo)
            else:
                scaled = (values - lo) / (hi - lo)
        gray = np.floor(255.0 * np.clip(scaled, 0.0, 1.0) + 0.5).astype(np.uint8)
    h, w = gray.shape
    return b"P5\n%d %d\n255\n" % (w, h) + gray.tobytes(order="C")


def write_pgm(path, values, lo=None, hi=None):
    Path(path).write_bytes(render_pgm(values, lo, hi))
    return Path(path)


def contour_points(f: GridField, levels):
    """Level-set crossing points on grid edges, linearly interpolated.

    Returns (level, x, y) rows for overlay plotting: per level, the
    crossings of the edges along axis 0, then along axis 1, each axis's in
    row-major node order.  A 1-D field's rows have y = 0.
    """
    grid = f.grid
    vv = f.values if grid.ndim == 2 else f.values[:, None]
    coords = (grid.axis_coords(0), grid.axis_coords(1) if grid.ndim == 2 else np.zeros(1))
    rows, edges = [], []  # edges: each axis's successors, sides and steps
    for axis in range(grid.ndim):
        nxt = neighbours(f.values, grid, axis)[0].reshape(vv.shape)
        with np.errstate(over="ignore"):
            span = nxt - vv
        edges.append((axis, nxt, np.minimum(vv, nxt), np.maximum(vv, nxt), span, np.isinf(span)))
    for level in levels:
        for axis, nxt, lo_side, hi_side, span, wide in edges:
            crossing = (lo_side <= level) & (level < hi_side)
            frac = np.zeros_like(vv)
            # only a crossing's fraction is used, and it lies in [0, 1]; a
            # step beyond the double range is halved
            with np.errstate(over="ignore"):
                np.divide(level - vv, span, out=frac, where=span != 0)
            frac[wide] = (0.5 * level - 0.5 * vv[wide]) / (0.5 * nxt[wide] - 0.5 * vv[wide])
            nodes = np.nonzero(crossing)
            point = [c[i] for c, i in zip(coords, nodes)]
            point[axis] += frac[nodes] * grid.spacings[axis]
            rows += np.column_stack([np.full(nodes[0].size, level), *point]).tolist()
    return rows


def write_contour_csv(path, f: GridField, levels):
    return write_csv(path, ["level", "x", "y"], contour_points(f, levels))


# ---------------------------------------------------------------------------
# run manifest
# ---------------------------------------------------------------------------


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def write_manifest(path, config_text: str, base_seed: int, started_at: float, outputs):
    """The run manifest: tool version, config echo, base seed, the run's
    wall-clock span (``started_at`` to now, Unix seconds) and the SHA-256
    digest of each output file, listed in the order given."""
    payload = {
        "tool_version": __version__,
        "config": config_text,
        "base_seed": base_seed,
        "started_at": started_at,
        "outputs": [{"path": Path(p).name, "sha256": sha256_file(p)} for p in outputs],
        "finished_at": time.time(),  # evaluated after the digests above
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return Path(path)


def read_manifest(path):
    return json.loads(Path(path).read_text())


def verify_manifest(path) -> bool:
    """Re-hash every listed output; True when all digests still match."""
    data = read_manifest(path)
    base = Path(path).parent
    for entry in data["outputs"]:
        if sha256_file(base / entry["path"]) != entry["sha256"]:
            return False
    return True
