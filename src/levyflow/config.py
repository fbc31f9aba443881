"""Plain-text config files: parsing, defaults, and the canonical echo.

Grammar (see docs/config.md): '#' comments, '[section]' headers, and
'key = value' lines.  Values parse as bool, int, float, comma lists, or
bare strings.  Keys named in the published parameter tables appear
verbatim (gamma_1, sigma_W, tau, h_x1, N_x1, ...).
"""

from __future__ import annotations

import dataclasses
import math
import sys

from .drivers import NOISE_LAWS
from .errors import ConfigInvalid
from .grids import Grid
from .macro import MacroConfig
from .micro import MicroConfig
from .symbols import generator_symbol_table
from .ensemble import EnsembleConfig


# ---------------------------------------------------------------------------
# parsing and rendering
# ---------------------------------------------------------------------------


def _parse_scalar(token: str):
    token = token.strip()
    low = token.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def parse_config_text(text: str):
    """Parse the documented key/value grammar into {section: {key: value}}."""
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigInvalid(f"line {lineno}: empty section name")
            if current not in SECTION_DEFAULTS:
                raise ConfigInvalid(
                    f"line {lineno}: unknown section [{current}]; "
                    f"choose from {sorted(SECTION_DEFAULTS)}"
                )
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigInvalid(f"line {lineno}: expected 'key = value'")
        if current is None:
            raise ConfigInvalid(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigInvalid(f"line {lineno}: empty key")
        if "," in value:
            sections[current][key] = tuple(_parse_scalar(v) for v in value.split(","))
        else:
            sections[current][key] = _parse_scalar(value)
    return sections


def _render_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ", ".join(_render_value(v) for v in value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def render_config(sections) -> str:
    """Canonical text form: sections and keys in sorted order."""
    lines = []
    for section in sorted(sections):
        lines.append(f"[{section}]")
        for key in sorted(sections[section]):
            lines.append(f"{key} = {_render_value(sections[section][key])}")
        lines.append("")
    return "\n".join(lines)


def load_config_file(path) -> dict:
    from pathlib import Path

    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)


# ---------------------------------------------------------------------------
# schemas: the [macro] and [micro] defaults are read off MacroConfig and
# MicroConfig, the others live here; a config file overrides by key
# ---------------------------------------------------------------------------

# published parameter-table name -> dataclass field, where the two differ
_MACRO_ALIASES = {"N": "n_steps"}
_MICRO_ALIASES = {
    "M": "n_particles",
    "N": "n_steps",
    "h_1": "kill_low",
    "h_2": "kill_high",
    "h_3": "kill_acid",
    "gamma": "tissue_decay",
}


def _file_defaults(cls, aliases, published) -> dict:
    """Published name -> default for every file key of the dataclass ``cls``.

    ``published`` maps each field that is not a plain scalar (the grid) to
    a function turning its default into published entries.
    """
    default = cls()
    names = {field_name: name for name, field_name in aliases.items()}
    out = {}
    for f in dataclasses.fields(cls):
        value = getattr(default, f.name)
        if f.name in published:
            out.update(published[f.name](value))
        else:
            out[names.get(f.name, f.name)] = value
    return out


def _build(cls, scalars: dict, aliases, **fields):
    """``cls`` from resolved published scalars plus already built fields."""
    return cls(**{aliases.get(name, name): v for name, v in scalars.items()}, **fields)


MACRO_DEFAULTS = _file_defaults(MacroConfig, _MACRO_ALIASES, {
    "grid": lambda g: {
        "h_x1": g.spacings[0], "h_x2": g.spacings[1],
        "N_x1": g.shape[0], "N_x2": g.shape[1],
    },
})

MICRO_DEFAULTS = _file_defaults(MicroConfig, _MICRO_ALIASES, {
    "grid": lambda g: {"grid_points": g.shape[0], "domain_length": g.lengths[0]},
})

ENSEMBLE_DEFAULTS = {
    "M": EnsembleConfig().n_samples,
    "kind": "macro",
    "snapshot_steps": EnsembleConfig().snapshot_steps,
    "export_samples": EnsembleConfig().export_sample_ids,
}

SYMBOL_DEFAULTS = {
    "name": "alpha_stable",
    "xi_max": 10.0,
    "points": 201,
}

# the 96/192/384 ladder is monotone for all of modes 1..3; the coarser
# 64-point start is preasymptotic for mode 3 at large exponents
FRACHECK_DEFAULTS = {
    "resolutions": (96, 192, 384),
    "exponents": (0.5, 1.0, 1.5),
    "modes": (1, 2, 3),
    "length": 1.0,
}

REPORT_DEFAULTS = {
    "levels": (0.2, 0.5, 0.8),
}

SECTION_DEFAULTS = {
    "macro": MACRO_DEFAULTS,
    "micro": MICRO_DEFAULTS,
    "ensemble": ENSEMBLE_DEFAULTS,
    "symbol": SYMBOL_DEFAULTS,
    "fracheck": FRACHECK_DEFAULTS,
    "report": REPORT_DEFAULTS,
}


def _integral(value) -> int:
    """``value`` as an int; booleans and non-integral numbers are refused."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(value)
    return int(value)


def _finite_float(value) -> float:
    """``value`` as a float; nan and the infinities are refused."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(value)
    return value


def resolve_section(name: str, defaults: dict, sections: dict):
    """Defaults overridden by the file section; unknown keys rejected and
    overrides coerced to the default's scalar type (a float must be
    finite)."""
    given = dict(sections.get(name, {}))
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigInvalid(f"[{name}]: unknown keys {sorted(unknown)}")
    resolved = dict(defaults)
    for key, value in given.items():
        default = defaults[key]
        try:
            if isinstance(default, bool):
                if not isinstance(value, bool):
                    raise ValueError(value)
            elif isinstance(default, int):
                value = _integral(value)
            elif isinstance(default, float):
                value = _finite_float(value)
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid(f"[{name}] {key}: cannot interpret {value!r}") from exc
        resolved[key] = value
    return resolved


def _tuple_of(convert, section: str, key: str, value) -> tuple:
    """A comma-list value as a tuple of ``convert``-ed items; empty items
    are dropped, so an empty value is the empty tuple."""
    items = value if isinstance(value, (tuple, list)) else (value,)
    try:
        return tuple(convert(v) for v in items if v != "")
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"[{section}] {key}: cannot interpret {value!r}") from exc


def _require(ok: bool, section: str, key: str, rule: str):
    """Refuse a value the grid, the operator or the noise cannot be built from."""
    if not ok:
        raise ConfigInvalid(f"[{section}] {key}: {rule}")


# NumPy refuses an array of sys.maxsize (2^63 - 1) bytes or more.  The
# largest arrays hold 32 bytes per item: per particle of a micro step (the
# four int64 corner indices of its stencil), per grid node of a micro step
# and per sample and grid node of a macro step (the four int64 entries of
# the neighbour table, and the H-step's four stencil weights), and per probe
# point of the symbol command (the complex phases of a two-atom jump law).
_MAX_ITEMS = sys.maxsize // 32
_MAX_MICRO_POINTS = math.isqrt(_MAX_ITEMS)
# a seed keys a Philox stream as one unsigned 64-bit word: the base seed
# (--seed) and ic_seed must lie in [0, SEED_LIMIT)
SEED_LIMIT = 1 << 64


def macro_config_from(sections) -> tuple:
    """Returns (MacroConfig, resolved mapping for the echo)."""
    r = resolve_section("macro", MACRO_DEFAULTS, sections)
    for key in ("gamma_1", "gamma_2", "gamma_3", "sigma_W", "sigma_H",
                "gamma_C", "gamma_g", "gamma_h", "gamma_f"):
        _require(r[key] >= 0, "macro", key, f"rates must be nonnegative, got {r[key]}")
    _require(r["tau"] > 0, "macro", "tau", f"must be positive, got {r['tau']}")
    _require(r["N"] >= 0, "macro", "N", f"must be nonnegative, got {r['N']}")
    _require(0.5 < r["a_1"] < 1, "macro", "a_1", f"must lie in (1/2, 1), got {r['a_1']}")
    _require(r["a_1"] < r["a_2"] < 1, "macro", "a_2",
             f"must lie in (a_1, 1) = ({r['a_1']}, 1), got {r['a_2']}")
    _require(r["solver_tol"] > 0, "macro", "solver_tol",
             f"must be positive, got {r['solver_tol']}")
    _require(r["a"] > 0, "macro", "a", f"must be positive, got {r['a']}")
    modes = r["qwiener_modes"]
    _require(modes >= 1, "macro", "qwiener_modes", f"need at least 1 mode, got {modes}")
    for key in ("h0_sigma", "c0_sigma"):
        _require(_gaussian_width_ok(r[key]), "macro", key,
                 f"2 {key}^2 must be a positive finite float, got {r[key]}")
    _require(r["n0_smooth_sigma"] <= 0 or _gaussian_width_ok(r["n0_smooth_sigma"]),
             "macro", "n0_smooth_sigma",
             f"must be <= 0 (no smoothing) or have 2 n0_smooth_sigma^2 a positive finite "
             f"float, got {r['n0_smooth_sigma']}")
    _require(0 <= r["ic_seed"] < SEED_LIMIT, "macro", "ic_seed",
             f"must lie in [0, 2^64), got {r['ic_seed']}")
    nodes = 1
    for axis in ("x1", "x2"):
        n, h = r[f"N_{axis}"], r[f"h_{axis}"]
        _require(h > 0, "macro", f"h_{axis}", f"spacing must be positive, got {h}")
        _require(0 < h * h < math.inf, "macro", f"h_{axis}",
                 f"spacing must have h_{axis}^2 a positive finite float, got {h}")
        _require(n >= 3, "macro", f"N_{axis}",
                 f"need at least 3 nodes for the fractional operator, got {n}")
        nodes *= n
        _require(nodes <= _MAX_ITEMS, "macro", f"N_{axis}",
                 f"at most {_MAX_ITEMS} grid nodes (N_x1 * N_x2) fit NumPy's array size limit")
        _require(2 * modes <= n, "macro", "qwiener_modes",
                 f"{modes} modes exceed the Nyquist limit of N_{axis} = {n} "
                 f"(at most {n // 2})")
    scalars = dict(r)
    shape = (scalars.pop("N_x1"), scalars.pop("N_x2"))
    spacing = (scalars.pop("h_x1"), scalars.pop("h_x2"))
    grid = Grid((spacing[0] * shape[0], spacing[1] * shape[1]), shape)
    return _build(MacroConfig, scalars, _MACRO_ALIASES, grid=grid), r


def _gaussian_width_ok(sigma: float) -> bool:
    """Whether ``exp(-d^2 / (2 sigma^2))`` can be formed: ``2 sigma^2`` must
    be a positive finite float, so about 1.6e-162 <= |sigma| <= 9.4e153."""
    try:
        return 0 < 2 * sigma**2 < math.inf
    except OverflowError:
        return False


def micro_config_from(sections) -> tuple:
    r = resolve_section("micro", MICRO_DEFAULTS, sections)
    _require(r["M"] >= 1, "micro", "M", f"need at least 1 particle, got {r['M']}")
    _require(r["M"] <= _MAX_ITEMS, "micro", "M",
             f"at most {_MAX_ITEMS} particles fit NumPy's array size limit")
    _require(r["N"] >= 0, "micro", "N", f"must be nonnegative, got {r['N']}")
    _require(r["tau"] > 0, "micro", "tau", f"must be positive, got {r['tau']}")
    _require(r["h_1"] < r["h_2"], "micro", "h_2",
             f"the viability band needs h_1 < h_2, got h_1 = {r['h_1']}, h_2 = {r['h_2']}")
    _require(_gaussian_width_ok(r["acid_sigma"]), "micro", "acid_sigma",
             f"2 acid_sigma^2 must be a positive finite float, got {r['acid_sigma']}")
    for key in ("tissue_smooth_sigma", "deposit_bandwidth"):  # <= 0 smooths nothing
        _require(r[key] <= 0 or _gaussian_width_ok(r[key]), "micro", key,
                 f"must be <= 0 (no smoothing) or have 2 {key}^2 a positive finite "
                 f"float, got {r[key]}")
    _require(0 <= r["ic_seed"] < SEED_LIMIT, "micro", "ic_seed",
             f"must lie in [0, 2^64), got {r['ic_seed']}")
    noise = str(r["noise"])
    _require(noise in NOISE_LAWS, "micro", "noise",
             f"unknown noise {noise!r}; choose from {sorted(NOISE_LAWS)}")
    scalars = dict(r)
    n, length = scalars.pop("grid_points"), scalars.pop("domain_length")
    _require(n >= 2, "micro", "grid_points", f"need at least 2 nodes per axis, got {n}")
    _require(n <= _MAX_MICRO_POINTS, "micro", "grid_points",
             f"at most {_MAX_MICRO_POINTS} nodes per axis fit NumPy's array size limit")
    _require(length > 0, "micro", "domain_length", f"must be positive, got {length}")
    lo, hi = r["lattice_lo"], r["lattice_hi"]
    _require(lo >= 0, "micro", "lattice_lo",
             f"the initial lattice must lie in the box [0, domain_length], got {lo}")
    _require(lo <= hi <= length, "micro", "lattice_hi",
             f"need lattice_lo <= lattice_hi <= domain_length = {length}, got {hi}")
    grid = Grid((length,) * 2, (n, n))
    cfg = _build(MicroConfig, scalars, _MICRO_ALIASES, grid=grid)
    return cfg, r


def ensemble_config_from(sections, base_seed: int, workers: int) -> tuple:
    """Returns (EnsembleConfig, resolved mapping for the echo).  The sample
    count, the kind, the export ids and, for a macro ensemble, the snapshot
    steps against ``[macro] N`` are checked here, before any model section
    is built."""
    r = resolve_section("ensemble", ENSEMBLE_DEFAULTS, sections)
    n, kind = r["M"], r["kind"]
    _require(n >= 1, "ensemble", "M", f"need at least one sample, got {n}")
    _require(kind in ("macro", "micro"), "ensemble", "kind",
             f"unknown ensemble kind {kind!r}; choose from ['macro', 'micro']")
    steps = _tuple_of(_integral, "ensemble", "snapshot_steps", r["snapshot_steps"])
    if kind == "macro":
        n_steps = resolve_section("macro", MACRO_DEFAULTS, sections)["N"]
        bad = sorted({s for s in steps if not 0 <= s <= n_steps})
        # a negative N is refused with the rest of [macro], naming N
        _require(n_steps < 0 or not bad, "ensemble", "snapshot_steps",
                 f"snapshot steps out of range: {bad}")
    export = _tuple_of(_integral, "ensemble", "export_samples", r["export_samples"])
    outside = sorted({i for i in export if not 0 <= i < n})
    _require(not outside, "ensemble", "export_samples",
             f"export sample ids outside [0, {n}): {outside}")
    cfg = EnsembleConfig(n_samples=n, base_seed=base_seed, snapshot_steps=steps,
                         export_sample_ids=export, workers=workers)
    return cfg, r


def symbol_params_from(sections) -> dict:
    r = resolve_section("symbol", SYMBOL_DEFAULTS, sections)
    _require(r["points"] >= 1, "symbol", "points", f"need at least 1 probe point, got {r['points']}")
    _require(r["points"] <= _MAX_ITEMS, "symbol", "points",
             f"at most {_MAX_ITEMS} probe points fit NumPy's array size limit")
    _require(r["xi_max"] > 0, "symbol", "xi_max", f"must be positive, got {r['xi_max']}")
    # the ray's |xi|^2 must be a float: the growth ratio divides by 1 + |xi|^2
    _require(r["xi_max"] * r["xi_max"] < math.inf, "symbol", "xi_max",
             f"xi_max^2 must be a finite float, got {r['xi_max']}")
    names = sorted(name for name, _ in generator_symbol_table())
    _require(r["name"] in names, "symbol", "name",
             f"unknown symbol name {r['name']!r}; choose from {names}")
    return r


# Spacings h past these bounds take the kernel's h^(+-p), the oracle's
# |xi|^p up to (pi / h)^p, or their sums over the grid out of float range.
_MIN_SPACING, _MAX_SPACING = 1e-100, 1e100


def fracheck_params_from(sections) -> dict:
    r = resolve_section("fracheck", FRACHECK_DEFAULTS, sections)
    for key, convert in (("resolutions", _integral), ("exponents", _finite_float),
                         ("modes", _integral)):
        r[key] = _tuple_of(convert, "fracheck", key, r[key])
        _require(len(r[key]) > 0, "fracheck", key, "needs at least one value")
    _require(all(m >= 3 for m in r["resolutions"]), "fracheck", "resolutions",
             f"each needs at least 3 points for the operator's cutoff, got {r['resolutions']}")
    _require(all(0 < p < 2 for p in r["exponents"]), "fracheck", "exponents",
             f"each must lie in (0, 2), got {r['exponents']}")
    # the operator's constant holds Gamma(-p / 2), about -2 / p, which
    # overflows for a subnormal p below about 1.1e-308
    _require(all(p >= sys.float_info.min for p in r["exponents"]), "fracheck", "exponents",
             f"each must be at least the smallest normal float {sys.float_info.min!r}, "
             f"got {r['exponents']}")
    _require(all(k >= 1 for k in r["modes"]), "fracheck", "modes",
             f"each must be at least 1, got {r['modes']}")
    # a mode past the coarsest grid's Nyquist mode aliases (to a constant
    # when the grid's point count divides it, whose oracle scale is 0)
    _require(all(2 * k <= min(r["resolutions"]) for k in r["modes"]), "fracheck", "modes",
             f"each must be at most half the smallest resolution "
             f"{min(r['resolutions'])}, got {r['modes']}")
    _require(r["length"] > 0, "fracheck", "length", f"must be positive, got {r['length']}")
    # NumPy refuses an array of sys.maxsize bytes or more.  The largest
    # arrays hold, per resolution M and with P exponents and K modes, the K x
    # P approximations of M points, 8 bytes per value, and the kernel build's
    # P complex spectra of M points, 16 bytes per value.
    rows = len(r["exponents"]) * max(len(r["modes"]), 2)
    _require(all(m <= sys.maxsize // (8 * rows) for m in r["resolutions"]), "fracheck",
             "resolutions", f"at most {sys.maxsize // (8 * rows)} points each fit NumPy's "
             f"array size limit with these exponents and modes, got {r['resolutions']}")
    _require(all(_MIN_SPACING <= r["length"] / m <= _MAX_SPACING for m in r["resolutions"]),
             "fracheck", "length",
             f"length / resolution must lie in [{_MIN_SPACING}, {_MAX_SPACING}] for every "
             f"resolution, got length {r['length']}")
    return r


def report_params_from(sections) -> dict:
    r = resolve_section("report", REPORT_DEFAULTS, sections)
    r["levels"] = _tuple_of(_finite_float, "report", "levels", r["levels"])
    return r


def echo_sections(**named_sections) -> dict:
    """Assemble the resolved mapping that goes into the run manifest."""
    return {name: dict(mapping) for name, mapping in named_sections.items() if mapping}
