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

from .drivers import CauchyModulatedNoise, GaussianNoise, SwitchingNoise
from .errors import ConfigInvalid
from .fracops import _TAIL_CAP_FACTOR
from .grids import Grid
from .macro import MacroConfig
from .micro import MicroConfig
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

_NOISE_LAWS = {
    "gaussian": GaussianNoise,
    "switching": SwitchingNoise,
    "cauchy_modulated": CauchyModulatedNoise,
}

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
# fields set from code only, never from a config file
_CODE_ONLY_FIELDS = {"solver_max_iterations"}


def _file_defaults(cls, aliases, published) -> dict:
    """Published name -> default for every file key of the dataclass ``cls``.

    ``published`` maps each field that is not a plain scalar (the grid, the
    noise law) to a function turning its default into published entries.
    """
    default = cls()
    names = {field_name: name for name, field_name in aliases.items()}
    out = {}
    for f in dataclasses.fields(cls):
        value = getattr(default, f.name)
        if f.name in published:
            out.update(published[f.name](value))
        elif f.name not in _CODE_ONLY_FIELDS:
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
    "noise": lambda law: {
        "noise": {cls: name for name, cls in _NOISE_LAWS.items()}[type(law)],
    },
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
    for axis in ("x1", "x2"):
        n, h = r[f"N_{axis}"], r[f"h_{axis}"]
        _require(h > 0, "macro", f"h_{axis}", f"spacing must be positive, got {h}")
        _require(0 < h * h < math.inf, "macro", f"h_{axis}",
                 f"spacing must have h_{axis}^2 a positive finite float, got {h}")
        _require(n >= 3, "macro", f"N_{axis}",
                 f"need at least 3 nodes for the fractional operator, got {n}")
        _require(2 * modes <= n, "macro", "qwiener_modes",
                 f"{modes} modes exceed the Nyquist limit of N_{axis} = {n} "
                 f"(at most {n // 2})")
    scalars = dict(r)
    shape = (scalars.pop("N_x1"), scalars.pop("N_x2"))
    spacing = (scalars.pop("h_x1"), scalars.pop("h_x2"))
    grid = Grid((spacing[0] * shape[0], spacing[1] * shape[1]), shape)
    return _build(MacroConfig, scalars, _MACRO_ALIASES, grid=grid), r


# NumPy refuses an array of sys.maxsize (2^63 - 1) bytes or more.  A micro
# step's largest arrays hold 32 bytes per particle (the four int64 corner
# indices of its stencil) and 32 bytes per grid node (the four int64 entries
# of the neighbour table).
_MAX_PARTICLES = sys.maxsize // 32
_MAX_MICRO_POINTS = math.isqrt(sys.maxsize // 32)


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
    _require(r["M"] <= _MAX_PARTICLES, "micro", "M",
             f"at most {_MAX_PARTICLES} particles fit NumPy's array size limit")
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
    scalars = dict(r)
    noise_name = str(scalars.pop("noise"))
    if noise_name not in _NOISE_LAWS:
        raise ConfigInvalid(
            f"unknown noise {noise_name!r}; choose from {sorted(_NOISE_LAWS)}"
        )
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
    cfg = _build(MicroConfig, scalars, _MICRO_ALIASES,
                 noise=_NOISE_LAWS[noise_name](), grid=grid)
    return cfg, r


def ensemble_config_from(sections, base_seed: int, workers: int) -> tuple:
    r = resolve_section("ensemble", ENSEMBLE_DEFAULTS, sections)
    cfg = EnsembleConfig(
        n_samples=r["M"],
        base_seed=base_seed,
        snapshot_steps=_tuple_of(_integral, "ensemble", "snapshot_steps", r["snapshot_steps"]),
        export_sample_ids=_tuple_of(_integral, "ensemble", "export_samples", r["export_samples"]),
        workers=workers,
    )
    return cfg, r


def symbol_params_from(sections) -> dict:
    r = resolve_section("symbol", SYMBOL_DEFAULTS, sections)
    _require(r["points"] >= 1, "symbol", "points", f"need at least 1 probe point, got {r['points']}")
    _require(r["xi_max"] > 0, "symbol", "xi_max", f"must be positive, got {r['xi_max']}")
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
    _require(all(k >= 1 for k in r["modes"]), "fracheck", "modes",
             f"each must be at least 1, got {r['modes']}")
    # a mode past the coarsest grid's Nyquist mode aliases (to a constant
    # when the grid's point count divides it, whose oracle scale is 0)
    _require(all(2 * k <= min(r["resolutions"]) for k in r["modes"]), "fracheck", "modes",
             f"each must be at most half the smallest resolution "
             f"{min(r['resolutions'])}, got {r['modes']}")
    _require(r["length"] > 0, "fracheck", "length", f"must be positive, got {r['length']}")
    # NumPy refuses an array of sys.maxsize bytes or more.  The largest
    # arrays hold, per resolution M and with P exponents and K modes, the P
    # rows of up to 10 * M tail weights of the kernel build and the K x P
    # approximations of M points, 8 bytes per value.
    rows = len(r["exponents"]) * max(len(r["modes"]), _TAIL_CAP_FACTOR)
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
