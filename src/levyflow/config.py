"""Plain-text config files: parsing, defaults, and the canonical echo.

Grammar (see docs/config.md): '#' comments, '[section]' headers, and
'key = value' lines.  Values parse as bool, int, float, comma lists, or
bare strings.  Keys named in the published parameter tables appear
verbatim (gamma_1, sigma_W, tau, h_x1, N_x1, ...).
"""

from __future__ import annotations

import dataclasses

from .drivers import CauchyModulatedNoise, GaussianNoise, SwitchingNoise
from .errors import ConfigInvalid
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
    # the published snapshot steps; EnsembleConfig's empty default keeps
    # only the initial and final states
    "snapshot_steps": (0, 50, 100, 150),
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


def resolve_section(name: str, defaults: dict, sections: dict):
    """Defaults overridden by the file section; unknown keys rejected and
    overrides coerced to the default's scalar type."""
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
                value = float(value)
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
    modes = r["qwiener_modes"]
    _require(modes >= 1, "macro", "qwiener_modes", f"need at least 1 mode, got {modes}")
    for axis in ("x1", "x2"):
        n, h = r[f"N_{axis}"], r[f"h_{axis}"]
        _require(h > 0, "macro", f"h_{axis}", f"spacing must be positive, got {h}")
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


def micro_config_from(sections) -> tuple:
    r = resolve_section("micro", MICRO_DEFAULTS, sections)
    scalars = dict(r)
    noise_name = str(scalars.pop("noise"))
    if noise_name not in _NOISE_LAWS:
        raise ConfigInvalid(
            f"unknown noise {noise_name!r}; choose from {sorted(_NOISE_LAWS)}"
        )
    n, length = scalars.pop("grid_points"), scalars.pop("domain_length")
    _require(n >= 2, "micro", "grid_points", f"need at least 2 nodes per axis, got {n}")
    _require(length > 0, "micro", "domain_length", f"must be positive, got {length}")
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
    return resolve_section("symbol", SYMBOL_DEFAULTS, sections)


def fracheck_params_from(sections) -> dict:
    r = resolve_section("fracheck", FRACHECK_DEFAULTS, sections)
    for key, convert in (("resolutions", _integral), ("exponents", float), ("modes", _integral)):
        r[key] = _tuple_of(convert, "fracheck", key, r[key])
    _require(all(m >= 3 for m in r["resolutions"]), "fracheck", "resolutions",
             f"each needs at least 3 points for the operator's cutoff, got {r['resolutions']}")
    _require(all(0 < p < 2 for p in r["exponents"]), "fracheck", "exponents",
             f"each must lie in (0, 2), got {r['exponents']}")
    _require(all(k >= 1 for k in r["modes"]), "fracheck", "modes",
             f"each must be at least 1, got {r['modes']}")
    _require(r["length"] > 0, "fracheck", "length", f"must be positive, got {r['length']}")
    return r


def report_params_from(sections) -> dict:
    r = resolve_section("report", REPORT_DEFAULTS, sections)
    r["levels"] = _tuple_of(float, "report", "levels", r["levels"])
    return r


def echo_sections(**named_sections) -> dict:
    """Assemble the resolved mapping that goes into the run manifest."""
    return {name: dict(mapping) for name, mapping in named_sections.items() if mapping}
