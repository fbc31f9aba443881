import re
import sys
from pathlib import Path

import pytest

from levyflow.config import (
    ENSEMBLE_DEFAULTS,
    MACRO_DEFAULTS,
    MICRO_DEFAULTS,
    SECTION_DEFAULTS,
    _parse_scalar,
    ensemble_config_from,
    fracheck_params_from,
    macro_config_from,
    micro_config_from,
    parse_config_text,
    render_config,
    resolve_section,
    symbol_params_from,
)
from levyflow.errors import ConfigInvalid
from levyflow.macro import MacroConfig
from levyflow.micro import MicroConfig

SAMPLE = """
# comment
[macro]
gamma_1 = 0.01   # growth
N = 20

[micro]
noise = switching
M = 100

[ensemble]
snapshot_steps = 0, 10, 20
"""


def test_parse_basic():
    sections = parse_config_text(SAMPLE)
    assert sections["macro"]["gamma_1"] == 0.01
    assert sections["macro"]["N"] == 20
    assert sections["micro"]["noise"] == "switching"
    assert sections["ensemble"]["snapshot_steps"] == (0, 10, 20)


def test_parse_errors():
    with pytest.raises(ConfigInvalid):
        parse_config_text("key = 1\n")  # outside a section
    with pytest.raises(ConfigInvalid):
        parse_config_text("[s]\nnot a pair\n")
    with pytest.raises(ConfigInvalid):
        parse_config_text("[]\n")
    with pytest.raises(ConfigInvalid, match=r"unknown section \[macr\]"):
        parse_config_text("[macr]\nN = 20\n")


@pytest.mark.parametrize("section, key, value", [
    ("macro", "N_x1", 21.7),
    ("macro", "qwiener_modes", 4.9),
    ("macro", "N", True),
    ("symbol", "points", float("inf")),
    ("ensemble", "snapshot_steps", (0, 50.5)),
    ("fracheck", "modes", (1, 2.5)),
    ("fracheck", "exponents", ("x",)),
])
def test_non_integral_and_unreadable_values_rejected(section, key, value):
    resolvers = {
        "macro": macro_config_from,
        "symbol": symbol_params_from,
        "ensemble": lambda s: ensemble_config_from(s, 1, 1),
        "fracheck": fracheck_params_from,
    }
    with pytest.raises(ConfigInvalid, match=key):
        resolvers[section]({section: {key: value}})


def test_integral_floats_accepted_for_integer_keys():
    cfg, echo = macro_config_from({"macro": {"N_x1": 21.0, "qwiener_modes": 4.0}})
    assert cfg.grid.shape == (21, 21) and cfg.qwiener_modes == 4
    assert echo["N_x1"] == 21 and isinstance(echo["N_x1"], int)


def test_render_parse_round_trip():
    sections = {"macro": dict(MACRO_DEFAULTS), "ensemble": dict(ENSEMBLE_DEFAULTS)}
    text = render_config(sections)
    reparsed = parse_config_text(text)
    cfg1, _ = macro_config_from(sections)
    cfg2, _ = macro_config_from(reparsed)
    assert cfg1 == cfg2
    ens1, _ = ensemble_config_from(sections, 1, 1)
    ens2, _ = ensemble_config_from(reparsed, 1, 1)
    assert ens1 == ens2


def test_defaults_produce_default_dataclasses():
    cfg, echo = macro_config_from({})
    assert cfg == MacroConfig()
    assert echo == MACRO_DEFAULTS
    mcfg, mecho = micro_config_from({})
    assert mcfg == MicroConfig()
    assert mecho == MICRO_DEFAULTS


def test_overrides_applied():
    sections = parse_config_text(SAMPLE)
    cfg, _ = macro_config_from(sections)
    assert cfg.gamma_1 == 0.01
    assert cfg.n_steps == 20
    mcfg, _ = micro_config_from(sections)
    assert mcfg.noise == "switching"
    assert mcfg.n_particles == 100


def test_unknown_keys_rejected():
    with pytest.raises(ConfigInvalid):
        resolve_section("macro", MACRO_DEFAULTS, {"macro": {"bogus": 1}})


def test_unknown_noise_rejected():
    with pytest.raises(ConfigInvalid):
        micro_config_from({"micro": {"noise": "levy"}})


def test_noise_names():
    cfg, _ = micro_config_from({"micro": {"noise": "cauchy_modulated"}})
    assert cfg.noise == "cauchy_modulated"


def test_micro_limits_accept_their_edge_values():
    # widths <= 0 smooth nothing; sizes up to NumPy's array limit resolve
    cfg, _ = micro_config_from({"micro": {
        "deposit_bandwidth": 0.0, "tissue_smooth_sigma": -1.0, "acid_sigma": -0.27,
        "M": 2**58 - 1}})
    assert cfg.deposit_bandwidth == 0.0 and cfg.n_particles == 2**58 - 1
    cfg, _ = micro_config_from({"micro": {"acid_sigma": 9.4e153, "grid_points": 2**29 - 1}})
    assert cfg.grid.shape == (2**29 - 1,) * 2
    for key, value in (("acid_sigma", 9.5e153), ("M", 2**58), ("grid_points", 2**29)):
        with pytest.raises(ConfigInvalid, match=f"\\[micro\\] {key}:"):
            micro_config_from({"micro": {key: value}})


def test_macro_grid_and_symbol_ray_accept_their_edge_sizes():
    # up to 2^58 - 1 grid nodes or probe points resolve; one more names its key
    limit = 2**58 - 1
    cfg, _ = macro_config_from({"macro": {"N_x1": limit // 8, "N_x2": 8}})
    assert cfg.grid.node_count == (limit // 8) * 8
    assert symbol_params_from({"symbol": {"points": limit}})["points"] == limit
    for sections, key in (({"macro": {"N_x1": limit // 8 + 1, "N_x2": 8}}, "N_x2"),
                          ({"macro": {"N_x1": limit + 1}}, "N_x1")):
        with pytest.raises(ConfigInvalid, match=f"\\[macro\\] {key}: at most"):
            macro_config_from(sections)
    with pytest.raises(ConfigInvalid, match="\\[symbol\\] points: at most"):
        symbol_params_from({"symbol": {"points": limit + 1}})


def test_lattice_may_span_the_whole_box():
    cfg, _ = micro_config_from({"micro": {"lattice_lo": 0.0, "lattice_hi": 2.0,
                                          "domain_length": 2.0}})
    assert (cfg.lattice_lo, cfg.lattice_hi) == (0.0, 2.0)


def test_fracheck_limits_accept_their_edge_values():
    # spacings length / M in [1e-100, 1e100] on the resolutions 4 and 8
    for length in (8e-100 * 1.001, 4e100 * 0.999):
        fracheck_params_from({"fracheck": {"resolutions": (4, 8), "length": length, "modes": 1}})
    for length in (8e-100 * 0.999, 4e100 * 1.001):
        with pytest.raises(ConfigInvalid, match="\\[fracheck\\] length:"):
            fracheck_params_from({"fracheck": {"resolutions": (4, 8), "length": length,
                                               "modes": 1}})
    # the smallest normal float is the smallest exponent
    fracheck_params_from({"fracheck": {"exponents": sys.float_info.min}})
    with pytest.raises(ConfigInvalid, match="\\[fracheck\\] exponents:"):
        fracheck_params_from({"fracheck": {"exponents": sys.float_info.min / 2}})
    cap = sys.maxsize // (8 * 3 * 3)  # 3 exponents and 3 modes
    fracheck_params_from({"fracheck": {"resolutions": (96, cap)}})
    with pytest.raises(ConfigInvalid, match="\\[fracheck\\] resolutions:"):
        fracheck_params_from({"fracheck": {"resolutions": (96, cap + 1)}})


def test_grid_built_from_table_keys():
    cfg, _ = macro_config_from({"macro": {"h_x1": 0.2, "N_x1": 10, "h_x2": 0.1, "N_x2": 30}})
    assert cfg.grid.shape == (10, 30)
    assert cfg.grid.lengths == (pytest.approx(2.0), pytest.approx(3.0))


def test_fracheck_params_normalized():
    params = fracheck_params_from({"fracheck": {"resolutions": "64"}})
    assert params["resolutions"] == (64,)
    assert params["exponents"] == (0.5, 1.0, 1.5)


def _documented_defaults():
    """{section: {key: default}} read from the key tables of docs/config.md.

    A row may name several keys with one shared default or one default
    each (`a`, `a_1`, `a_2` | 1.0, 0.6, 0.9); a single key with several
    values is a list default.
    """
    text = (Path(__file__).resolve().parents[1] / "docs" / "config.md").read_text()
    documented = {}
    section = None
    for line in text.splitlines():
        heading = re.match(r"## `\[(\w+)\]`$", line)
        if heading:
            section = heading.group(1)
            continue
        if not line.startswith("|"):
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        if cells[0] in SECTION_DEFAULTS:  # the shared table: section | key | default
            section, cells = cells[0], cells[1:]
        elif not cells[0].startswith("`"):  # header or rule
            continue
        keys = re.findall(r"`(\w+)`", cells[0])
        raw = cells[1]
        if raw.startswith("`"):
            values = (raw.split("`")[1],)
        elif raw == "(empty)":
            values = ((),)
        else:
            values = tuple(_parse_scalar(v) for v in raw.split(","))
        if len(keys) == 1 and len(values) > 1:
            values = (values,)
        if len(values) == 1:
            values = values * len(keys)
        assert len(keys) == len(values), line
        for key, value in zip(keys, values):
            assert key not in documented.setdefault(section, {}), (section, key)
            documented[section][key] = value
    return documented


def test_docs_tables_match_defaults():
    documented = _documented_defaults()
    assert set(documented) == set(SECTION_DEFAULTS)
    for section, defaults in SECTION_DEFAULTS.items():
        assert documented[section] == defaults, section
        for key, value in defaults.items():
            assert type(documented[section][key]) is type(value), (section, key)
