"""Property test of the config contract: no config value escapes ``cli.main``
as an uncaught exception, and every run ends with a documented exit code.

Each example overrides one or more keys of one section with adversarial
values on top of a tiny base config and runs the section's command through
``cli.main`` with one worker.  Size and run-length keys get only small
values, values the resolvers refuse, or values past the documented limits,
since a size in between allocates a large array and a long run takes long.
"""

import concurrent.futures
import contextlib
import io
import struct
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from levyflow import cli
from levyflow.config import (
    ENSEMBLE_DEFAULTS,
    FRACHECK_DEFAULTS,
    MACRO_DEFAULTS,
    MICRO_DEFAULTS,
    SYMBOL_DEFAULTS,
)

# README: 0 success, 2 config, 3 evaluation, 4 fracheck convergence,
# 5 solver divergence, 6 invariant violation
EXIT_CODES = {0, 2, 3, 4, 5, 6}

TABLES = {
    "macro": MACRO_DEFAULTS,
    "micro": MICRO_DEFAULTS,
    "ensemble": ENSEMBLE_DEFAULTS,
    "symbol": SYMBOL_DEFAULTS,
    "fracheck": FRACHECK_DEFAULTS,
}

# a tiny run of every command; the drawn keys override these
BASE = {
    "macro": {"N": "1", "N_x1": "5", "N_x2": "5", "qwiener_modes": "1"},
    "micro": {"M": "20", "N": "2", "grid_points": "9"},
    "ensemble": {"M": "2", "kind": "micro"},
    "symbol": {"points": "5"},
    "fracheck": {"resolutions": "8, 16", "exponents": "1.0", "modes": "1"},
}

COMMANDS = {
    "macro": (["macro"], ["ensemble", "--kind", "macro"]),
    "micro": (["micro"], ["ensemble", "--kind", "micro"]),
    "ensemble": (["ensemble"],),
    "symbol": (["symbol"],),
    "fracheck": (["fracheck"],),
}

# keys with no upper limit: a large value only makes the run long
RUN_LENGTH = {("macro", "N"), ("micro", "N"), ("ensemble", "M")}
# keys with a documented upper limit
SIZES = {("macro", "N_x1"), ("macro", "N_x2"), ("micro", "M"), ("micro", "grid_points"),
         ("symbol", "points"), ("fracheck", "resolutions")}

# refused by every numeric key
REFUSED = ("0", "-1", "-1e308", "1e-300", "nan", "inf", "-inf", "abc", "", "true")
SMALL = ("1", "2", "3", "5")
PAST_LIMITS = ("1e308", "1e19", str(2**63))
# a comma makes a list, which a scalar key refuses
LISTS = ("2, 3", "1, nan", ", ", "5, 1e308")
ADVERSARIAL = REFUSED + SMALL + PAST_LIMITS + LISTS + ("1e-320", "0.5", "-0.0", "0.999")


def _values(section: str, key: str):
    if (section, key) in RUN_LENGTH:
        return st.sampled_from(REFUSED + SMALL + LISTS[:3])
    if (section, key) in SIZES:
        return st.sampled_from(REFUSED + SMALL + PAST_LIMITS + LISTS)
    return st.sampled_from(ADVERSARIAL)


def _overrides(section: str):
    keys = st.lists(st.sampled_from(sorted(TABLES[section])), min_size=1, max_size=3,
                    unique=True)
    return keys.flatmap(lambda ks: st.fixed_dictionaries({k: _values(section, k) for k in ks}))


def _no_pool(*args, **kwargs):
    raise AssertionError("a one-worker run started a process pool")


@pytest.mark.parametrize("section", sorted(TABLES))
@settings(max_examples=60, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_no_config_value_escapes_as_an_exception(section, data, monkeypatch):
    overrides = data.draw(_overrides(section), label="overrides")
    command = data.draw(st.sampled_from(COMMANDS[section]), label="command")
    sections = {name: dict(values) for name, values in BASE.items()}
    sections[section].update(overrides)
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
                   for name, values in sections.items())
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfgfile = Path(tmp) / "fuzz.cfg"
        cfgfile.write_text(text)
        # the console script runs under Python's default warning filters,
        # which print a RuntimeWarning rather than raise it
        with warnings.catch_warnings(), contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("ignore", RuntimeWarning)
            code = cli.main(["--config", str(cfgfile), "--workers", "1",
                             "--out", str(Path(tmp) / "out"), *command])
    assert code in EXIT_CODES, (code, stderr.getvalue())
    if code == 2:
        assert stderr.getvalue().startswith("config error:")
        assert f"[{section}]" in stderr.getvalue(), stderr.getvalue()


# LVF1 payload values, one of them at most not finite, and --vmin / --vmax
# bounds: the largest and smallest doubles, plain values and the non-finite
FINITE = (0.0, -0.0, 1.0, -2.5, 0.5, 1e308, -1.7e308, 5e-324)
NON_FINITE = (float("nan"), float("inf"), float("-inf"))
BOUNDS = st.none() | st.sampled_from(
    ("0", "1", "-1", "0.5", "1e308", "-1e308", "5e-324", "nan", "inf", "-inf"))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(mx=st.integers(2, 4) | st.integers(0, 1), my=st.integers(1, 4) | st.just(0),
       data=st.data(),
       extra=st.just(0) | st.integers(-9, 9),
       vmin=BOUNDS, vmax=BOUNDS)
def test_report_on_any_snapshot_and_bounds_ends_with_an_exit_code(mx, my, data, extra,
                                                                 vmin, vmax):
    """A drawn LVF1 file, whose payload may miss or exceed ``Mx*My`` values
    by a few bytes, rendered with drawn bounds: every run ends with exit 0
    or, naming the file or the flag, exit 2, and raises no RuntimeWarning."""
    values = data.draw(st.lists(st.sampled_from(FINITE), min_size=mx * my,
                                max_size=mx * my), label="values")
    if values and data.draw(st.booleans(), label="one not finite"):
        spot = data.draw(st.integers(0, len(values) - 1), label="at")
        values[spot] = data.draw(st.sampled_from(NON_FINITE), label="value")
    raw = b"LVF1" + struct.pack(f"<II{len(values)}d", mx, my, *values)
    raw = raw[:len(raw) + extra] if extra < 0 else raw + bytes(extra)
    flags = [f"--{name}={value}" for name, value in (("vmin", vmin), ("vmax", vmax))
             if value is not None]
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        snap = Path(tmp) / "snap.lvf"
        snap.write_bytes(raw)
        with warnings.catch_warnings(), contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["--out", str(Path(tmp) / "out"), "report", str(snap), *flags])
    assert code in (0, 2), (code, stderr.getvalue())
    if code == 2:
        message = stderr.getvalue()
        assert message.startswith((f"config error: {snap}: ", "config error: --vmin: ",
                                   "config error: --vmax: ")), message
