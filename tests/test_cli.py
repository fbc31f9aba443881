import argparse
import ast
import csv
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import levyflow
from levyflow.cli import main
from levyflow.formats import fmt17, read_grid_binary, render_pgm, write_grid_binary
from levyflow.grids import Grid, GridField
from levyflow.macro import MacroConfig

BENCH_REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"

GOLDEN_PGM_SHA256 = "0bc218a1ec0af04d428d1ed8b7a0f42d96e2e4ebe728c583e7a1362db49baecf"

# fracheck.csv on the default ladder and on the 96...1536 benchmark ladder
GOLDEN_FRACHECK_SHA256 = {
    "default": (None, "4aab782211af0cbf7fb016b1ce1643271fdac7b971805c4d9643b3b9fc77ecd9"),
    "bench_ladder": (
        "[fracheck]\nresolutions = 96, 192, 384, 768, 1536\n"
        "exponents = 0.5, 1.0, 1.5\nmodes = 1, 2, 3\n",
        "59c5a5e44abf9c74c62d28e352d99a751a7c0044a7df8dc70a1454cef88cb92b",
    ),
}


def _run(*argv):
    return main(list(argv))


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_symbol_unknown_name_exits_2(tmp_path):
    assert _run("--out", str(tmp_path), "symbol", "--name", "nope") == 2


def test_symbol_real_valued_and_growth_ratio(tmp_path):
    out = tmp_path / "o"
    assert _run("--out", str(out), "symbol", "--name", "alpha_stable") == 0
    rows = _read_csv(out / "symbol_alpha_stable.csv")
    header = rows[0]
    im_col = header.index("im_psi")
    ratio_col = header.index("growth_ratio")
    ims = [abs(float(r[im_col])) for r in rows[1:]]
    ratios = [float(r[ratio_col]) for r in rows[1:]]
    assert max(ims) == 0.0
    assert max(ratios) <= 1.0  # |xi|^1.5 / (1 + xi^2) stays below 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"]


def test_fracheck_exit_0_and_csv(tmp_path):
    out = tmp_path / "o"
    assert _run("--out", str(out), "fracheck") == 0
    rows = _read_csv(out / "fracheck.csv")
    assert rows[0] == ["exponent", "mode", "points", "rel_error"]
    assert len(rows) == 1 + 3 * 3 * 3


@pytest.mark.parametrize("ladder", list(GOLDEN_FRACHECK_SHA256))
def test_fracheck_csv_golden_digest(tmp_path, ladder):
    text, golden = GOLDEN_FRACHECK_SHA256[ladder]
    argv = ["--out", str(tmp_path / "o"), "fracheck"]
    if text is not None:
        cfgfile = tmp_path / "ladder.cfg"
        cfgfile.write_text(text)
        argv = ["--config", str(cfgfile), *argv]
    assert _run(*argv) == 0
    digest = hashlib.sha256((tmp_path / "o" / "fracheck.csv").read_bytes()).hexdigest()
    assert digest == golden
    if ladder == "bench_ladder":
        # the benchmark's correctness gate: no case's error above the recorded one
        recorded = json.loads(BENCH_REFERENCE.read_text())["fracheck"]["rel_error"]
        rows = _read_csv(tmp_path / "o" / "fracheck.csv")[1:]
        errors = {f"{float(p)}/{int(k)}/{int(m)}": float(e) for p, k, m, e in rows}
        assert set(errors) == set(recorded)
        for case, err in errors.items():
            assert err <= recorded[case] * (1.0 + 1e-6) + 1e-12, case


def test_fracheck_error_does_not_depend_on_the_length(tmp_path):
    # the operator scales exactly like the symbol, h^-p against (2 pi / L)^p,
    # so every relative error is the same on a long domain
    errors = []
    for length in ("1.0", "1e6"):
        cfgfile = tmp_path / f"{length}.cfg"
        cfgfile.write_text(f"[fracheck]\nresolutions = 96, 192, 384\nexponents = 1.5\n"
                           f"modes = 1\nlength = {length}\n")
        out = tmp_path / length
        assert _run("--config", str(cfgfile), "--out", str(out), "fracheck") == 0
        errors.append(np.array([float(r[3]) for r in _read_csv(out / "fracheck.csv")[1:]]))
    assert np.allclose(errors[1], errors[0], rtol=1e-9, atol=0.0)


def test_fracheck_rising_errors_exit_4(tmp_path, capsys):
    # a reversed ladder; and at p = 1.999 the mode-1 error rises from 1.2e-5
    # at 192 points to 5.5e-5 at 384, far above the rounding floor
    for name, text, cases in (("down", "resolutions = 192, 96", 3 * 3 * 2),
                              ("steep", "exponents = 1.999", 3 * 3)):
        cfgfile = tmp_path / f"{name}.cfg"
        cfgfile.write_text(f"[fracheck]\n{text}\n")
        out = tmp_path / name
        assert _run("--config", str(cfgfile), "--out", str(out), "fracheck") == 4
        assert "did not decrease monotonically" in capsys.readouterr().err
        assert len(_read_csv(out / "fracheck.csv")) == 1 + cases


def test_macro_steps_zero_initial_snapshot_only(tmp_path):
    out = tmp_path / "o"
    assert _run("--out", str(out), "macro", "--steps", "0") == 0
    lvfs = sorted(p.name for p in out.glob("*.lvf"))
    assert lvfs == ["C_step0000.lvf", "H_step0000.lvf", "N_step0000.lvf"]


def test_macro_series_times_are_step_times_tau(tmp_path):
    """series.csv writes step k's time as k * tau, not as a sum of k taus."""
    out = tmp_path / "o"
    cfgfile = tmp_path / "macro.cfg"
    cfgfile.write_text("[macro]\nN_x1 = 8\nN_x2 = 8\n")
    assert _run("--config", str(cfgfile), "--out", str(out), "macro", "--steps", "30") == 0
    rows = _read_csv(out / "series.csv")[1:]
    tau = MacroConfig().tau
    assert [int(r[0]) for r in rows] == [0, 10, 20, 30]
    assert [r[1] for r in rows] == [fmt17(int(r[0]) * tau) for r in rows]


def test_micro_survival_csv_monotone(tmp_path):
    out = tmp_path / "o"
    cfgfile = tmp_path / "micro.cfg"
    cfgfile.write_text("[micro]\nM = 400\nN = 12\n")
    assert _run("--config", str(cfgfile), "--out", str(out), "micro") == 0
    rows = _read_csv(out / "survival.csv")
    alive = [int(r[2]) for r in rows[1:]]
    assert all(a >= b for a, b in zip(alive, alive[1:]))
    assert (out / "acid_final.lvf").exists()


def test_micro_with_everyone_dead_at_the_first_step_exits_0(tmp_path):
    out = tmp_path / "o"
    cfgfile = tmp_path / "micro.cfg"
    cfgfile.write_text("[micro]\nM = 50\nN = 3\nh_3 = -1\n")
    assert _run("--config", str(cfgfile), "--out", str(out), "micro") == 0
    rows = _read_csv(out / "survival.csv")
    assert [int(r[2]) for r in rows[1:]] == [50, 0, 0, 0]
    assert (out / "acid_final.lvf").exists()


def test_ensemble_single_sample_equals_single_run(tmp_path):
    cfgfile = tmp_path / "e.cfg"
    cfgfile.write_text("[macro]\nN = 5\n\n[ensemble]\nsnapshot_steps = 5\n")
    out1 = tmp_path / "ens"
    out2 = tmp_path / "one"
    assert _run("--config", str(cfgfile), "--seed", "9", "--workers", "1",
                "--out", str(out1), "ensemble", "--samples", "1") == 0
    assert _run("--config", str(cfgfile), "--seed", "9", "--out", str(out2),
                "macro", "--steps", "5") == 0
    mean_h, _ = read_grid_binary(out1 / "mean_H_step0005.lvf")
    single_h, _ = read_grid_binary(out2 / "H_step0005.lvf")
    assert np.array_equal(mean_h, single_h)
    var_h, _ = read_grid_binary(out1 / "var_H_step0005.lvf")
    assert np.all(var_h == 0.0)


def test_report_missing_inputs_exit_2(tmp_path):
    assert _run("--out", str(tmp_path), "report", str(tmp_path / "absent.lvf")) == 2
    assert _run("--out", str(tmp_path), "report") == 2


def test_report_constant_field_uniform_gray(tmp_path):
    grid = Grid((1.0, 1.0), (6, 6))
    snap = tmp_path / "c.lvf"
    write_grid_binary(snap, GridField(grid, np.full(grid.shape, 2.0)))
    out = tmp_path / "o"
    assert _run("--out", str(out), "report", str(snap)) == 0
    raw = (out / "c.pgm").read_bytes()
    body = raw.split(b"255\n", 1)[1]
    assert set(body) == {128}
    assert (out / "c_contours.csv").exists()


def _lvf(mx, my, values):
    """An LVF1 file's bytes: the header for ``mx`` x ``my`` and ``values``."""
    return b"LVF1" + struct.pack("<II", mx, my) + np.asarray(values, "<f8").tobytes()


@pytest.mark.parametrize("raw, problem", [
    (_lvf(3, 3, np.zeros(8)), "76 bytes, but a 3x3 LVF1 grid takes 84"),
    (_lvf(3, 3, np.zeros(10)), "92 bytes, but a 3x3 LVF1 grid takes 84"),
    (_lvf(4, 1, np.zeros(4)) + b"x", "45 bytes, but a 4x1 LVF1 grid takes 44"),
    (_lvf(1, 1, [2.0]), "need at least 2 nodes per axis"),
    (_lvf(3, 0, []), "domain lengths must be positive"),
    (_lvf(2, 2, [0.0, np.nan, 1.0, 2.0]), "field contains non-finite values"),
    (_lvf(2, 1, [0.0, -np.inf]), "field contains non-finite values"),
    (b"LVF1\x02\x00", "not an LVF1 file"),
    (None, "cannot read"),
], ids=["short", "long", "trailing-byte", "1x1", "empty-axis", "nan", "1d-inf", "header",
        "directory"])
def test_report_refuses_a_malformed_snapshot(tmp_path, capsys, raw, problem):
    snap = tmp_path / "bad.lvf"
    if raw is None:
        snap.mkdir()
    else:
        snap.write_bytes(raw)
    assert _run("--out", str(tmp_path / "o"), "report", str(snap)) == 2
    assert f"config error: {snap}: {problem}" in capsys.readouterr().err


@pytest.mark.parametrize("bounds, problem", [
    (["--vmin", "nan"], "--vmin: must be finite, got nan"),
    (["--vmax", "inf"], "--vmax: must be finite, got inf"),
    (["--vmin=-inf", "--vmax", "1"], "--vmin: must be finite, got -inf"),
    (["--vmin", "5", "--vmax", "1"], "--vmin: must lie below --vmax, got 5.0 >= 1.0"),
    (["--vmin", "1", "--vmax", "1"], "--vmin: must lie below --vmax, got 1.0 >= 1.0"),
])
def test_report_refuses_bad_bounds(tmp_path, capsys, bounds, problem):
    snap = tmp_path / "c.lvf"
    snap.write_bytes(_lvf(2, 2, [0.0, 1.0, 2.0, 3.0]))
    assert _run("--out", str(tmp_path / "o"), "report", str(snap), *bounds) == 2
    assert problem in capsys.readouterr().err


def test_report_maps_values_beyond_a_double_range_without_overflow(tmp_path):
    """A range wider than the largest double is halved, and a value far
    outside the bounds takes the end gray, with no overflow warning."""
    snap = tmp_path / "wide.lvf"
    snap.write_bytes(_lvf(2, 2, [-1.7e308, 1.7e308, 0.0, 8.5e307]))
    assert _run("--out", str(tmp_path / "o"), "report", str(snap)) == 0
    assert (tmp_path / "o" / "wide.pgm").read_bytes().split(b"255\n", 1)[1] == bytes(
        [0, 255, 128, 191])
    # the level 0.5 crosses the first row's step from -1.7e308 to 1.7e308 halfway
    assert ["0.5", "0", "0.5"] in _read_csv(tmp_path / "o" / "wide_contours.csv")[1:]
    assert _run("--out", str(tmp_path / "p"), "report", str(snap), "--vmin", "1e308",
                "--vmax", "1.5e308") == 0
    assert set((tmp_path / "p" / "wide.pgm").read_bytes().split(b"255\n", 1)[1]) == {0, 255}


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
@pytest.mark.parametrize("by_env", [False, True], ids=["flag", "env"])
def test_output_path_on_a_file_exits_2(tmp_path, capsys, monkeypatch, below, by_env):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "sub" if below else blocker
    if by_env:
        monkeypatch.setenv("LEVYFLOW_OUT", str(out))
    assert _run("--out", str(out), "symbol") == 2
    assert f"config error: output directory {out}:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["symbol", "fracheck", "micro", "macro", "ensemble",
                                     "report"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_2(tmp_path, capsys, command, workers):
    assert _run("--workers", workers, "--out", str(tmp_path / "o"), command) == 2
    assert f"config error: --workers: need at least one worker, got {workers}" in (
        capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_the_default_worker_count_is_the_usable_cpus(tmp_path, capsys, monkeypatch):
    """Without --workers an ensemble runs on as many workers as the process
    may use CPUs, not on the host's count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    cfgfile = tmp_path / "micro.cfg"
    cfgfile.write_text("[micro]\nM = 50\nN = 2\n")
    assert _run("--config", str(cfgfile), "--out", str(tmp_path / "o"),
                "ensemble", "--kind", "micro", "--samples", "2") == 0
    assert "ensemble: 2 micro samples with 1 worker(s)" in capsys.readouterr().out


_TINY_MACRO = "[macro]\nN = 2\nN_x1 = 8\nN_x2 = 8\n"


@pytest.mark.parametrize("by_key", [False, True], ids=["base-seed", "ic_seed"])
def test_seeds_at_both_ends_of_the_u64_range_draw_their_own_streams(tmp_path, by_key):
    """2^64 - 1 is a valid seed, as the base seed and as ic_seed, and draws
    other numbers than seed 0 does."""
    digests = []
    for seed in (0, 2**64 - 1):
        cfgfile = tmp_path / f"{seed}.cfg"
        cfgfile.write_text(_TINY_MACRO + (f"ic_seed = {seed}\n" if by_key else ""))
        flags = [] if by_key else ["--seed", str(seed)]
        out = tmp_path / str(seed)
        assert _run("--config", str(cfgfile), "--out", str(out), *flags, "macro") == 0
        digests.append(_manifest_digests(out)["H_step0002.lvf"])
    assert digests[0] != digests[1]


def test_the_shared_parser_carries_nothing_between_calls(tmp_path, monkeypatch):
    """In one process, a macro run with every global flag and --steps, a
    call that argparse refuses and a bare macro run: the bare run gets the
    defaults, not the values of the calls before it."""
    from levyflow import cli
    from levyflow.config import parse_config_text

    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LEVYFLOW_OUT", raising=False)
    cfgfile = tmp_path / "m.cfg"
    cfgfile.write_text(_TINY_MACRO)
    given = tmp_path / "given"
    assert _run("--config", str(cfgfile), "--seed", "5", "--workers", "1",
                "--out", str(given), "macro", "--steps", "1") == 0
    with pytest.raises(SystemExit) as refused:
        _run("--seed", "6", "macro", "--steps", "two")
    assert refused.value.code == 2
    assert vars(cli.PARSER.parse_args(["macro"])) == {"command": "macro", "fn": cli.cmd_macro}
    assert _run("macro") == 0
    runs = [json.loads((out / "manifest.json").read_text()) for out in (given, tmp_path / "out")]
    assert [run["base_seed"] for run in runs] == [5, 12345]
    echoes = [parse_config_text(run["config"])["macro"] for run in runs]
    assert [(echo["N"], echo["N_x1"]) for echo in echoes] == [(1, 8), (150, 21)]


# one run of each command kind, small enough to run twice
_REPEATED_RUNS = {
    "symbol": ("", ["symbol", "--name", "poisson"]),
    "fracheck": ("", ["fracheck"]),
    "macro": (_TINY_MACRO, ["macro", "--steps", "2"]),
    "ensemble": ("[micro]\nM = 50\nN = 2\n", ["ensemble", "--kind", "micro", "--samples", "2"]),
}


def test_commands_run_twice_in_one_process_write_the_same_bytes(tmp_path):
    """Each command, run twice in one process with the others between,
    writes byte-identical outputs both times."""
    digests = {name: [] for name in _REPEATED_RUNS}
    for round_ in range(2):
        for name, (text, argv) in _REPEATED_RUNS.items():
            cfgfile = tmp_path / f"{name}.cfg"
            cfgfile.write_text(text)
            out = tmp_path / f"{name}{round_}"
            assert _run("--config", str(cfgfile), "--seed", "7", "--workers", "1",
                        "--out", str(out), *argv) == 0
            digests[name].append(_manifest_digests(out))
    for name, (first, second) in digests.items():
        assert first and first == second, name


def test_main_builds_no_parser_after_import(tmp_path, monkeypatch):
    """``main`` parses with the parser built at import: no call, whether it
    runs, fails its input checks or is refused by argparse, builds one."""
    from levyflow import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    assert _run("--out", str(tmp_path / "s"), "symbol", "--name", "bm_drift") == 0
    assert _run("--out", str(tmp_path / "r"), "report") == 2
    with pytest.raises(SystemExit):
        _run("nosuch")
    assert built == []
    cli.build_parser()  # the spy sees a build: the parser, `common` and six subparsers
    assert len(built) == 8


def test_golden_pgm_bytes_stable():
    grid = Grid((1.0, 1.0), (16, 16))
    xs, ys = grid.meshes()
    field = np.sin(2 * np.pi * xs) * np.cos(2 * np.pi * ys)
    raw = render_pgm(field, -1.0, 1.0)
    assert hashlib.sha256(raw).hexdigest() == GOLDEN_PGM_SHA256


# symbol_<name>.csv at the default [symbol] keys
GOLDEN_SYMBOL_CSV_SHA256 = {
    "bm_drift": "6f36523b2c2a4298209097f96abe866be4a7e3e804ca6594589a39c8818a5a23",
    "poisson": "0c109d6fc09076fa070b541b9688283342d9fab529de6a5edcc4ef7f256dd0a7",
    "compound_poisson": "94dc662ca3f02760f7682e5ac91e8840e06c0dd4c5b704ff10ae2ead61bddc6d",
    "full_triple": "91b2012db5ac51db00a49da5ce4e433214900d633877fa770378f7cf07d9b597",
    "alpha_stable": "4f6a29288aef871d5106a832b687426abc339119ad9d982742423055957d0ccf",
}


@pytest.mark.parametrize("name", list(GOLDEN_SYMBOL_CSV_SHA256))
def test_symbol_csv_golden_digest(tmp_path, name):
    assert _run("--out", str(tmp_path), "symbol", "--name", name) == 0
    digest = hashlib.sha256((tmp_path / f"symbol_{name}.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_SYMBOL_CSV_SHA256[name]


@pytest.mark.parametrize("name", list(GOLDEN_SYMBOL_CSV_SHA256))
def test_symbol_at_the_largest_squarable_xi_max_writes_finite_rows(tmp_path, name, capsys):
    """Just below sqrt(max double) ~ 1.34e154 every table symbol runs with no
    overflow warning (the suite raises them as errors); the bad-key table
    holds 1.35e154, which exits 2."""
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("[symbol]\nxi_max = 1.3e154\npoints = 3\n")
    assert _run("--config", str(cfgfile), "--out", str(tmp_path), "symbol", "--name", name) == 0
    rows = _read_csv(tmp_path / f"symbol_{name}.csv")[1:]
    assert len(rows) == 3 and all(math.isfinite(float(v)) for row in rows for v in row)
    assert math.isfinite(float(capsys.readouterr().out.split()[4]))


# report's <stem>_contours.csv at the default levels, with its row count: a
# 12 x 9 plane, a 9-point line, and a 3 x 3 field whose +-1e308 neighbours
# span more than a double
GOLDEN_CONTOUR_CASES = {
    "plane": (_lvf(12, 9, np.arange(108) * 0.37 % 1.0), 314,
              "6e4bd4875523332c48a616461918e721f488f2b4e6c2970c3586b43c903098d6"),
    "line": (_lvf(9, 1, np.arange(9) * 0.29 % 1.0), 12,
             "ff4b15feecec3c1f34d085d4badbf3f0b087d45904ad35fb15e16f23326ffcd6"),
    "wide": (_lvf(3, 3, [-1e308, 1e308, 0.0, 1e308, -1e308, 0.5, 0.3, 0.9, -1e308]), 32,
             "a76916380a3abdeec88c8c96b4b95a7fa268578b2167d9f4682c1867662c881b"),
}


@pytest.mark.parametrize("stem", list(GOLDEN_CONTOUR_CASES))
def test_contour_csv_golden_digest(tmp_path, stem):
    raw, rows, golden = GOLDEN_CONTOUR_CASES[stem]
    snap = tmp_path / f"{stem}.lvf"
    snap.write_bytes(raw)
    assert _run("--out", str(tmp_path / "o"), "report", str(snap)) == 0
    data = (tmp_path / "o" / f"{stem}_contours.csv").read_bytes()
    assert data.count(b"\r\n") - 1 == rows
    assert hashlib.sha256(data).hexdigest() == golden


def test_env_var_overrides_out(tmp_path, monkeypatch):
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("LEVYFLOW_OUT", str(env_dir))
    assert _run("--out", str(tmp_path / "ignored"), "symbol", "--name", "poisson") == 0
    assert (env_dir / "symbol_poisson.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_config_parse_failure_exit_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[macro]\ngamma_1 == oops\n")
    assert _run("--config", str(bad), "--out", str(tmp_path / "o"), "macro") == 2
    missing = tmp_path / "missing.cfg"
    assert _run("--config", str(missing), "--out", str(tmp_path / "o"), "macro") == 2


# each id carries its row's index (``argv<i>``): append new rows at the end,
# so that the ids of the rows above keep their names
@pytest.mark.parametrize("text, argv, problem", [
    ("[macr]\nN = 2\n", ["macro"], "unknown section [macr]"),
    ("[macro]\nN_x1 = 21.7\n", ["macro"], "N_x1"),
    ("[macro]\nN = 2\n\n[ensemble]\nsnapshot_steps = 0, 200\n",
     ["ensemble", "--kind", "macro", "--samples", "2"], "snapshot steps out of range"),
    ("[ensemble]\nexport_samples = 0, 5\n",
     ["ensemble", "--kind", "micro", "--samples", "2"], "export sample ids"),
    ("[macro]\ngamma_1 = -1\n", ["macro"], "[macro] gamma_1: rates must be nonnegative"),
    ("[macro]\nsigma_W = -0.1\n", ["macro"], "[macro] sigma_W:"),
    ("[macro]\ntau = 0\n", ["macro"], "[macro] tau: must be positive"),
    ("[macro]\nN = -1\n", ["macro"], "[macro] N: must be nonnegative"),
    ("[macro]\na_1 = 0.4\n", ["macro"], "[macro] a_1:"),
    ("[macro]\na_2 = 0.5\n", ["macro"], "[macro] a_2:"),
    ("[micro]\nM = 0\n", ["micro"], "[micro] M: need at least 1 particle"),
    ("[micro]\nN = -2\n", ["micro"], "[micro] N:"),
    ("[micro]\ntau = 0\n", ["micro"], "[micro] tau:"),
    ("[micro]\nh_1 = 2.0\n", ["micro"], "[micro] h_2: the viability band"),
    ("[micro]\nM = 0\n", ["ensemble", "--kind", "micro", "--samples", "2"], "[micro] M:"),
    # finite values past what a float or a NumPy array can hold
    ("[micro]\ndeposit_bandwidth = 1e308\n", ["micro"], "[micro] deposit_bandwidth:"),
    ("[micro]\nacid_sigma = 1e308\n", ["micro"], "[micro] acid_sigma:"),
    ("[micro]\ntissue_smooth_sigma = 1e308\n", ["micro"], "[micro] tissue_smooth_sigma:"),
    ("[micro]\ngrid_points = 1e308\n", ["micro"], "[micro] grid_points:"),
    ("[micro]\nM = 1e308\n", ["micro"], "[micro] M:"),
    ("[micro]\nM = 1e308\n", ["ensemble", "--kind", "micro", "--samples", "2"], "[micro] M:"),
    # the first value past each limit, and widths whose 2 sigma^2 is 0
    ("[micro]\ngrid_points = 536870912\n", ["micro"], "[micro] grid_points: at most"),
    ("[micro]\nM = 288230376151711744\n", ["micro"], "[micro] M: at most"),
    ("[micro]\nacid_sigma = 0\n", ["micro"], "[micro] acid_sigma:"),
    ("[micro]\nacid_sigma = 1e-300\n", ["micro"], "[micro] acid_sigma:"),
    ("[micro]\ntissue_smooth_sigma = 1e-300\n", ["micro"], "[micro] tissue_smooth_sigma:"),
    ("[micro]\ndeposit_bandwidth = 1e-300\n", ["micro"], "[micro] deposit_bandwidth:"),
    ("[macro]\nh0_sigma = 1e308\n", ["macro"], "[macro] h0_sigma:"),
    ("[macro]\nc0_sigma = 1e308\n", ["macro"], "[macro] c0_sigma:"),
    ("[macro]\nn0_smooth_sigma = 1e308\n", ["macro"], "[macro] n0_smooth_sigma:"),
    ("[macro]\nh_x1 = 1e-300\n", ["macro"], "[macro] h_x1:"),
    ("[macro]\nh_x2 = 1e-300\n", ["macro"], "[macro] h_x2:"),
    ("[macro]\nh_x1 = 1e300\n", ["macro"], "[macro] h_x1:"),
    ("[fracheck]\nlength = 1e308\n", ["fracheck"], "[fracheck] length:"),
    ("[fracheck]\nlength = 1e-300\n", ["fracheck"], "[fracheck] length:"),
    ("[fracheck]\nresolutions = 1e308\n", ["fracheck"], "[fracheck] resolutions:"),
    # the initial lattice must lie in the box [0, domain_length]
    ("[micro]\nlattice_lo = -1e300\n", ["micro"], "[micro] lattice_lo:"),
    ("[micro]\nlattice_hi = 1.5\n", ["micro"], "[micro] lattice_hi:"),
    ("[micro]\nlattice_lo = 0.8\n", ["micro"], "[micro] lattice_hi:"),
    # sizes past NumPy's array limit, and the first value past each limit
    ("[macro]\nN_x1 = 1e308\n", ["macro"], "[macro] N_x1: at most"),
    ("[macro]\nN_x2 = 1e308\n", ["macro"], "[macro] N_x2: at most"),
    ("[macro]\nN_x1 = 1e308\n", ["ensemble", "--kind", "macro", "--samples", "2"],
     "[macro] N_x1: at most"),
    ("[symbol]\npoints = 1e308\n", ["symbol"], "[symbol] points: at most"),
    ("[macro]\nN_x1 = 36028797018963968\nN_x2 = 8\n", ["macro"], "[macro] N_x2: at most"),
    ("[symbol]\npoints = 288230376151711744\n", ["symbol"], "[symbol] points: at most"),    # a subnormal exponent, whose Gamma(-p / 2) overflows
    ("[fracheck]\nexponents = 1e-320\n", ["fracheck"], "[fracheck] exponents:"),
    ("[fracheck]\nexponents = 1.0, 2.2250738585072009e-308\n", ["fracheck"],
     "[fracheck] exponents: each must be at least"),
    # keys checked past the section resolver name themselves too; the kind is
    # checked before the section it picks
    ("[micro]\nnoise = foo\n", ["micro"], "[micro] noise: unknown noise 'foo'"),
    ("[symbol]\nname = foo\n", ["symbol"], "[symbol] name: unknown symbol name 'foo'"),
    ("[ensemble]\nM = 0\n", ["ensemble"], "[ensemble] M: need at least one sample"),
    ("[ensemble]\nkind = foo\n\n[micro]\nM = 0\n", ["ensemble"],
     "[ensemble] kind: unknown ensemble kind 'foo'"),
    ("[macro]\nN = 2\n\n[ensemble]\nsnapshot_steps = 999\n", ["ensemble", "--samples", "2"],
     "[ensemble] snapshot_steps: snapshot steps out of range: [999]"),
    ("[ensemble]\nexport_samples = 0, 5\n", ["ensemble", "--samples", "2"],
     "[ensemble] export_samples: export sample ids outside [0, 2): [5]"),
    ("[ensemble]\nexport_samples = -1\n", ["ensemble", "--kind", "micro", "--samples", "2"],
     "[ensemble] export_samples: export sample ids outside [0, 2): [-1]"),
    ("[macro]\nN = 2\n\n[ensemble]\nsnapshot_steps = -1\n", ["ensemble", "--samples", "2"],
     "[ensemble] snapshot_steps: snapshot steps out of range: [-1]"),
    # lines the parser cannot read, named by their number
    ("[macro]\nN = 2\nnot a pair\n", ["macro"], "line 3: expected 'key = value'"),
    ("[macro]\n = 2\n", ["macro"], "line 2: empty key"),
    # a seed is one u64 word: the base seed and ic_seed are refused outside
    # [0, 2^64), not wrapped into it
    ("", ["--seed", "-1", "macro"], "config error: --seed: must lie in [0, 2^64), got -1"),
    ("", ["--seed", "18446744073709551616", "ensemble"], "config error: --seed:"),
    ("", ["micro", "--seed", "-18446744073709551616"], "config error: --seed:"),
    ("[macro]\nic_seed = -1\n", ["macro"],
     "[macro] ic_seed: must lie in [0, 2^64), got -1"),
    ("[macro]\nic_seed = 18446744073709551616\n", ["ensemble", "--samples", "2"],
     "[macro] ic_seed:"),
    ("[micro]\nic_seed = -1\n", ["micro"], "[micro] ic_seed: must lie in [0, 2^64), got -1"),
    ("[micro]\nic_seed = 1e308\n", ["ensemble", "--kind", "micro", "--samples", "2"],
     "[micro] ic_seed:"),
    # sample 0 draws its noise from stream (--seed, 0) and the initial fields
    # from stream (ic_seed, 0), so the two seeds must differ
    ("", ["--seed", "171717", "macro"],
     "config error: --seed: must differ from [macro] ic_seed, both 171717"),
    ("[micro]\nic_seed = 5\n", ["--seed", "5", "micro"],
     "config error: --seed: must differ from [micro] ic_seed, both 5"),
    ("[macro]\nic_seed = 5\n", ["--seed", "5", "ensemble", "--samples", "2"],
     "config error: --seed: must differ from [macro] ic_seed"),
    ("", ["ensemble", "--kind", "micro", "--samples", "2", "--seed", "424242"],
     "config error: --seed: must differ from [micro] ic_seed"),
])
def test_bad_config_values_exit_2(tmp_path, capsys, text, argv, problem):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(text)
    assert _run("--config", str(cfgfile), "--workers", "1", "--out", str(tmp_path / "o"),
                *argv) == 2
    assert problem in capsys.readouterr().err


def test_fracheck_tiny_exponent_runs_to_a_verdict(tmp_path):
    # at p = 1e-300 operator and oracle both take every nonzero mode to -1 (to
    # within rounding), so the errors are rounding noise, which need not fall
    cfgfile = tmp_path / "tiny.cfg"
    cfgfile.write_text("[fracheck]\nexponents = 1e-300\n")
    out = tmp_path / "o"
    assert _run("--config", str(cfgfile), "--out", str(out), "fracheck") == 0
    errors = [float(row[3]) for row in _read_csv(out / "fracheck.csv")[1:]]
    assert 0 < max(errors) <= 1e-12


@pytest.mark.parametrize("text, command, key", [
    ("[macro]\nN_x1 = 1\n", "macro", "N_x1"),
    ("[macro]\nh_x1 = -0.1\n", "macro", "h_x1"),
    ("[macro]\nN_x1 = 4\n", "macro", "qwiener_modes"),
    ("[macro]\nqwiener_modes = 0\n", "macro", "qwiener_modes"),
    ("[micro]\ngrid_points = 1\n", "micro", "grid_points"),
    ("[micro]\ndomain_length = 0\n", "micro", "domain_length"),
    ("[fracheck]\nresolutions = 1\n", "fracheck", "resolutions"),
    ("[fracheck]\nresolutions = 2\n", "fracheck", "resolutions"),
    ("[fracheck]\nlength = 0\n", "fracheck", "length"),
    ("[fracheck]\nexponents = 0.5, 2.0\n", "fracheck", "exponents"),
    ("[fracheck]\nmodes = 0\n", "fracheck", "modes"),
    ("[fracheck]\nexponents =\n", "fracheck", "exponents"),
    ("[fracheck]\nresolutions =\n", "fracheck", "resolutions"),
    ("[fracheck]\nresolutions = 3, 6\nmodes = 3\n", "fracheck", "modes"),
    ("[fracheck]\nresolutions = 96, 8\nmodes = 1, 5\n", "fracheck", "modes"),
    ("[symbol]\npoints = 0\n", "symbol", "points"),
    ("[symbol]\npoints = -5\n", "symbol --name poisson", "points"),
    ("[symbol]\nxi_max = -1\n", "symbol", "xi_max"),
    ("[symbol]\nxi_max = 0\n", "symbol --name bm_drift", "xi_max"),
    ("[symbol]\nxi_max = 1.35e154\n", "symbol", "xi_max"),
    ("[macro]\ntau = nan\n", "macro", "tau"),
    ("[macro]\ngamma_1 = nan\n", "macro", "gamma_1"),
    ("[macro]\nsigma_W = inf\n", "macro", "sigma_W"),
    ("[macro]\nsolver_tol = -1\n", "macro", "solver_tol"),
    ("[macro]\nsolver_tol = 0\n", "macro", "solver_tol"),
    ("[macro]\na = -1\n", "macro", "a"),
    ("[macro]\na = 0\n", "macro", "a"),
])
def test_bad_grid_keys_exit_2(tmp_path, capsys, text, command, key):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(text)
    assert _run("--config", str(cfgfile), "--out", str(tmp_path / "o"), *command.split()) == 2
    assert f"] {key}:" in capsys.readouterr().err


@pytest.mark.parametrize("key, code, message", [
    ("tau = 1e308", 5, "solver diverged: sample 0 failed (base_seed=12345, stream_index=0): "
                       "SolverDiverged: "),
    ("h0_amp = -1", 6, "invariant violated: sample 0 failed (base_seed=12345, stream_index=0): "
                       "InvariantViolation: "),
], ids=["solver_diverged", "invariant_violated"])
def test_failed_ensemble_sample_exits_as_its_cause(tmp_path, capsys, key, code, message):
    """An ensemble exits with the code its failing sample's own error gives
    a single run, and the message still names the seed and sample."""
    cfgfile = tmp_path / "fail.cfg"
    cfgfile.write_text(f"[macro]\n{key}\nN = 3\n")
    argv = ["--config", str(cfgfile), "--workers", "1", "--out", str(tmp_path / "o")]
    assert _run(*argv, "macro") == code
    capsys.readouterr()
    assert _run(*argv, "ensemble", "--kind", "macro", "--samples", "2") == code
    assert message in capsys.readouterr().err


def test_h_step_breakdown_names_the_step_and_its_keys(tmp_path, capsys):
    """A failed H-step solve exits 5 with a message that names the H-step,
    the step, the stencil's dominance and the keys that set the stencil."""
    cfgfile = tmp_path / "loose.cfg"
    cfgfile.write_text("[macro]\nN = 20\ntau = 3.0\ngamma_f = 0.5\n")
    assert _run("--config", str(cfgfile), "--seed", "7", "--out", str(tmp_path / "o"),
                "macro") == 5
    err = capsys.readouterr().err
    assert "solver diverged: H-step at step 1:" in err
    assert "off-diagonal weight sum" in err
    assert all(key in err for key in ("[macro] tau", "sigma_H", "gamma_f"))


@pytest.mark.parametrize("key", ["sigma_W = 1e200", "gamma_1 = 1e300"])
def test_h_step_breakdown_on_a_dominant_stencil_names_the_rhs_keys(tmp_path, capsys, key):
    """When the stencil is strictly diagonally dominant, a failed H-step
    solve names the keys of its right-hand side, not of its stencil.  At
    tau = 1 the Jacobi start does not meet solver_tol, and BiCGSTAB's dot
    products of a residual this large overflow."""
    cfgfile = tmp_path / "rhs.cfg"
    cfgfile.write_text(f"[macro]\nN = 3\ntau = 1.0\n{key}\n")
    assert _run("--config", str(cfgfile), "--seed", "7", "--out", str(tmp_path / "o"),
                "macro") == 5
    err = capsys.readouterr().err
    assert "solver diverged: H-step at step 1:" in err
    assert "strictly diagonally dominant" in err
    assert all(name in err for name in ("[macro] tau", "gamma_1", "sigma_W"))
    assert "sigma_H" not in err and "gamma_f" not in err


def test_a_non_finite_h_step_rhs_names_the_initial_h_keys(tmp_path, capsys):
    """An initial H whose right-hand side overflows exits 5, naming the
    keys that set the initial H and the right-hand side; no overflow
    RuntimeWarning escapes (the suite raises them as errors)."""
    cfgfile = tmp_path / "h0.cfg"
    cfgfile.write_text("[macro]\nN = 3\nh0_amp = 1e308\n")
    assert _run("--config", str(cfgfile), "--out", str(tmp_path / "o"), "macro") == 5
    err = capsys.readouterr().err
    assert "solver diverged: H-step at step 1:" in err
    assert "the right-hand side is not finite" in err
    assert all(name in err for name in ("[macro] h0_amp", "h0_sigma", "tau", "gamma_1",
                                        "sigma_W"))


@pytest.mark.parametrize("keys, cause", [
    ("c0_amp = 1e308", "the stencil is set by the step's C, here the initial C of [macro] "
                       "c0_amp and c0_sigma, and otherwise set by [macro] tau, sigma_H and "
                       "gamma_f)"),
    ("h0_amp = 1e308\nc0_amp = 1e308", "the right-hand side is not finite; it is set by the "
                                       "step's H, here the initial H of [macro] h0_amp"),
], ids=["c0", "h0_and_c0"])
def test_an_overflowing_initial_field_fails_step_1_quietly(tmp_path, capsys, keys, cause):
    """On the default 21 x 21 grid an initial C or H this large overflows
    the tissue update and the H-step's stencil: the run exits 5, naming the
    initial field's keys, and no RuntimeWarning escapes (the suite raises
    them as errors)."""
    cfgfile = tmp_path / "ic.cfg"
    cfgfile.write_text(f"[macro]\nN = 1\n{keys}\n")
    assert _run("--config", str(cfgfile), "--seed", "7", "--out", str(tmp_path / "o"),
                "macro") == 5
    err = capsys.readouterr().err
    assert "solver diverged: H-step at step 1:" in err
    assert cause in err


def test_an_h_step_stencil_failure_names_the_c_step_that_set_it(tmp_path, capsys):
    """A C that step 1 solved from an absurd gamma_2 fails step 2's H-step
    on its stencil; the message names that C and the C-step's keys before
    the stencil's own."""
    cfgfile = tmp_path / "gamma_2.cfg"
    cfgfile.write_text("[macro]\nN = 3\ngamma_2 = 1e300\n")
    assert _run("--config", str(cfgfile), "--seed", "7", "--out", str(tmp_path / "o"),
                "macro") == 5
    err = capsys.readouterr().err
    assert "solver diverged: H-step at step 2:" in err
    assert ("the stencil is set by the step's C, here the C that step 1 solved with [macro] "
            "tau, gamma_2, gamma_C, gamma_g and gamma_h, and otherwise set by [macro] tau, "
            "sigma_H and gamma_f)") in err


def test_a_c_step_miss_with_a_finite_rhs_names_its_keys(tmp_path, capsys):
    """A C-step whose right-hand side is finite but whose shift is absurd
    misses solver_tol; the message names the keys of the shift and the
    tolerance."""
    cfgfile = tmp_path / "gamma_C.cfg"
    cfgfile.write_text("[macro]\nN = 1\ngamma_C = 1e300\n")
    assert _run("--config", str(cfgfile), "--seed", "7", "--out", str(tmp_path / "o"),
                "macro") == 5
    err = capsys.readouterr().err
    assert "solver diverged: C-step residual " in err
    assert ("above solver_tol 1.000e-10 at step 1; the right-hand side is finite; the solve's "
            "shift is set by [macro] tau and gamma_C, and its tolerance by solver_tol") in err


@pytest.mark.parametrize("key", ["sigma_W = 1e200", "gamma_1 = 1e300"])
def test_a_non_finite_c_step_rhs_names_its_keys_and_those_of_h(tmp_path, capsys, key):
    """An H-step that solves to a finite H this large overflows the C-step's
    taxis fluxes: the run exits 5, naming the C-step, its step and the keys
    of its right-hand side and of H; no overflow RuntimeWarning escapes
    (the suite raises them as errors)."""
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(f"[macro]\nN = 3\n{key}\n")
    assert _run("--config", str(cfgfile), "--seed", "7", "--out", str(tmp_path / "o"),
                "macro") == 5
    err = capsys.readouterr().err
    assert "solver diverged: C-step residual nan above solver_tol" in err
    assert "at step 1; the right-hand side is not finite" in err
    assert all(name in err for name in ("[macro] tau", "gamma_2", "gamma_g", "gamma_h",
                                        "gamma_1", "sigma_W"))


def _package_env():
    """This environment with the tested package first on PYTHONPATH."""
    src = str(Path(levyflow.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


_FAILING_SAMPLE_PROBE = """
import sys
from levyflow import cli
from levyflow.drivers import RngStream
normal = RngStream.normal
def nan_for_stream_2(self, size=None, out=None):
    return normal(self, size, out) * (float("nan") if self.stream_index == 2 else 1.0)
RngStream.normal = nan_for_stream_2  # the pool starts by fork: its workers inherit it
sys.exit(cli.main(sys.argv[1:]))
"""


def test_a_failed_two_worker_ensemble_prints_only_its_error(tmp_path):
    """A macro ensemble whose sample 2 fails at step 1 exits with one line
    on stderr at two workers: the process pool shuts down with the run, not
    when the interpreter exits and its pipes are already closed."""
    done = subprocess.run([sys.executable, "-c", _FAILING_SAMPLE_PROBE, "--seed", "7",
                           "--workers", "2", "--out", str(tmp_path / "o"), "ensemble",
                           "--kind", "macro", "--samples", "4"],
                          env=_package_env(), capture_output=True, text=True)
    assert done.returncode == 3
    (line,) = done.stderr.splitlines()
    assert line.startswith("error: sample 2 failed (base_seed=7, stream_index=2): GridMismatch: ")


_IMPORT_PROBE = """
import json, sys
from levyflow import cli
out = sys.argv[1]
with open(out + "/tiny.cfg", "w") as fh:
    fh.write("[micro]\\nM = 50\\nN = 2\\n")
codes = [cli.main(["--out", out + "/f", "fracheck"]),
         cli.main(["--config", out + "/tiny.cfg", "--workers", "1", "--out", out + "/e",
                   "ensemble", "--kind", "micro", "--samples", "2"])]
heavy = ("concurrent.futures.process", "multiprocessing", "numpy.polynomial")
print(json.dumps([codes, [name for name in heavy if name in sys.modules]]))
"""


def _run_probe(script, *args, **env):
    """The last line ``script`` prints in a fresh interpreter, whose
    environment also sets ``env``, as JSON."""
    done = subprocess.run([sys.executable, "-c", script, *args], env=dict(_package_env(), **env),
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_commands_import_no_process_pool_and_no_quadrature(tmp_path):
    """A fracheck and a one-worker ensemble in a fresh interpreter load
    neither the process pool nor numpy.polynomial."""
    assert _run_probe(_IMPORT_PROBE, str(tmp_path)) == [[0, 0], []]


# The platform probe's two settings: NumPy dispatching as on a CPU without
# AVX-512, and OpenBLAS's pre-AVX2 kernels.  NumPy warns at import about the
# listed features its build does not dispatch, so that child ignores the
# warning, whatever warning filters it would inherit.
PLATFORM_SETTINGS = {
    "npy-no-avx512": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL AVX512_CNL "
                                                  "AVX512_CLX AVX512_SKX AVX512F X86_V4",
                      "PYTHONWARNINGS": "ignore::ImportWarning"},
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
}

# in a fresh interpreter it prints the digests; executed in process, it only
# defines them
_DRAW_PROBE = """
import hashlib, json
import numpy as np
from levyflow.drivers import NOISE_LAWS, RngStream, draw_noise
def draw_digests():
    return {law: hashlib.sha256(draw_noise(law, RngStream(11, 3), 0.05,
                                           np.empty((2500, 2))).tobytes()).hexdigest()
            for law in NOISE_LAWS}
if __name__ == "__main__":
    print(json.dumps(draw_digests()))
"""


@pytest.mark.parametrize("setting", list(PLATFORM_SETTINGS))
def test_noise_draws_keep_their_bits_under_the_platform_probe(setting):
    """Each noise law's fill of the micro workload's (M, 2) shape gives in a
    fresh interpreter under each platform-probe setting the bytes it gives
    in process, so the draw layer does not depend on the CPU's SIMD or BLAS
    kernels."""
    probe = {}
    exec(_DRAW_PROBE, probe)
    assert _run_probe(_DRAW_PROBE, **PLATFORM_SETTINGS[setting]) == probe["draw_digests"]()


# runs one test in a fresh interpreter and prints pytest's exit code; NumPy
# is imported before pytest, so its import warning meets only the
# environment's filters
_ONE_TEST_PROBE = """
import json, sys
import numpy, pytest
code = pytest.main(["-q", "-p", "no:cacheprovider", sys.argv[1]])
print(json.dumps(int(code)))
"""


@pytest.mark.parametrize("setting", list(PLATFORM_SETTINGS))
def test_a_failed_stack_fails_alike_under_the_platform_probe(setting):
    """test_macro.py's stack-failure test passes in a fresh interpreter under
    each platform-probe setting: its failing sample does not hinge on the
    CPU's SIMD or BLAS kernels."""
    test = Path(__file__).with_name("test_macro.py")
    assert _run_probe(_ONE_TEST_PROBE, f"{test}::test_a_failed_sample_fails_its_whole_stack",
                      **PLATFORM_SETTINGS[setting]) == 0


_MODULES_PROBE = """
import json, sys
from pathlib import Path
from levyflow import cli
package = Path(sys.modules["levyflow"].__file__).parent
files = {f"levyflow.{path.stem}" for path in package.glob("*.py")} - {"levyflow.__init__"}
print(json.dumps(sorted(files - set(sys.modules))))
"""


def test_cli_import_loads_every_module():
    """Importing the command line loads every module file of the package, so
    no module holds code that only the tests reach."""
    assert _run_probe(_MODULES_PROBE) == []


_THREAD_POOL_PROBE = """
import json, sys
from levyflow import cli
print(json.dumps("concurrent.futures" in sys.modules))
"""


def test_cli_import_loads_no_thread_pool():
    """Importing the command line does not load concurrent.futures: only a
    micro run's noise helper and a pool of workers import it, and the
    benchmark's setup_s times this import."""
    assert _run_probe(_THREAD_POOL_PROBE) is False


_LOADED_PROBE = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "levyflow")))
"""


@pytest.mark.parametrize("module, loaded", [
    ("levyflow", ["levyflow"]),
    ("levyflow.grids", ["levyflow", "levyflow.errors", "levyflow.grids"]),
])
def test_a_module_import_loads_only_what_it_imports(module, loaded):
    """The package root re-exports nothing: importing it loads no module of
    the package, and importing a module loads only the modules it imports,
    so test_cli_import_loads_every_module sees what the commands reach."""
    assert _run_probe(_LOADED_PROBE, module) == loaded


_CALLS_PROBE = """
import ast, importlib.util, json, struct, sys, threading
from pathlib import Path
package = Path(importlib.util.find_spec("levyflow").submodule_search_locations[0])
called = set()

def profile(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

# run_micro draws the noise on a helper thread: profile every thread
threading.setprofile(profile)
sys.setprofile(profile)
from levyflow import cli
out = Path(sys.argv[1])
codes = []

def run(*argv, config=""):
    path = out / f"c{len(codes)}.cfg"
    path.write_text(config)
    codes.append(cli.main(["--config", str(path), "--workers", "1",
                           "--out", str(out / f"o{len(codes)}"), *argv]))

macro = "[macro]\\nN = 2\\nN_x1 = 9\\nN_x2 = 9\\nqwiener_modes = 2\\n"
micro = "[micro]\\nM = 20\\nN = 2\\ngrid_points = 9\\n"
for name in ("bm_drift", "poisson", "compound_poisson", "full_triple", "alpha_stable"):
    run("symbol", "--name", name, config="[symbol]\\npoints = 5\\n")
run("fracheck", config="[fracheck]\\nresolutions = 16, 32\\nexponents = 1.0\\nmodes = 1\\n")
for law in ("gaussian", "switching", "cauchy_modulated"):
    run("micro", config=micro + f"noise = {law}\\n")
run("macro", config=macro)
run("ensemble", "--kind", "micro", "--samples", "2", config=micro)
run("ensemble", "--kind", "macro", "--samples", "2", config=macro)
line = out / "line.lvf"
line.write_bytes(b"LVF1" + struct.pack("<II4d", 4, 1, 0.0, 1.0, 0.5, 0.2))
run("report", str(out / "o6" / "acid_final.lvf"), str(line))
run("macro", config=macro + "h0_amp = -1\\n")
run("ensemble", "--kind", "macro", "--samples", "2", config=macro + "h0_amp = -1\\n")
run("macro", config="[macro]\\nN = 1\\ntau = 3\\ngamma_f = 0.5\\n")
sys.setprofile(None)
threading.setprofile(None)

def defined(node, path, prefix):
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + child.name + "."
        if isinstance(child, ast.FunctionDef):
            # a decorated function's code starts at its first decorator
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield (path, first), name[:-1]
        yield from defined(child, path, name)

names = dict(pair for path in package.glob("*.py")
             for pair in defined(ast.parse(path.read_text()), str(path), path.stem + "."))
print(json.dumps([codes, sorted(name for key, name in names.items() if key not in called)]))
"""

# functions no command calls that stay: the benchmark reads manifests back
# and names a stack by its first stream
_UNCALLED_BY_COMMANDS = ["drivers.StreamChunk.stream_index", "formats.read_manifest",
                         "formats.verify_manifest"]


def test_commands_call_every_package_function(tmp_path):
    """Tiny runs of every command in a fresh interpreter, a 2D and a 1D
    report, a clamping macro run and ensemble and an H-step breakdown call
    every function and method defined in the package, but the listed ones."""
    codes, uncalled = _run_probe(_CALLS_PROBE, str(tmp_path))
    assert codes == [0] * 13 + [6, 6, 5]
    only_tests = [name for name in uncalled if name not in _UNCALLED_BY_COMMANDS]
    assert not only_tests, f"no command calls {only_tests}"


# the modules that read outside input: the config file, the command line and
# LVF1 snapshots
_INPUT_MODULES = {"config.py", "cli.py", "formats.py"}


def test_config_errors_are_raised_only_where_input_is_read():
    """Each input rule is checked once, where the input is read; a
    ConfigInvalid raised anywhere else re-checks a rule the library cannot
    see input break."""
    raisers = set()
    for path in Path(levyflow.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            exc = node.exc if isinstance(node, ast.Raise) else None
            exc = exc.func if isinstance(exc, ast.Call) else exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == "ConfigInvalid":
                raisers.add(path.name)
    assert {"config.py", "cli.py"} <= raisers  # the scan sees the raises there
    assert sorted(raisers - _INPUT_MODULES) == []


def _manifest_digests(out):
    data = json.loads((out / "manifest.json").read_text())
    return {e["path"]: e["sha256"] for e in data["outputs"]}


def test_ensemble_exports_requested_samples(tmp_path):
    from levyflow.config import macro_config_from, micro_config_from, parse_config_text
    from levyflow.drivers import RngStream
    from levyflow.macro import run_macro
    from levyflow.micro import run_micro

    text = ("[macro]\nN = 4\n\n[micro]\nM = 200\nN = 5\n\n"
            "[ensemble]\nsnapshot_steps = 0, 4\nexport_samples = 0, 2\n")
    cfgfile = tmp_path / "e.cfg"
    cfgfile.write_text(text)
    sections = parse_config_text(text)
    macro_cfg, _ = macro_config_from(sections)
    micro_cfg, _ = micro_config_from(sections)
    for kind in ("macro", "micro"):
        runs = {}
        for workers in (1, 2):
            out = tmp_path / f"{kind}{workers}"
            assert _run("--config", str(cfgfile), "--seed", "17", "--workers", str(workers),
                        "--out", str(out), "ensemble", "--kind", kind, "--samples", "3") == 0
            runs[workers] = _manifest_digests(out)
        assert runs[1] == runs[2]
        out = tmp_path / f"{kind}1"
        assert not list(out.glob("sample0001_*"))
        for sample in (0, 2):
            stem = f"sample{sample:04d}"
            rng = RngStream(17, sample)
            if kind == "macro":
                snaps, _ = run_macro(macro_cfg, rng, snapshot_steps=[0, 4])
                for snap in snaps:
                    for label in ("H", "C", "N"):
                        name = f"{stem}_{label}_step{snap.step:04d}.lvf"
                        assert name in runs[1]
                        values, _ = read_grid_binary(out / name)
                        assert np.array_equal(values, getattr(snap, label.lower()))
            else:
                _, alive = run_micro(micro_cfg, rng)
                name = f"{stem}_alive.csv"
                assert name in runs[1]
                rows = _read_csv(out / name)
                assert rows[0] == ["step", "alive"]
                assert [(int(a), int(b)) for a, b in rows[1:]] == list(enumerate(alive))


def test_manifest_reproducibility(tmp_path):
    cfgfile = tmp_path / "e.cfg"
    cfgfile.write_text("[macro]\nN = 4\n\n[ensemble]\nsnapshot_steps = 4\n")

    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert _run("--config", str(cfgfile), "--seed", "31", "--workers", "1",
                    "--out", str(out), "ensemble", "--samples", "2") == 0
    assert _manifest_digests(out1) == _manifest_digests(out2)


def test_manifest_config_echo_reparses(tmp_path):
    from levyflow.config import macro_config_from, parse_config_text

    out = tmp_path / "o"
    assert _run("--out", str(out), "macro", "--steps", "2") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    sections = parse_config_text(manifest["config"])
    cfg, _ = macro_config_from(sections)
    assert cfg.n_steps == 2
    cfg_again, _ = macro_config_from(parse_config_text(manifest["config"]))
    assert cfg == cfg_again


def test_macro_ensemble_default_steps_match_macro_command(tmp_path):
    from levyflow.config import parse_config_text

    cfgfile = tmp_path / "e.cfg"
    cfgfile.write_text("[macro]\nN = 12\n")
    ens, one = tmp_path / "ens", tmp_path / "one"
    assert _run("--config", str(cfgfile), "--workers", "1", "--out", str(ens),
                "ensemble", "--samples", "1") == 0
    assert _run("--out", str(one), "macro", "--steps", "12") == 0
    ens_steps = sorted(p.name[len("mean_H_"):] for p in ens.glob("mean_H_step*.lvf"))
    one_steps = sorted(p.name[len("H_"):] for p in one.glob("H_step*.lvf"))
    assert ens_steps == one_steps == [f"step{s:04d}.lvf" for s in (0, 4, 8, 12)]
    echo = parse_config_text(json.loads((ens / "manifest.json").read_text())["config"])
    assert echo["ensemble"]["snapshot_steps"] == (0, 4, 8, 12)


def test_manifest_time_span_covers_the_run(tmp_path, monkeypatch):
    from levyflow import cli

    seen = {}
    run_macro = cli.run_macro

    def timed_run_macro(*args, **kwargs):
        seen["entry"] = time.time()
        result = run_macro(*args, **kwargs)
        seen["exit"] = time.time()
        return result

    monkeypatch.setattr(cli, "run_macro", timed_run_macro)
    out = tmp_path / "o"
    assert _run("--out", str(out), "macro", "--steps", "3") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["started_at"] <= seen["entry"]
    assert seen["exit"] <= manifest["finished_at"]
