import csv
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import levyflow
from levyflow.cli import main
from levyflow.formats import read_grid_binary, render_pgm, write_grid_binary
from levyflow.grids import Grid, GridField

GOLDEN_PGM_SHA256 = "0bc218a1ec0af04d428d1ed8b7a0f42d96e2e4ebe728c583e7a1362db49baecf"

# fracheck.csv on the default ladder and on the 96...1536 benchmark ladder
GOLDEN_FRACHECK_SHA256 = {
    "default": (None, "a245fe9f7d620df2f63a6753d9bcccf86c8cea9f57a60da9ebf24f8b062deeb4"),
    "bench_ladder": (
        "[fracheck]\nresolutions = 96, 192, 384, 768, 1536\n"
        "exponents = 0.5, 1.0, 1.5\nmodes = 1, 2, 3\n",
        "98fb155b47cc8ab38578b18d7ce6839b8dd9d11fb10ef84fb6256153f3ad3e19",
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


def test_fracheck_rising_errors_exit_4(tmp_path, capsys):
    cfgfile = tmp_path / "down.cfg"
    cfgfile.write_text("[fracheck]\nresolutions = 192, 96\n")
    out = tmp_path / "o"
    assert _run("--config", str(cfgfile), "--out", str(out), "fracheck") == 4
    assert "did not decrease monotonically" in capsys.readouterr().err
    assert len(_read_csv(out / "fracheck.csv")) == 1 + 3 * 3 * 2


def test_macro_steps_zero_initial_snapshot_only(tmp_path):
    out = tmp_path / "o"
    assert _run("--out", str(out), "macro", "--steps", "0") == 0
    lvfs = sorted(p.name for p in out.glob("*.lvf"))
    assert lvfs == ["C_step0000.lvf", "H_step0000.lvf", "N_step0000.lvf"]


def test_micro_survival_csv_monotone(tmp_path):
    out = tmp_path / "o"
    cfgfile = tmp_path / "micro.cfg"
    cfgfile.write_text("[micro]\nM = 400\nN = 12\n")
    assert _run("--config", str(cfgfile), "--out", str(out), "micro") == 0
    rows = _read_csv(out / "survival.csv")
    alive = [int(r[2]) for r in rows[1:]]
    assert all(a >= b for a, b in zip(alive, alive[1:]))
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


def test_golden_pgm_bytes_stable():
    grid = Grid((1.0, 1.0), (16, 16))
    xs, ys = grid.meshes()
    field = np.sin(2 * np.pi * xs) * np.cos(2 * np.pi * ys)
    raw = render_pgm(field, -1.0, 1.0)
    assert hashlib.sha256(raw).hexdigest() == GOLDEN_PGM_SHA256


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
])
def test_bad_config_values_exit_2(tmp_path, capsys, text, argv, problem):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(text)
    assert _run("--config", str(cfgfile), "--workers", "1", "--out", str(tmp_path / "o"),
                *argv) == 2
    assert problem in capsys.readouterr().err


def test_fracheck_tiny_exponent_runs_to_a_verdict(tmp_path, capsys):
    # the tail of p = 1e-300 outgrows every float, so it takes the 10 * M cap
    cfgfile = tmp_path / "tiny.cfg"
    cfgfile.write_text("[fracheck]\nexponents = 1e-300\n")
    out = tmp_path / "o"
    assert _run("--config", str(cfgfile), "--out", str(out), "fracheck") == 4
    assert "did not decrease monotonically" in capsys.readouterr().err
    assert (out / "fracheck.csv").is_file()


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
                       "SolverDiverged("),
    ("h0_amp = -1", 6, "invariant violated: sample 0 failed (base_seed=12345, stream_index=0): "
                       "InvariantViolation("),
], ids=["solver_diverged", "invariant_violated"])
# the console script runs under Python's default warning filters, which
# print the overflow's RuntimeWarning rather than raise it
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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


def test_commands_import_no_process_pool_and_no_quadrature(tmp_path):
    """A fracheck and a one-worker ensemble in a fresh interpreter load
    neither the process pool nor numpy.polynomial."""
    src = str(Path(levyflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == [[0, 0], []]


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
