"""Run workload rounds through ``levyflow.cli.main`` and check their outputs.

Every check is stated against ``reference.json``, which
``make_reference.py`` regenerates.  A round that fails a check counts all
the samples (or, for fracheck, the cases) it attempted as failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import levyflow
from levyflow import cli
from levyflow.formats import read_grid_binary, read_manifest, verify_manifest

import hostspeed
from spec import SNAPSHOT_STEPS, SOLVER_TOL, SRC

REFERENCE_FILE = Path(__file__).parent / "reference.json"

# Statistical checks allow this many standard errors; with the recorded
# spreads a false alarm on correct code is rarer than 1e-8 per comparison.
K_SIGMA = 6.0
# Deterministic values (step-0 masses) may move by float reassociation only.
REL_FLOOR = 1e-9
# fracheck errors may exceed the recorded ones by this relative margin.
FRACHECK_MARGIN = 1e-6


def check_import():
    """Refuse to measure a levyflow that is not the one in this checkout."""
    where = Path(levyflow.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"levyflow imported from {where}, not from {SRC}")


@dataclass
class Outcome:
    label: str
    units: int
    out: Path
    code: int
    seconds: float
    stats: object  # EnsembleStats returned by the ensemble layer, or None
    scaled_seconds: float = 0.0  # ``seconds`` at reference host speed, if calibrated


class Runner:
    """Runs invocations in-process and keeps the ensemble statistics.

    ``cli.run_ensemble`` is wrapped only to keep its return value: the
    clamp count and solver residual are not written to any output file.
    """

    def __init__(self, work: Path):
        self.work = work
        self._stats = None
        original = cli.run_ensemble

        def keep_stats(*args, **kwargs):
            self._stats = original(*args, **kwargs)
            return self._stats

        cli.run_ensemble = keep_stats

    def _prepare(self, invocation, tag: str):
        out = self.work / tag / invocation.label
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        config = self.work / tag / f"{invocation.label}.cfg"
        config.write_text(invocation.config)
        return invocation.argv(config, out), out

    def run_round(self, invocations, tag: str, tracer=None, calibrate=False) -> list:
        """Run every invocation of a round; only the CLI calls are timed.

        With a tracer, each call is a root span named after its invocation.
        With ``calibrate``, the calibration kernel runs before each call and
        after the last, and each outcome also gets its scaled time.
        """
        outcomes = []
        kernel = hostspeed.kernel_seconds() if calibrate else 0.0
        for inv in invocations:
            argv, out = self._prepare(inv, tag)
            main = cli.main if tracer is None else tracer.wrap(f"invocation.{inv.label}", cli.main)
            self._stats = None
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            seconds = time.perf_counter() - start
            outcome = Outcome(inv.label, inv.units, out, code, seconds, self._stats)
            if calibrate:
                before, kernel = kernel, hostspeed.kernel_seconds()
                outcome.scaled_seconds = hostspeed.scaled(seconds, before, kernel)
            outcomes.append(outcome)
        return outcomes


def digests(outcome: Outcome) -> dict:
    manifest = outcome.out / "manifest.json"
    if not manifest.is_file():
        return {}
    return {f"{outcome.label}/{e['path']}": e["sha256"] for e in read_manifest(manifest)["outputs"]}


def _reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def _common(o: Outcome) -> list:
    problems = []
    if o.code != 0:
        problems.append(f"{o.label}: exit code {o.code}")
    manifest = o.out / "manifest.json"
    if not manifest.is_file():
        problems.append(f"{o.label}: no manifest.json")
    elif not verify_manifest(manifest):
        problems.append(f"{o.label}: manifest digests do not match the files")
    if o.stats is not None and o.stats.clamp_events != 0:
        problems.append(f"{o.label}: {o.stats.clamp_events} clamp events")
    return problems


def _within(value, ref, n) -> bool:
    tol = K_SIGMA * ref["sd"] * math.sqrt(1.0 / n + 1.0 / ref["n"]) + REL_FLOOR * abs(ref["mean"])
    return abs(value - ref["mean"]) <= tol


def _check_macro(outcomes) -> list:
    (o,) = outcomes
    problems = _common(o)
    if o.stats is None:
        return problems + ["macro: the ensemble layer returned no statistics"]
    if not o.stats.max_residual <= SOLVER_TOL:
        problems.append(f"macro: max residual {o.stats.max_residual:.3e} > {SOLVER_TOL}")
    ref = _reference()["macro"]["mass"]
    for step in SNAPSHOT_STEPS:
        for field in "HCN":
            path = o.out / f"mean_{field}_step{step:04d}.lvf"
            if not path.is_file():
                problems.append(f"macro: missing {path.name}")
                continue
            if not (o.out / f"var_{field}_step{step:04d}.lvf").is_file():
                problems.append(f"macro: missing var_{field}_step{step:04d}.lvf")
            mass = float(read_grid_binary(path)[0].sum())
            r = ref[f"{field}{step}"]
            if not _within(mass, r, o.units):
                problems.append(f"macro: mean mass of {field} at step {step} is {mass:.12g}, "
                                f"reference {r['mean']:.12g} (sd {r['sd']:.3g})")
    return problems


def _survival(o: Outcome):
    with (o.out / "survival_samples.csv").open(newline="") as fh:
        values = [float(row["survival"]) for row in csv.DictReader(fh)]
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return len(values), mean, math.sqrt(var / len(values))


def _check_micro(outcomes) -> list:
    problems = []
    summary = {}
    for o in outcomes:
        problems += _common(o)
        if not (o.out / "survival_samples.csv").is_file():
            problems.append(f"{o.label}: missing survival_samples.csv")
            continue
        n, mean, se = _survival(o)
        if n != o.units:
            problems.append(f"{o.label}: {n} survival samples, expected {o.units}")
        summary[o.label] = (mean, se)
    if problems:
        return problems
    ref = _reference()["micro"]["survival"]["gaussian"]
    g_mean = summary["gaussian"][0]
    if not _within(g_mean, ref, outcomes[0].units):
        problems.append(f"gaussian survival {g_mean:.4f}, reference {ref['mean']:.4f}")
    laws = [o.label for o in outcomes]
    for lo, hi in zip(laws, laws[1:]):
        gap = summary[hi][0] - summary[lo][0]
        se = math.hypot(summary[lo][1], summary[hi][1])
        if not gap >= 2.0 * se:
            problems.append(f"survival {lo} < {hi} not shown: gap {gap:.4f} < 2 SE {2 * se:.4f}")
    return problems


def fracheck_errors(o: Outcome) -> dict:
    with (o.out / "fracheck.csv").open(newline="") as fh:
        return {f"{float(r['exponent'])}/{int(r['mode'])}/{int(r['points'])}": float(r["rel_error"])
                for r in csv.DictReader(fh)}


def _check_fracheck(outcomes):
    """Returns (failed cases, problems): a case fails on its own error."""
    (o,) = outcomes
    problems = _common(o)
    if problems or not (o.out / "fracheck.csv").is_file():
        return o.units, problems or ["ladder: missing fracheck.csv"]
    errors = fracheck_errors(o)
    ref = _reference()["fracheck"]["rel_error"]
    if set(errors) != set(ref):
        return o.units, [f"ladder: cases {sorted(errors)} differ from the reference cases"]
    failed = 0
    for case, err in errors.items():
        limit = ref[case] * (1.0 + FRACHECK_MARGIN) + 1e-12
        if not err <= limit:
            failed += 1
            problems.append(f"ladder: case {case} error {err:.6e} > {limit:.6e}")
    return failed, problems


def check_round(workload: str, outcomes) -> tuple:
    """Returns (failed units, problems) for one round's outcomes."""
    units = sum(o.units for o in outcomes)
    if workload == "fracheck-ladder":
        return _check_fracheck(outcomes)
    problems = _check_macro(outcomes) if workload == "macro-ensemble" else _check_micro(outcomes)
    return (units if problems else 0), problems


def golden_changes(workload: str, outcomes) -> tuple:
    """(digest_changed, problems) of a golden round against the recorded bytes.

    A changed digest is reported as a count only: a numerical change may
    legitimately re-baseline the golden outputs.
    """
    problems = []
    found = {}
    for o in outcomes:
        problems += _common(o)
        found.update(digests(o))
    recorded = _reference()["golden"][workload]
    changed = sum(found.get(k) != v for k, v in recorded.items())
    changed += len(set(found) - set(recorded))
    return changed, problems

