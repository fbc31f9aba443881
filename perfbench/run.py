"""levyflow benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload macro-ensemble --seed 1 --seconds 20 --trace 0

``--trace 0`` times ``setup_s`` as the median over fresh interpreters that
import levyflow and resolve the workload's config (probe_setup.py), then
measures ``items_per_s`` and ``peak_rss_mb`` in one fresh process
(timed.py); ``items_per_s`` is scaled to reference host speed
(hostspeed.py), and the unscaled figure goes to stderr and the report.
``--trace 1`` makes the serial traced run (traced.py) and reports the
per-layer metrics.  Metric names and units come from BENCHMARK.json.  The
last line of stdout is the JSON result; a readable summary goes to stderr,
and the full report with the environment to
``.perfbench_out/<workload>/report.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from spec import ROOT, SRC, WORK, WORKLOADS, invocations, round_seeds

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 150


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("LEVYFLOW_OUT", None)  # would redirect the outputs the checks read
    return env


def run_child(argv, timeout) -> str:
    """Run a child in its own session; on timeout kill the whole group."""
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{argv[0]} did not finish within {timeout} s")
    if proc.returncode != 0:
        fail(f"{argv[0]} exited with code {proc.returncode}")
    return out


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter that imports levyflow and
    resolves the workload's config; one unmeasured run first fills the
    bytecode cache, which users pay once, not on every run."""
    configs = []
    for inv in invocations(workload, next(round_seeds(seed))):
        path = WORK / workload / "setup" / f"{inv.label}.cfg"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(inv.config)
        configs.append(str(path))
    argv = [str(HERE / "probe_setup.py"), workload, *configs]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        run_child(argv, 60)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "levyflow" / "cli.py").is_file():
        fail(f"no levyflow sources under {SRC}; run from a full checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]
    shutil.rmtree(WORK / args.workload, ignore_errors=True)

    child = [f"--workload={args.workload}", f"--seed={args.seed}", f"--seconds={args.seconds}"]
    if args.trace:
        result = json.loads(run_child([str(HERE / "traced.py"), *child], CHILD_TIMEOUT_S).splitlines()[-1])
        values = result["metrics"]
    else:
        setup_s = measure_setup(args.workload, args.seed)
        result = json.loads(run_child([str(HERE / "timed.py"), *child], CHILD_TIMEOUT_S).splitlines()[-1])
        values = {"items_per_s": result["items_per_s"], "setup_s": setup_s,
                  "peak_rss_mb": result["peak_rss_mb"]}

    names = [m["name"] for m in declared]
    if set(values) != set(names):
        fail(f"measured {sorted(set(values) ^ set(names))} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    attempted, failed, problems = result["attempted"], result["failed"], result["problems"]
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workers": {inv.label: inv.workers for inv in invocations(args.workload, 0)},
        "trace": args.trace,
    }
    report = dict(result, metrics=metrics, environment=env, seed=args.seed)
    (WORK / args.workload / "report.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: failed_fraction {failed}/{attempted}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    if not args.trace:
        print(f"  unscaled items_per_s: {result['items_per_wall_s']:.6g} 1/s", file=sys.stderr)
    for problem in problems[:20]:
        print(f"  FAILED CHECK: {problem}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
