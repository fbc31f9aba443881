"""Serial traced run of one workload in a fresh process.

1. A golden round at the recorded seed, untraced: its output digests are
   compared with ``reference.json`` and reported as
   ``formats.digest_changed``, never as a failure.
2. macro-ensemble only: one untraced round with the workload's worker
   count, for ``ensemble.fanout_idle_s``; its digests must equal the serial
   ones, since outputs may not depend on the worker count.
3. Pairs of (untraced, traced) serial rounds at one seed from ``--seed``,
   until ``--seconds`` have passed and at least two pairs ran.  Every round
   is checked; every round's digests must equal the first untraced round's,
   and every traced round's counts must equal the first traced round's.

Prints one JSON line with every per-layer metric: times are medians over
the traced rounds, counts are those of a traced round, and
``trace.overhead_s`` is the median of traced minus untraced wall time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import checks
from spec import GOLDEN_SAMPLES, GOLDEN_SEED, LAWS, WORK, WORKLOADS, invocations, round_seeds
from tracer import Tracer

MIN_PAIRS = 2


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    checks.check_import()
    workload = args.workload
    work = WORK / workload / "traced"
    runner = checks.Runner(work)
    attempted = failed = 0
    problems = []

    def account(outcomes, extra=()):
        nonlocal attempted, failed
        units = sum(o.units for o in outcomes)
        bad, found = checks.check_round(workload, outcomes)
        found = found + list(extra)
        attempted += units
        failed += units if extra else bad
        problems.extend(found)

    golden = runner.run_round(
        invocations(workload, GOLDEN_SEED, workers=1, samples=GOLDEN_SAMPLES), "golden")
    digest_changed, found = checks.golden_changes(workload, golden)
    attempted += sum(o.units for o in golden)
    failed += sum(o.units for o in golden) if found else 0
    problems += found

    seed = next(round_seeds(args.seed))
    serial = invocations(workload, seed, workers=1)
    fan_wall = None
    fan_digests = None
    fan = invocations(workload, seed)
    if any(inv.workers > 1 for inv in fan):
        outcomes = runner.run_round(fan, "fanout")
        account(outcomes)
        fan_wall = sum(o.seconds for o in outcomes)
        fan_digests = _digests(outcomes)

    reference = {}  # digests of the first untraced round, counts of the first traced one
    untraced_walls, traced_walls = [], []
    rounds = []  # per traced round: (layer metrics, per-invocation sample times)
    spans = []

    def untraced():
        outcomes = runner.run_round(serial, "untraced")
        found = []
        if "digests" not in reference:
            reference["digests"] = _digests(outcomes)
            if fan_digests is not None and fan_digests != reference["digests"]:
                found.append("outputs differ between worker counts")
        elif _digests(outcomes) != reference["digests"]:
            found.append("untraced outputs differ between identical rounds")
        account(outcomes, found)
        untraced_walls.append(sum(o.seconds for o in outcomes))

    def traced():
        tracer = Tracer()
        with tracer.installed():
            outcomes = runner.run_round(serial, "traced", tracer)
        layers = tracer.layer_metrics()
        counts = {k: v for k, v in layers.items() if not k.endswith("_s")}
        found = []
        if _digests(outcomes) != reference["digests"]:
            found.append("traced outputs differ from untraced outputs")
        reference.setdefault("counts", counts)
        if counts != reference["counts"]:
            diff = sorted(k for k in counts if counts[k] != reference["counts"][k])
            found.append(f"counts differ between traced rounds: {diff}")
        account(outcomes, found)
        traced_walls.append(sum(o.seconds for o in outcomes))
        rounds.append((layers, tracer.sample_seconds()))
        spans.append(tracer.dump())
        return tracer.missing

    # pairs alternate which side runs first, so a drift in machine speed
    # does not bias the overhead
    start = time.perf_counter()
    untraced()
    missing = traced()
    while len(rounds) < MIN_PAIRS or time.perf_counter() - start < args.seconds:
        if len(rounds) % 2:
            traced()
            untraced()
        else:
            untraced()
            traced()

    metrics = {}
    for name, value in rounds[0][0].items():
        values = [layers[name] for layers, _ in rounds]
        metrics[name] = statistics.median(values) if name.endswith("_s") else value
    samples = [s for _, per in rounds for times in per.values() for s in times]
    metrics["ensemble.sample_s_p50"] = quantile(samples, 0.5)
    metrics["ensemble.sample_s_p90"] = quantile(samples, 0.9)
    for law in LAWS:
        law_samples = [s for _, per in rounds for s in per.get(f"invocation.{law}", [])]
        metrics[f"micro.sample_s.{law}"] = statistics.median(law_samples) if law_samples else 0.0
    # computed, not measured: the fan-out's wall time minus the serial
    # sample work it had to do, shared over its workers
    metrics["ensemble.fanout_idle_s"] = 0.0
    if fan_wall is not None:
        workers = max(inv.workers for inv in fan)
        per_round = statistics.median(sum(sum(t) for t in per.values()) for _, per in rounds)
        metrics["ensemble.fanout_idle_s"] = fan_wall - per_round / workers
    metrics["formats.digest_changed"] = digest_changed
    metrics["trace.overhead_s"] = statistics.median(
        t - u for t, u in zip(traced_walls, untraced_walls))

    (work / "spans.json").write_text(json.dumps({"fields": ["name", "start", "end", "parent", "sample"],
                                                 "rounds": spans}))
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "untraced_s": untraced_walls,
        "traced_s": traced_walls,
        "missing_hooks": missing,
    }))


def quantile(values, q: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _digests(outcomes) -> dict:
    found = {}
    for o in outcomes:
        found.update(checks.digests(o))
    return found


if __name__ == "__main__":
    main()
