"""Untraced timed run of one workload in a fresh process.

Runs a checked warm-up round, then timed rounds until ``--seconds`` have
passed (at least three), each round with its own base seed drawn from
``--seed``.  Each call's wall time is scaled to reference host speed by the
calibration kernel timed around it (hostspeed.py).  Prints one JSON line:
the median scaled throughput over the timed rounds, the median wall-time
throughput for comparison, the peak resident memory of this process and its
workers, and the failure accounting of every round.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time

import checks
from spec import WORK, WORKLOADS, invocations, round_seeds

MIN_ROUNDS = 3


def peak_rss_mb() -> float:
    """Larger of this process's and its waited-for children's peak RSS."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    checks.check_import()

    runner = checks.Runner(WORK / args.workload / "timed")
    seeds = round_seeds(args.seed)
    attempted = failed = 0
    problems = []
    rates, wall_rates = [], []

    def run_round():
        nonlocal attempted, failed
        outcomes = runner.run_round(invocations(args.workload, next(seeds)), "round",
                                    calibrate=True)
        units = sum(o.units for o in outcomes)
        bad, found = checks.check_round(args.workload, outcomes)
        attempted += units
        failed += bad
        problems.extend(found)
        return units / sum(o.scaled_seconds for o in outcomes), units / sum(o.seconds for o in outcomes)

    run_round()  # warm-up: checked, not timed
    start = time.perf_counter()
    while len(rates) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        rate, wall_rate = run_round()
        rates.append(rate)
        wall_rates.append(wall_rate)

    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "items_per_s": statistics.median(rates),
        "rates": rates,
        "items_per_wall_s": statistics.median(wall_rates),
        "wall_rates": wall_rates,
        "peak_rss_mb": peak_rss_mb(),
    }))


if __name__ == "__main__":
    main()
