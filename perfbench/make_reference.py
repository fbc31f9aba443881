"""Regenerate reference.json, the recorded values the output checks use.

    PYTHONPATH=src python3 perfbench/make_reference.py

Records, at a fixed seed: the mean and per-sample spread of every checked
macro mass and micro survival fraction from large ensembles, the fracheck
errors of the ladder, and the output digests of each workload's golden
round.  Takes under a minute on 2 cores.
"""

from __future__ import annotations

import json

import numpy as np

import checks
from levyflow import config
from levyflow.ensemble import EnsembleConfig, run_ensemble
from spec import (GOLDEN_SAMPLES, GOLDEN_SEED, SNAPSHOT_STEPS, WORK, WORKLOADS,
                  invocations)

REF_SEED = 777001
MACRO_SAMPLES = 64
MICRO_SAMPLES = 200
WORKERS = 2


def _summary(values) -> dict:
    values = np.asarray(values, dtype=float)
    return {"mean": float(values.mean()), "sd": float(values.std(ddof=1)), "n": int(values.size)}


def macro_masses() -> dict:
    (inv,) = invocations("macro-ensemble", REF_SEED)
    cfg, _ = config.macro_config_from(config.parse_config_text(inv.config))
    ens = run_ensemble("macro", cfg, EnsembleConfig(
        n_samples=MACRO_SAMPLES, base_seed=REF_SEED, snapshot_steps=SNAPSHOT_STEPS,
        export_sample_ids=tuple(range(MACRO_SAMPLES)), workers=WORKERS))
    # exported[i] has shape (snapshot, field, x, y)
    masses = np.array([ens.exported[i].sum(axis=(2, 3)) for i in range(MACRO_SAMPLES)])
    return {f"{field}{step}": _summary(masses[:, si, fi])
            for si, step in enumerate(SNAPSHOT_STEPS) for fi, field in enumerate("HCN")}


def micro_survival() -> dict:
    out = {}
    for inv in invocations("micro-laws", REF_SEED):
        cfg, _ = config.micro_config_from(config.parse_config_text(inv.config))
        ens = run_ensemble("micro", cfg, EnsembleConfig(
            n_samples=MICRO_SAMPLES, base_seed=REF_SEED, workers=WORKERS))
        out[inv.label] = _summary(ens.survival_samples)
    return out


def main() -> None:
    checks.check_import()
    runner = checks.Runner(WORK / "reference")
    (ladder,) = runner.run_round(invocations("fracheck-ladder", REF_SEED), "ladder")
    if ladder.code != 0:
        raise SystemExit(f"fracheck exited {ladder.code}: the ladder is not monotone")
    golden = {}
    for workload in WORKLOADS:
        outcomes = runner.run_round(
            invocations(workload, GOLDEN_SEED, workers=1, samples=GOLDEN_SAMPLES), workload)
        golden[workload] = {k: v for o in outcomes for k, v in checks.digests(o).items()}
    reference = {
        "seed": REF_SEED,
        "macro": {"mass": macro_masses()},
        "micro": {"survival": micro_survival()},
        "fracheck": {"rel_error": checks.fracheck_errors(ladder)},
        "golden": golden,
    }
    checks.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
