"""Workload definitions shared by every benchmark process.

Nothing here imports levyflow, so the orchestrator can write config files
and the set-up probe can time a clean import.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"

WORKLOADS = ("macro-ensemble", "micro-laws", "fracheck-ladder")

# The paper's table parameters, written out so that a change of the
# program's defaults cannot silently change the workload.
SOLVER_TOL = 1e-10
SNAPSHOT_STEPS = (0, 50, 100, 150)
MACRO_TABLE = f"""[macro]
N = 150
tau = 0.1
h_x1 = 0.1
h_x2 = 0.1
N_x1 = 21
N_x2 = 21
solver_tol = {SOLVER_TOL!r}
"""
MACRO_SAMPLES = 8
MACRO_WORKERS = 2

LAWS = ("gaussian", "switching", "cauchy_modulated")
MICRO_SAMPLES = 10

# 96..384 is the program's default ladder; 768 and 1536 extend it to large
# 1-D grids where the kernel has about M taps per apply.
LADDER = (96, 192, 384, 768, 1536)
EXPONENTS = (0.5, 1.0, 1.5)
MODES = (1, 2, 3)

# The golden run compares output bytes with recorded digests; it is small
# because a changed digest is only reported, never a failure.
GOLDEN_SEED = 20240901
GOLDEN_SAMPLES = 2


@dataclass(frozen=True)
class Invocation:
    """One `levyflow` command line: the config it reads and what it attempts."""

    label: str  # output directory name; the noise law for micro-laws
    config: str  # config file text
    args: tuple  # subcommand and its flags
    units: int  # ensemble samples or fracheck cases attempted
    seed: int
    workers: int

    def argv(self, config_path, out_dir) -> list:
        return ["--config", str(config_path), "--seed", str(self.seed),
                "--workers", str(self.workers), "--out", str(out_dir), *self.args]


def _csv(values) -> str:
    return ", ".join(str(v) for v in values)


def invocations(workload: str, seed: int, workers: int | None = None,
                samples: int | None = None) -> list:
    """The command lines of one round of ``workload`` at ``seed``."""
    if workload == "macro-ensemble":
        n = samples or MACRO_SAMPLES
        config = (MACRO_TABLE + "[ensemble]\nkind = macro\n"
                  f"M = {n}\nsnapshot_steps = {_csv(SNAPSHOT_STEPS)}\n")
        return [Invocation("macro", config, ("ensemble", "--kind", "macro"), n, seed,
                           workers or MACRO_WORKERS)]
    if workload == "micro-laws":
        n = samples or MICRO_SAMPLES
        return [
            Invocation(law, f"[micro]\nM = 2500\nN = 25\nnoise = {law}\n"
                            f"[ensemble]\nkind = micro\nM = {n}\n",
                       ("ensemble", "--kind", "micro"), n, seed, workers or 1)
            for law in LAWS
        ]
    if workload == "fracheck-ladder":
        config = (f"[fracheck]\nresolutions = {_csv(LADDER)}\n"
                  f"exponents = {_csv(EXPONENTS)}\nmodes = {_csv(MODES)}\nlength = 1.0\n")
        cases = len(LADDER) * len(EXPONENTS) * len(MODES)
        return [Invocation("ladder", config, ("fracheck",), cases, seed, workers or 1)]
    raise ValueError(f"unknown workload {workload!r}")


def round_seeds(seed: int):
    """Base seeds of the rounds of a run; the same ``seed`` gives the same ones."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(63)
