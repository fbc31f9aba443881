"""Command-line entry point.

Subcommands: symbol, fracheck, micro, macro, ensemble, report.
Global flags: --config <path>, --seed <u64>, --workers <n>, --out <dir>;
the LEVYFLOW_OUT environment variable overrides --out.  Command flags
(--steps, --samples, --kind, --name) each set one config key.

``main`` is the one pipeline: it loads the config, applies the command
flags, runs the subcommand, writes ``manifest.json`` and maps a failure to
its exit code.  A subcommand only resolves its sections, runs, writes its
files and returns an ``Outcome``.

Exit codes: 0 success; 2 config/parse/missing-input failure; 3 symbol
evaluation error; 4 fracheck convergence failure; 5 solver divergence;
6 invariant violation (the message names the invariant).  A failed
ensemble sample exits with the code of its cause.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .drivers import RngStream
from .ensemble import run_ensemble
from .errors import (
    ConfigInvalid,
    EnsembleSampleError,
    InvariantViolation,
    LevyflowError,
    SolverDiverged,
)
from .formats import (
    read_grid_binary,
    write_contour_csv,
    write_csv,
    write_grid_binary,
    write_manifest,
    write_pgm,
)
from .fracops import FracLapOperator, spectral_oracle
from .grids import Grid, GridField
from .macro import default_snapshot_steps, run_macro, snapshot_stack
from .micro import deposit_fields, run_micro, survival_fraction
from .symbols import generator_symbol_table, growth_bound_constant

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EVAL = 3
EXIT_CONVERGENCE = 4
EXIT_SOLVER = 5
EXIT_INVARIANT = 6

# (error class, exit code, message prefix): the first class that matches a
# failure, or a failed ensemble sample's cause, gives its exit code
_ERROR_EXITS = (
    (ConfigInvalid, EXIT_CONFIG, "config error"),
    (SolverDiverged, EXIT_SOLVER, "solver diverged"),
    (InvariantViolation, EXIT_INVARIANT, "invariant violated"),
    (Exception, EXIT_EVAL, "error"),
)

_MACRO_FIELDS = ("H", "C", "N")


@dataclass
class Outcome:
    """What a subcommand hands back to ``main``: the resolved config by
    section (the manifest's echo), the files it wrote, its summary line, and
    ``(exit code, message)`` when the run broke a check after writing."""

    echo: dict
    paths: list
    summary: str | None
    failure: tuple | None = None


def _clamp_failure(clamp_events: int):
    if clamp_events > 0:
        return EXIT_INVARIANT, "invariant violated: positivity clamping occurred"
    return None


def _write_stacks(out: Path, grid: Grid, labels, named_stacks, steps=(None,)) -> list:
    """One LVF1 file ``{prefix}{label}_step{step:04d}.lvf`` per step, label
    and (prefix, stack) pair, written in that loop order; a stack is indexed
    [step, label].  A step of None writes ``{prefix}{label}.lvf``."""
    paths = []
    for si, step in enumerate(steps):
        suffix = "" if step is None else f"_step{step:04d}"
        for fi, label in enumerate(labels):
            for prefix, stack in named_stacks:
                f = GridField(grid, stack[si, fi])
                paths.append(write_grid_binary(out / f"{prefix}{label}{suffix}.lvf", f))
    return paths


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_symbol(sections, args, out: Path) -> Outcome:
    params = cfgmod.symbol_params_from(sections)
    table = dict(generator_symbol_table())
    name = params["name"]
    if name not in table:
        raise ConfigInvalid(f"unknown symbol name {name!r}; choose from {sorted(table)}")
    spec = table[name]
    radii = np.linspace(-float(params["xi_max"]), float(params["xi_max"]),
                        int(params["points"]))
    direction = np.ones(spec.d) / np.sqrt(spec.d)
    points = radii[:, None] * direction[None, :]
    values = spec.evaluate_many(points)
    ratio = np.abs(values) / (1.0 + radii * radii)
    rows = []
    for i, r in enumerate(radii):
        rows.append(
            tuple(points[i]) + (float(values[i].real), float(values[i].imag),
                                float(ratio[i]))
        )
    header = [f"xi_{k+1}" for k in range(spec.d)] + ["re_psi", "im_psi", "growth_ratio"]
    csv_path = write_csv(out / f"symbol_{name}.csv", header, rows)
    bound = growth_bound_constant(spec, points)
    return Outcome(cfgmod.echo_sections(symbol=params), [csv_path],
                   f"{name}: growth bound constant {bound:.6g} over |xi| <= {params['xi_max']}")


def cmd_fracheck(sections, args, out: Path) -> Outcome:
    params = cfgmod.fracheck_params_from(sections)
    length = float(params["length"])
    exponents, modes, resolutions = params["exponents"], params["modes"], params["resolutions"]
    # one operator, one apply and one oracle call per resolution, each over
    # the (mode, exponent) table; errors[r, j, i] is resolution r, mode j,
    # exponent i
    errors = []
    for m in resolutions:
        grid = Grid((length,), (m,))
        x = grid.axis_coords(0)
        waves = np.array([np.cos(2 * np.pi * k * x / length) for k in modes])[:, None]
        approx = FracLapOperator(grid, np.array(exponents)).apply_values(waves)
        exact = spectral_oracle(grid, exponents, waves)
        scale = np.max(np.abs(exact), axis=-1)
        errors.append(np.max(np.abs(approx - exact), axis=-1) / scale)
    errors = np.array(errors)
    rows = [(p, k, m, errors[r, j, i].item())
            for i, p in enumerate(exponents)
            for j, k in enumerate(modes)
            for r, m in enumerate(resolutions)]
    monotone = not np.any(errors[1:] >= errors[:-1])
    csv_path = write_csv(out / "fracheck.csv", ["exponent", "mode", "points", "rel_error"], rows)
    echo = cfgmod.echo_sections(fracheck=params)
    if not monotone:
        return Outcome(echo, [csv_path], None,
                       (EXIT_CONVERGENCE, "fracheck: errors did not decrease monotonically"))
    return Outcome(echo, [csv_path],
                   f"fracheck: {len(rows)} cases, errors decrease across the resolution ladder")


def cmd_micro(sections, args, out: Path) -> Outcome:
    cfg, echo = cfgmod.micro_config_from(sections)
    state, alive_series = run_micro(cfg, RngStream(args.seed, 0))
    rows = [
        (step, step * cfg.tau, alive, alive / cfg.n_particles)
        for step, alive in enumerate(alive_series)
    ]
    paths = [write_csv(out / "survival.csv", ["step", "t", "alive", "survival"], rows)]
    acid, tissue = deposit_fields(state, cfg)
    paths.append(write_grid_binary(out / "acid_final.lvf", acid))
    paths.append(write_grid_binary(out / "tissue_final.lvf", tissue))
    return Outcome(
        cfgmod.echo_sections(micro=echo), paths,
        f"micro: survival {survival_fraction(state, cfg.n_particles):.4f} "
        f"after {cfg.n_steps} steps, clamp events {state.clamp_events}",
        _clamp_failure(state.clamp_events),
    )


def cmd_macro(sections, args, out: Path) -> Outcome:
    cfg, echo = cfgmod.macro_config_from(sections)
    snapshots, stats = run_macro(cfg, RngStream(args.seed, 0),
                                 snapshot_steps=default_snapshot_steps(cfg.n_steps))
    paths = _write_stacks(out, cfg.grid, _MACRO_FIELDS, [("", snapshot_stack(snapshots))],
                          [s.step for s in snapshots])
    series = [(s.step, s.t, s.alpha_value, float(s.h.sum()), float(s.c.sum()), float(s.n.sum()))
              for s in snapshots]
    paths.append(write_csv(out / "series.csv",
                           ["step", "t", "alpha", "mass_H", "mass_C", "mass_N"], series))
    return Outcome(
        cfgmod.echo_sections(macro=echo), paths,
        f"macro: {cfg.n_steps} steps, max residual {stats.max_residual:.2e}, "
        f"clamp events {stats.clamp_events}",
        _clamp_failure(stats.clamp_events),
    )


def cmd_ensemble(sections, args, out: Path) -> Outcome:
    ens, echo_e = cfgmod.ensemble_config_from(sections, args.seed, args.workers)
    kind = echo_e["kind"]
    if kind == "macro":
        cfg, echo_c = cfgmod.macro_config_from(sections)
    else:
        cfg, echo_c = cfgmod.micro_config_from(sections)
    stats = run_ensemble(kind, cfg, ens)
    echo_e["snapshot_steps"] = stats.snapshot_steps
    exported = [(f"sample{i:04d}_", values) for i, values in sorted(stats.exported.items())]
    if kind == "macro":
        steps = stats.snapshot_steps
        paths = _write_stacks(out, cfg.grid, _MACRO_FIELDS,
                              [("mean_", stats.mean), ("var_", stats.variance)], steps)
        paths += _write_stacks(out, cfg.grid, _MACRO_FIELDS, exported, steps)
    else:
        paths = []
        rows = [(i, s) for i, s in enumerate(stats.survival_samples)]
        paths.append(write_csv(out / "survival_samples.csv", ["sample", "survival"], rows))
        paths.append(
            write_csv(
                out / "survival_stats.csv",
                ["mean", "stderr", "samples"],
                [(stats.survival_mean, stats.survival_stderr, stats.n_samples)],
            )
        )
        # the final acid and tissue fields, as a single step
        paths += _write_stacks(out, cfg.grid, ("acid", "tissue"),
                               [("mean_", stats.mean[None]), ("var_", stats.variance[None])])
        for prefix, alive in exported:
            paths.append(write_csv(out / f"{prefix}alive.csv", ["step", "alive"],
                                   list(enumerate(alive.tolist()))))
    return Outcome(
        cfgmod.echo_sections(ensemble=echo_e, **{kind: echo_c}), paths,
        f"ensemble: {ens.n_samples} {kind} samples with {args.workers} worker(s)",
        _clamp_failure(stats.clamp_events),
    )


def cmd_report(sections, args, out: Path) -> Outcome:
    params = cfgmod.report_params_from(sections)
    inputs = [Path(p) for p in args.snapshots]
    missing = [str(p) for p in inputs if not p.exists()]
    if not inputs or missing:
        raise ConfigInvalid(f"missing snapshot inputs: {missing or 'none given'}")
    paths = []
    for snap in inputs:
        values, (mx, my) = read_grid_binary(snap)
        if my > 1:
            f = GridField(Grid((float(mx), float(my)), (mx, my)), values)
        else:
            f = GridField(Grid((float(mx),), (mx,)), values[:, 0])
        stem = snap.stem
        paths.append(write_pgm(out / f"{stem}.pgm", values, args.vmin, args.vmax))
        paths.append(write_contour_csv(out / f"{stem}_contours.csv", f, params["levels"]))
    return Outcome(cfgmod.echo_sections(report=params), paths,
                   f"report: rendered {len(inputs)} snapshot(s)")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _key_flag(parser, flag: str, section: str, key: str, **kwargs):
    """``flag`` sets ``[section] key``, checked and echoed like a file key."""
    parser.add_argument(flag, dest=f"{section}.{key}", metavar=key.upper(),
                        default=argparse.SUPPRESS, help=f"sets [{section}] {key}", **kwargs)


def build_parser() -> argparse.ArgumentParser:
    # global flags are accepted before or after the subcommand; SUPPRESS
    # keeps a subparser from clobbering a value given up front
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS, help="config file path")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="base seed (u64)")
    common.add_argument("--workers", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS, help="output directory")

    parser = argparse.ArgumentParser(
        prog="levyflow",
        description="Stochastic multiscale simulation engine (symbols, "
        "fractional operators, particle and field solvers).",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("symbol", parents=[common],
                       help="evaluate a named symbol on a frequency ray")
    _key_flag(p, "--name", "symbol", "name")
    p.set_defaults(fn=cmd_symbol)

    p = sub.add_parser("fracheck", parents=[common],
                       help="difference scheme vs spectral oracle table")
    p.set_defaults(fn=cmd_fracheck)

    p = sub.add_parser("micro", parents=[common],
                       help="run the particle-level invasion model")
    _key_flag(p, "--steps", "micro", "N", type=int)
    p.set_defaults(fn=cmd_micro)

    p = sub.add_parser("macro", parents=[common],
                       help="run the macroscopic field model")
    _key_flag(p, "--steps", "macro", "N", type=int)
    p.set_defaults(fn=cmd_macro)

    p = sub.add_parser("ensemble", parents=[common],
                       help="Monte Carlo ensemble of either model")
    _key_flag(p, "--kind", "ensemble", "kind", choices=("micro", "macro"))
    _key_flag(p, "--samples", "ensemble", "M", type=int)
    p.set_defaults(fn=cmd_ensemble)

    p = sub.add_parser("report", parents=[common],
                       help="render snapshots to PGM + contour CSV")
    p.add_argument("snapshots", nargs="*", help="LVF1 snapshot files")
    p.add_argument("--vmin", type=float, default=None)
    p.add_argument("--vmax", type=float, default=None)
    p.set_defaults(fn=cmd_report)
    return parser


_GLOBAL_DEFAULTS = {
    "config": None,
    "seed": 12345,
    "workers": None,  # filled with the core count at parse time
    "out": "out",
}


def main(argv=None) -> int:
    """Parse, load the config, apply the command flags as config keys, run
    the subcommand, write its manifest and map any failure to its exit code."""
    args = build_parser().parse_args(argv)
    started_at = time.time()
    # global flags use SUPPRESS so they can sit before or after the
    # subcommand without one position clobbering the other
    for key, value in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    if args.workers is None:
        args.workers = os.cpu_count() or 1
    try:
        sections = {} if args.config is None else cfgmod.load_config_file(args.config)
        for dest, value in vars(args).items():
            section, dot, key = dest.partition(".")
            if dot:
                sections.setdefault(section, {})[key] = value
        out = Path(os.environ.get("LEVYFLOW_OUT") or args.out)
        out.mkdir(parents=True, exist_ok=True)
        outcome = args.fn(sections, args, out)
        write_manifest(out / "manifest.json", cfgmod.render_config(outcome.echo),
                       args.seed, started_at, outcome.paths)
    except LevyflowError as exc:
        cause = exc.cause if isinstance(exc, EnsembleSampleError) else exc
        code, prefix = next((code, prefix) for kind, code, prefix in _ERROR_EXITS
                            if isinstance(cause, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    if outcome.summary is not None:
        print(outcome.summary)
    if outcome.failure is None:
        return EXIT_OK
    code, message = outcome.failure
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
