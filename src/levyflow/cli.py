"""Command-line entry point.

Subcommands: symbol, fracheck, micro, macro, ensemble, report.
Global flags: --config <path>, --seed <u64>, --workers <n>, --out <dir>;
the LEVYFLOW_OUT environment variable overrides --out.

Exit codes: 0 success; 2 config/parse/missing-input failure; 3 symbol
evaluation error; 4 fracheck convergence failure; 5 solver divergence;
6 invariant violation (the message names the invariant).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import config as cfgmod
from .drivers import RngStream
from .ensemble import run_ensemble
from .errors import (
    ConfigInvalid,
    InvariantViolation,
    LevyflowError,
    SolverDiverged,
)
from .formats import (
    RunManifest,
    grid_field_from_values,
    read_grid_binary,
    write_contour_csv,
    write_csv,
    write_grid_binary,
    write_pgm,
)
from .fracops import FracLapOperator, spectral_oracle
from .grids import Grid, GridField
from .macro import run_macro, state_fields
from .micro import deposit_fields, run_micro, survival_fraction
from .symbols import generator_symbol_table, growth_bound_constant

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EVAL = 3
EXIT_CONVERGENCE = 4
EXIT_SOLVER = 5
EXIT_INVARIANT = 6


def _out_dir(args) -> Path:
    out = os.environ.get("LEVYFLOW_OUT") or args.out
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_sections(args):
    if args.config is None:
        return {}
    return cfgmod.load_config_file(args.config)


def _manifest(base_seed, echo) -> RunManifest:
    return RunManifest(
        tool_version=__version__,
        config_text=cfgmod.render_config(echo),
        base_seed=base_seed,
    )


def _finish(manifest: RunManifest, out: Path, paths):
    for p in paths:
        manifest.add_output(p)
    manifest.finish()
    manifest.write(out / "manifest.json")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_symbol(args) -> int:
    sections = _load_sections(args)
    params = cfgmod.symbol_params_from(sections)
    if args.name:
        params["name"] = args.name
    table = dict(generator_symbol_table())
    name = params["name"]
    if name not in table:
        print(f"unknown symbol name {name!r}; choose from {sorted(table)}", file=sys.stderr)
        return EXIT_CONFIG
    spec = table[name]
    out = _out_dir(args)
    try:
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
    except LevyflowError as exc:
        print(f"symbol evaluation failed: {exc}", file=sys.stderr)
        return EXIT_EVAL
    manifest = _manifest(args.seed, cfgmod.echo_sections(symbol=params))
    _finish(manifest, out, [csv_path])
    print(f"{name}: growth bound constant {bound:.6g} over |xi| <= {params['xi_max']}")
    return EXIT_OK


def cmd_fracheck(args) -> int:
    sections = _load_sections(args)
    params = cfgmod.fracheck_params_from(sections)
    out = _out_dir(args)
    length = float(params["length"])
    rows = []
    monotone = True
    for p in params["exponents"]:
        for k in params["modes"]:
            previous = None
            for m in params["resolutions"]:
                grid = Grid((length,), (m,))
                x = grid.axis_coords(0)
                f = GridField(grid, np.cos(2 * np.pi * k * x / length))
                op = FracLapOperator(grid, p)
                approx = op.apply(f)
                exact = spectral_oracle(grid, p, f)
                scale = float(np.max(np.abs(exact.values)))
                err = float(np.max(np.abs(approx.values - exact.values))) / scale
                rows.append((p, k, m, err))
                if previous is not None and err >= previous:
                    monotone = False
                previous = err
    csv_path = write_csv(out / "fracheck.csv", ["exponent", "mode", "points", "rel_error"], rows)
    manifest = _manifest(args.seed, cfgmod.echo_sections(fracheck=params))
    _finish(manifest, out, [csv_path])
    if not monotone:
        print("fracheck: errors did not decrease monotonically", file=sys.stderr)
        return EXIT_CONVERGENCE
    print(f"fracheck: {len(rows)} cases, errors decrease across the resolution ladder")
    return EXIT_OK


def cmd_micro(args) -> int:
    sections = _load_sections(args)
    cfg, echo = cfgmod.micro_config_from(sections)
    if args.steps is not None:
        from dataclasses import replace

        cfg = replace(cfg, n_steps=args.steps)
        echo = dict(echo, N=args.steps)
    out = _out_dir(args)
    rng = RngStream(args.seed, 0)
    state, alive_series = run_micro(cfg, rng)
    rows = [
        (step, step * cfg.tau, alive, alive / cfg.n_particles)
        for step, alive in enumerate(alive_series)
    ]
    paths = [write_csv(out / "survival.csv", ["step", "t", "alive", "survival"], rows)]
    acid, tissue = deposit_fields(state, cfg)
    paths.append(write_grid_binary(out / "acid_final.lvf", acid))
    paths.append(write_grid_binary(out / "tissue_final.lvf", tissue))
    manifest = _manifest(args.seed, cfgmod.echo_sections(micro=echo))
    _finish(manifest, out, paths)
    print(
        f"micro: survival {survival_fraction(state, cfg.n_particles):.4f} "
        f"after {cfg.n_steps} steps, clamp events {state.clamp_events}"
    )
    if state.clamp_events > 0:
        print("invariant violated: positivity clamping occurred", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_macro(args) -> int:
    sections = _load_sections(args)
    cfg, echo = cfgmod.macro_config_from(sections)
    if args.steps is not None:
        from dataclasses import replace

        cfg = replace(cfg, n_steps=args.steps)
        echo = dict(echo, N=args.steps)
    out = _out_dir(args)
    rng = RngStream(args.seed, 0)
    quarters = sorted({0, cfg.n_steps // 3, (2 * cfg.n_steps) // 3, cfg.n_steps})
    snapshots, stats = run_macro(cfg, rng, snapshot_steps=quarters)
    paths = []
    for snap in snapshots:
        for label, f in zip(("H", "C", "N"), state_fields(snap, cfg.grid)):
            paths.append(
                write_grid_binary(out / f"{label}_step{snap.step:04d}.lvf", f)
            )
    series = [(s.step, s.t, s.alpha_value, float(s.h.sum()), float(s.c.sum()), float(s.n.sum()))
              for s in snapshots]
    paths.append(write_csv(out / "series.csv",
                           ["step", "t", "alpha", "mass_H", "mass_C", "mass_N"], series))
    manifest = _manifest(args.seed, cfgmod.echo_sections(macro=echo))
    _finish(manifest, out, paths)
    print(
        f"macro: {cfg.n_steps} steps, max residual {stats.max_residual:.2e}, "
        f"clamp events {stats.clamp_events}"
    )
    if stats.clamp_events > 0:
        print("invariant violated: positivity clamping occurred", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _write_macro_stacks(out: Path, grid: Grid, steps, named_stacks) -> list:
    """One LVF1 file ``{name}_{H,C,N}_step{step:04d}.lvf`` per snapshot and
    field of each (name, stack) pair; a stack is indexed [snapshot, field]."""
    paths = []
    for si, step in enumerate(steps):
        for fi, label in enumerate(("H", "C", "N")):
            for name, stack in named_stacks:
                f = grid_field_from_values(grid, stack[si, fi])
                paths.append(write_grid_binary(out / f"{name}_{label}_step{step:04d}.lvf", f))
    return paths


def cmd_ensemble(args) -> int:
    sections = _load_sections(args)
    ens, echo_e = cfgmod.ensemble_config_from(sections, args.seed, args.workers)
    if args.samples is not None:
        from dataclasses import replace

        ens = replace(ens, n_samples=args.samples)
        echo_e = dict(echo_e, M=args.samples)
    kind = args.kind or str(echo_e["kind"])
    echo_e = dict(echo_e, kind=kind)
    if kind == "macro":
        cfg, echo_c = cfgmod.macro_config_from(sections)
        echo = cfgmod.echo_sections(ensemble=echo_e, macro=echo_c)
    else:
        cfg, echo_c = cfgmod.micro_config_from(sections)
        echo = cfgmod.echo_sections(ensemble=echo_e, micro=echo_c)
    out = _out_dir(args)
    stats = run_ensemble(kind, cfg, ens)
    exported = [(f"sample{i:04d}", values) for i, values in sorted(stats.exported.items())]
    if kind == "macro":
        steps = stats.snapshot_steps
        paths = _write_macro_stacks(out, cfg.grid, steps,
                                    [("mean", stats.mean), ("var", stats.variance)])
        paths += _write_macro_stacks(out, cfg.grid, steps, exported)
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
        for fi, label in enumerate(("acid", "tissue")):
            mean_f = grid_field_from_values(cfg.grid, stats.mean[fi])
            var_f = grid_field_from_values(cfg.grid, stats.variance[fi])
            paths.append(write_grid_binary(out / f"mean_{label}.lvf", mean_f))
            paths.append(write_grid_binary(out / f"var_{label}.lvf", var_f))
        for stem, alive in exported:
            paths.append(write_csv(out / f"{stem}_alive.csv", ["step", "alive"],
                                   list(enumerate(alive.tolist()))))
    manifest = _manifest(args.seed, echo)
    _finish(manifest, out, paths)
    print(f"ensemble: {ens.n_samples} {kind} samples with {args.workers} worker(s)")
    if stats.clamp_events > 0:
        print("invariant violated: positivity clamping occurred", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_report(args) -> int:
    sections = _load_sections(args)
    params = cfgmod.report_params_from(sections)
    out = _out_dir(args)
    inputs = [Path(p) for p in args.snapshots]
    missing = [str(p) for p in inputs if not p.exists()]
    if not inputs or missing:
        print(f"missing snapshot inputs: {missing or 'none given'}", file=sys.stderr)
        return EXIT_CONFIG
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
    manifest = _manifest(args.seed, cfgmod.echo_sections(report=params))
    _finish(manifest, out, paths)
    print(f"report: rendered {len(inputs)} snapshot(s)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


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
    p.add_argument("--name", default=None)
    p.set_defaults(fn=cmd_symbol)

    p = sub.add_parser("fracheck", parents=[common],
                       help="difference scheme vs spectral oracle table")
    p.set_defaults(fn=cmd_fracheck)

    p = sub.add_parser("micro", parents=[common],
                       help="run the particle-level invasion model")
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(fn=cmd_micro)

    p = sub.add_parser("macro", parents=[common],
                       help="run the macroscopic field model")
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(fn=cmd_macro)

    p = sub.add_parser("ensemble", parents=[common],
                       help="Monte Carlo ensemble of either model")
    p.add_argument("--kind", choices=("micro", "macro"), default=None)
    p.add_argument("--samples", type=int, default=None)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    # global flags use SUPPRESS so they can sit before or after the
    # subcommand without one position clobbering the other
    for key, value in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    if args.workers is None:
        args.workers = os.cpu_count() or 1
    try:
        return args.fn(args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverDiverged as exc:
        print(f"solver diverged: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except LevyflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL


if __name__ == "__main__":
    sys.exit(main())
