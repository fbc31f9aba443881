"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import json
import time

import numpy as np

from levyflow.cli import main as cli_main
from levyflow.drivers import QWienerSpec, RngStream
from levyflow.ensemble import EnsembleConfig, run_ensemble
from levyflow.grids import Grid, GridField
from levyflow.linsolve import bicgstab
from levyflow.macro import MacroConfig, MacroState, macro_init, run_macro
from levyflow.micro import MicroConfig
from levyflow.symbols import TripleSymbol, generator_symbol_table, growth_bound_constant

from operator_reference import (
    FracLapOperator,
    alpha_resolvent_holder_check,
    default_probe_points,
    multiplier_lipschitz_check,
    qwiener_pointwise_variance,
    sample_qwiener_increment,
    spectral_oracle,
    standard_laplacian,
)
from transport_reference import (
    default_transport_model,
    density_to_bins,
    l1_distance,
    position_histogram,
    simulate_velocity_jump,
    transport_pde_solve,
)


def _report(name, ok, detail):
    print(f"{name} {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def test_ac1_spectral_consistency():
    start = time.time()
    worst_final = 0.0
    monotone = True
    for p in (0.5, 1.0, 1.5):
        errs = []
        for m in (64, 128, 256):
            grid = Grid((1.0,), (m,))
            x = grid.axis_coords(0)
            f = GridField(grid, np.cos(2 * np.pi * x))
            approx = FracLapOperator(grid, p).apply(f)
            oracle = spectral_oracle(grid, p, f)
            errs.append(
                float(np.max(np.abs(approx.values - oracle.values))
                      / np.max(np.abs(oracle.values)))
            )
        worst_final = max(worst_final, errs[-1])
        monotone &= errs[0] > errs[1] > errs[2]
    elapsed = time.time() - start
    _report(
        "AC-1",
        worst_final <= 0.05 and monotone and elapsed < 5.0,
        f"worst rel error at Mx=256 is {worst_final:.4f} (<=5%), "
        f"errors strictly decrease, {elapsed:.2f}s",
    )


def test_ac2_classical_limit():
    start = time.time()
    grid = Grid((1.0,), (128,))
    x = grid.axis_coords(0)
    rng = np.random.Generator(np.random.Philox(key=[17, 0]))
    f_values = np.zeros(128)
    for k in range(1, 7):
        a, b = rng.standard_normal(2)
        f_values += a * np.cos(2 * np.pi * k * x) + b * np.sin(2 * np.pi * k * x)
    f = GridField(grid, f_values)
    frac = FracLapOperator(grid, 1.999).apply(f)
    classic = standard_laplacian(grid, f)
    rel = float(np.linalg.norm(frac.values - classic.values) / np.linalg.norm(classic.values))
    elapsed = time.time() - start
    _report("AC-2", rel <= 0.02 and elapsed < 1.0,
            f"p=1.999 vs 3-point Laplacian rel diff {rel:.4f} (<=2%), {elapsed:.2f}s")


def test_ac3_qwiener_law():
    start = time.time()
    grid = Grid((2.1, 2.1), (21, 21))
    spec = QWienerSpec(4)
    dt = 0.1
    rng = RngStream(555, 0)
    n = 10_000
    samples = np.stack(
        [sample_qwiener_increment(spec, grid, dt, rng).values for _ in range(n)]
    )
    exact = qwiener_pointwise_variance(spec, grid, dt)
    probes = [(10, 10), (5, 5), (3, 14), (14, 3), (7, 12)]
    worst = max(
        abs(float(samples[:, i, j].var(ddof=1)) - float(exact[i, j])) / float(exact[i, j])
        for i, j in probes
    )
    corr = max(
        abs(float(np.corrcoef(samples[:-1, i, j], samples[1:, i, j])[0, 1]))
        for i, j in probes
    )
    elapsed = time.time() - start
    _report(
        "AC-3",
        worst <= 0.05 and corr < 0.05 and elapsed < 30.0,
        f"K=4, 1e4 increments: worst variance error {worst:.3f} (<=5%), "
        f"max |step correlation| {corr:.3f} (<0.05), {elapsed:.1f}s",
    )


def test_ac4_fractional_vs_standard_spread():
    start = time.time()
    grid = Grid((1.0,), (256,))
    x = grid.axis_coords(0)
    sigma0, center, diff_coef, tau = 0.05, 0.5, 0.025, 0.02
    u0 = np.exp(-((x - center) ** 2) / (2 * sigma0**2))
    frac_op = FracLapOperator(grid, 1.5)  # spectral exponent of alpha = 0.75

    def evolve(apply_diff, n_steps):
        u = u0.copy()
        for _ in range(n_steps):
            u = bicgstab(lambda v: v - tau * diff_coef * apply_diff(v[0])[None], u[None],
                         1e-12, 2560, x0=u[None]).solution[0]
        return u

    def laplacian(v):
        return standard_laplacian(grid, GridField(grid, v)).values

    halfwidth = sigma0 * np.sqrt(2 * np.log(2.0))  # half width at half maximum
    window = np.abs(x - center) <= halfwidth
    ordering = []
    details = []
    for t_snap in (0.1, 0.2, 0.4, 0.8):
        n = int(round(t_snap / tau))
        u_frac = evolve(frac_op.apply_values, n)
        u_std = evolve(laplacian, n)
        frac_mass = float(u_frac[window].sum() / u_frac.sum())
        std_mass = float(u_std[window].sum() / u_std.sum())
        ordering.append(frac_mass > std_mass)
        details.append(f"t={t_snap}: {frac_mass:.3f}>{std_mass:.3f}")
    elapsed = time.time() - start
    _report("AC-4", all(ordering) and elapsed < 10.0,
            f"central-mass ordering at all snapshots ({'; '.join(details)}), {elapsed:.1f}s")


def test_ac5_micro_survival_ordering():
    start = time.time()
    reps = 100
    stats = {}
    for name, noise in (
        ("gauss", "gaussian"),
        ("switch", "switching"),
        ("cauchy", "cauchy_modulated"),
    ):
        cfg = MicroConfig(noise=noise)  # shipped calibrated config, M=2500, N=25
        ens = run_ensemble("micro", cfg, EnsembleConfig(n_samples=reps, base_seed=777))
        stats[name] = (ens.survival_mean, ens.survival_stderr, ens.clamp_events)
    g, s, c = stats["gauss"], stats["switch"], stats["cauchy"]
    gap1 = s[0] - g[0]
    gap2 = c[0] - s[0]
    se1 = np.hypot(g[1], s[1])
    se2 = np.hypot(s[1], c[1])
    in_band = 0.25 <= g[0] <= 0.45
    ordered = gap1 >= 2 * se1 and gap2 >= 2 * se2
    elapsed = time.time() - start
    _report(
        "AC-5",
        in_band and ordered and elapsed < 300.0,
        f"S_gauss={g[0]:.3f} in [0.25,0.45], S_switch={s[0]:.3f}, S_cauchy={c[0]:.3f}; "
        f"gaps {gap1:.3f}>={2*se1:.3f} and {gap2:.3f}>={2*se2:.3f} (2 SE), "
        f"{elapsed:.0f}s for {3*reps} runs",
    )


def test_ac6_macro_full_scale():
    start = time.time()
    cfg = MacroConfig()  # table parameters: 21x21, tau=0.1, 150 steps
    ens = run_ensemble(
        "macro", cfg, EnsembleConfig(n_samples=50, base_seed=888, snapshot_steps=(0, 75, 150))
    )
    violations = ens.clamp_events
    residual_ok = ens.max_residual <= 1e-10

    # substituted property 1: with reactions/taxis/noise off, mass conserved
    # to 1e-8 relative per step
    quiet = MacroConfig(gamma_1=0, gamma_2=0, gamma_3=0, sigma_W=0,
                        gamma_g=0, gamma_h=0, gamma_f=0)
    steps, _ = run_macro(quiet, RngStream(999, 0), snapshot_steps=range(151))
    worst_drift = max(
        max(abs(now.h.sum() - prev.h.sum()) / prev.h.sum(),
            abs(now.c.sum() - prev.c.sum()) / prev.c.sum())
        for prev, now in zip(steps, steps[1:])
    )

    # substituted property 2: noise-off run is translation equivariant
    noise_off = MacroConfig(sigma_W=0.0, n_steps=50)
    base = macro_init(noise_off)
    shifted = MacroState(np.roll(base.h, 1, axis=0), np.roll(base.c, 1, axis=0),
                         np.roll(base.n, 1, axis=0))
    s1, _ = run_macro(noise_off, RngStream(1000, 0), snapshot_steps=[50], initial_state=base)
    s2, _ = run_macro(noise_off, RngStream(1000, 0), snapshot_steps=[50], initial_state=shifted)
    equiv_err = max(
        float(np.max(np.abs(np.roll(getattr(s1[0], f), 1, axis=0) - getattr(s2[0], f))))
        for f in ("h", "c", "n")
    )
    elapsed = time.time() - start
    _report(
        "AC-6",
        violations == 0 and residual_ok and worst_drift <= 1e-8
        and equiv_err <= 1e-8 and elapsed < 180.0,
        f"50-sample ensemble: clamps={violations}, max residual {ens.max_residual:.1e}"
        f" (<=1e-10); mass drift {worst_drift:.1e}/step (<=1e-8); equivariance dev "
        f"{equiv_err:.1e}; {elapsed:.0f}s",
    )


def test_ac7_transport_oracle():
    start = time.time()
    model = default_transport_model()
    positions = simulate_velocity_jump(model, 50_000, 0.5, 1.0 / 256, RngStream(4242, 0))
    hist = position_histogram(positions, 50)
    x, density = transport_pde_solve(model, t_end=0.5, n_cells=800)
    pde_bins = density_to_bins(x, density, 50)
    dist = l1_distance(hist, pde_bins)
    elapsed = time.time() - start
    _report("AC-7", dist <= 0.1 and elapsed < 60.0,
            f"velocity-jump ensemble (M=5e4, t=0.5) vs transport solve: L1={dist:.3f}"
            f" (<=0.1), {elapsed:.1f}s")


def test_ac8_multiplier_bounds():
    start = time.time()
    psi = TripleSymbol(drift=(0.0,), q_matrix=((2.0,),))  # |xi|^2

    def radial(hi):
        return np.geomspace(1e-3, hi, 600)[:, None]

    sup_mid = multiplier_lipschitz_check(
        psi, 2.0, 1.5, [(1.0, 1.05, 0.0, 1.0)], radial(100.0), 1.0, 1.2
    ).sup_ratio
    sup_far = multiplier_lipschitz_check(
        psi, 2.0, 1.5, [(1.0, 1.05, 0.0, 1.0)], radial(1000.0), 1.0, 1.2
    ).sup_ratio
    plateau = abs(sup_far - sup_mid) <= 0.01 * sup_mid
    small = multiplier_lipschitz_check(
        psi, 2.0, 1.5, [(1.0, 1.01, 0.0, 1.0)], radial(1000.0), 1.0, 1.2
    ).pairs[0].sup_value
    double = multiplier_lipschitz_check(
        psi, 2.0, 1.5, [(1.0, 1.02, 0.0, 1.0)], radial(1000.0), 1.0, 1.2
    ).pairs[0].sup_value
    linear_beta = abs(double - 2.0 * small) <= 0.10 * 2.0 * small

    radii = np.geomspace(0.1, 1000.0, 800)
    wide = alpha_resolvent_holder_check([(0.6, 0.7)], radii)
    narrow = alpha_resolvent_holder_check([(0.625, 0.675)], radii)
    mid = alpha_resolvent_holder_check([(0.6, 0.7)], np.geomspace(0.1, 100.0, 800))
    finite = wide.all_finite and narrow.all_finite
    plateau_alpha = abs(wide.sup_ratio - mid.sup_ratio) <= 0.01 * mid.sup_ratio
    linear_alpha = abs(narrow.sup_ratio - wide.sup_ratio) <= 0.10 * wide.sup_ratio
    elapsed = time.time() - start
    _report(
        "AC-8",
        np.isfinite(sup_far) and plateau and linear_beta and finite
        and plateau_alpha and linear_alpha and elapsed < 5.0,
        f"sup ratios finite; plateau to |xi|=1e3 ({sup_mid:.4f} vs {sup_far:.4f}); "
        f"gap scaling linear within 10% (beta: {double/small:.3f}x per 2x gap; "
        f"alpha: {narrow.sup_ratio/wide.sup_ratio:.3f} ratio at half gap), {elapsed:.1f}s",
    )


def test_ac9_growth_bounds():
    start = time.time()
    results = []
    for name, spec in generator_symbol_table():
        coarse = default_probe_points(spec.d, 25.0, 101)
        fine = default_probe_points(spec.d, 25.0, 201)
        b0 = growth_bound_constant(spec, coarse)
        b1 = growth_bound_constant(spec, fine)
        results.append((name, np.isfinite(b0) and np.isfinite(b1)
                        and b0 <= b1 <= 1.05 * b0))
    elapsed = time.time() - start
    _report("AC-9", all(ok for _, ok in results) and elapsed < 1.0,
            f"finite, 5%-refinement-stable growth bounds for all "
            f"{len(results)} table symbols, {elapsed:.2f}s")


def test_ac10_ensemble_determinism(tmp_path):
    start = time.time()
    cfgfile = tmp_path / "det.cfg"
    cfgfile.write_text("[macro]\nN = 10\n\n[ensemble]\nsnapshot_steps = 0, 10\n")

    def run_with_workers(workers, tag):
        out = tmp_path / f"run_{tag}"
        code = cli_main([
            "--config", str(cfgfile), "--seed", "2718", "--workers", str(workers),
            "--out", str(out), "ensemble", "--samples", "8",
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        return {e["path"]: e["sha256"] for e in manifest["outputs"]}

    d1 = run_with_workers(1, "w1")
    d1_again = run_with_workers(1, "w1b")
    d2 = run_with_workers(2, "w2")
    d8 = run_with_workers(8, "w8")
    identical = d1 == d1_again == d2 == d8
    elapsed = time.time() - start
    _report("AC-10", identical,
            f"byte-identical output digests across repeats and 1/2/8 workers "
            f"({len(d1)} files), {elapsed:.0f}s")
