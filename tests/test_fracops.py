import math

import numpy as np
import pytest

from levyflow.errors import (
    BetaOutOfRange,
    EmptyGrid,
    ExponentOutOfRange,
    GridMismatch,
)
from levyflow.fracops import (
    FracLapOperator,
    _axis_kernel,
    alpha_resolvent_holder_check,
    apply_frac_laplacian,
    default_tail_nodes,
    frac_constant,
    multiplier_lipschitz_check,
    spectral_oracle,
    standard_laplacian,
)
from levyflow.grids import Grid, GridField
from levyflow.linsolve import bicgstab
from levyflow.symbols import QuadraticSymbol

GRID_1D = Grid((1.0,), (128,))
GRID_2D = Grid((1.0, 1.5), (48, 36))


def _random_field(grid, seed, band=6):
    """Smooth band-limited random field."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    if grid.ndim == 1:
        x = grid.axis_coords(0)
        out = np.zeros(grid.shape)
        for k in range(1, band + 1):
            a, b = rng.standard_normal(2)
            out += a * np.cos(2 * np.pi * k * x / grid.lengths[0])
            out += b * np.sin(2 * np.pi * k * x / grid.lengths[0])
        return out
    xs, ys = grid.meshes()
    out = np.zeros(grid.shape)
    for kx in range(0, band):
        for ky in range(0, band):
            if kx == ky == 0:
                continue
            a, b = rng.standard_normal(2)
            phase = 2 * np.pi * (kx * xs / grid.lengths[0] + ky * ys / grid.lengths[1])
            out += a * np.cos(phase) + b * np.sin(phase)
    return out


def test_frac_constant_values():
    assert frac_constant(1, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-12)
    # scheme limit: the singular weight approaches the 3-point Laplacian
    p = 1.999
    assert frac_constant(1, p) / (2.0 - p) == pytest.approx(1.0, rel=2e-3)
    for p in (0.1, 0.5, 1.0, 1.5, 1.9):
        assert frac_constant(1, p) > 0
        assert frac_constant(2, p) > 0


def test_frac_constant_validation():
    with pytest.raises(ExponentOutOfRange):
        frac_constant(1, 2.0)
    with pytest.raises(ExponentOutOfRange):
        frac_constant(1, 0.0)
    with pytest.raises(ExponentOutOfRange):
        frac_constant(3, 1.0)


def test_apply_annihilates_constants():
    op = FracLapOperator(GRID_1D, 1.3)
    f = GridField(GRID_1D, np.full(GRID_1D.shape, 3.7))
    assert np.max(np.abs(op.apply(f).values)) <= 1e-10
    op2 = FracLapOperator(GRID_2D, 0.8)
    f2 = GridField(GRID_2D, np.full(GRID_2D.shape, -1.2))
    assert np.max(np.abs(op2.apply(f2).values)) <= 1e-10


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5])
def test_cosine_eigenvalue_against_oracle(p):
    grid = Grid((1.0,), (256,))
    x = grid.axis_coords(0)
    f = GridField(grid, np.cos(2 * np.pi * x))
    approx = FracLapOperator(grid, p).apply(f)
    oracle = spectral_oracle(grid, p, f)
    err = np.max(np.abs(approx.values - oracle.values)) / np.max(np.abs(oracle.values))
    assert err <= 0.05
    # the oracle itself acts diagonally with eigenvalue -(2 pi / L)^p
    lam = oracle.values[0] / f.values[0]
    assert lam == pytest.approx(-((2 * math.pi) ** p), rel=1e-10)


def test_classical_limit_matches_three_point_laplacian():
    f = GridField(GRID_1D, _random_field(GRID_1D, 5))
    frac = FracLapOperator(GRID_1D, 1.999).apply(f)
    classic = standard_laplacian(GRID_1D, f)
    rel = np.linalg.norm(frac.values - classic.values) / np.linalg.norm(classic.values)
    assert rel <= 0.02


def test_linearity():
    op = FracLapOperator(GRID_1D, 1.4)
    f = _random_field(GRID_1D, 1)
    g = _random_field(GRID_1D, 2)
    lhs = op.apply_values(2.0 * f - 0.5 * g)
    rhs = 2.0 * op.apply_values(f) - 0.5 * op.apply_values(g)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


@pytest.mark.parametrize("grid", [GRID_1D, GRID_2D], ids=["1d", "2d"])
def test_self_adjoint_and_negative(grid):
    op = FracLapOperator(grid, 1.5)
    f = _random_field(grid, 3)
    g = _random_field(grid, 4)
    lhs = float((op.apply_values(f) * g).sum())
    rhs = float((f * op.apply_values(g)).sum())
    scale = max(1.0, abs(lhs))
    assert lhs == pytest.approx(rhs, abs=1e-8 * scale)
    assert float((op.apply_values(f) * f).sum()) <= 1e-8


def _ladder_errors(p, k, resolutions):
    errs = []
    for m in resolutions:
        grid = Grid((1.0,), (m,))
        x = grid.axis_coords(0)
        f = GridField(grid, np.cos(2 * np.pi * k * x))
        a = FracLapOperator(grid, p).apply(f)
        o = spectral_oracle(grid, p, f)
        errs.append(np.max(np.abs(a.values - o.values)) / np.max(np.abs(o.values)))
    return errs


def test_spectral_convergence_under_refinement():
    # fundamental mode on the coarse ladder ...
    for p in (0.5, 0.7, 1.0, 1.5):
        errs = _ladder_errors(p, 1, (64, 128, 256))
        assert errs[0] > errs[1] > errs[2]
    # ... and the first three modes on the ladder where mode 3 has left
    # the preasymptotic regime
    for p in (0.7, 1.5):
        for k in (1, 2, 3):
            errs = _ladder_errors(p, k, (96, 192, 384))
            assert errs[0] > errs[1] > errs[2]


def test_oracle_trivials():
    f = GridField(GRID_2D, np.full(GRID_2D.shape, 2.2))
    assert np.max(np.abs(spectral_oracle(GRID_2D, 1.2, f).values)) <= 1e-12
    # p = 2 reproduces the exact spectral Laplacian per mode
    grid = Grid((1.0,), (64,))
    x = grid.axis_coords(0)
    for k in (1, 3):
        f = GridField(grid, np.cos(2 * np.pi * k * x))
        lam = spectral_oracle(grid, 2.0, f).values[0] / f.values[0]
        assert lam == pytest.approx(-((2 * math.pi * k) ** 2), rel=1e-10)


def _roll_apply(op, values):
    """Reference apply: the per-axis kernel summed tap by tap with np.roll."""
    out = np.zeros_like(values)
    for axis in range(op.grid.ndim):
        m = op.grid.shape[axis]
        d = op.grid.spacings[axis]
        n_tail = op.n_tail or default_tail_nodes(op.exponent, op.cutoff_steps * d, m)
        kernel, far = _axis_kernel(m, d, op.exponent, op.cutoff_steps, n_tail)
        acc = far * (values.mean(axis=axis, keepdims=True) - values)
        for off in np.nonzero(kernel)[0]:
            acc += kernel[off] * (np.roll(values, -int(off), axis=axis) - values)
        out += acc
    return out


SPECTRAL_CASES = [
    (GRID_1D, 1),
    (Grid((1.0,), (45,)), 2),
    (Grid((2.1, 2.1), (21, 21)), 1),
    (GRID_2D, 1),  # anisotropic: unequal lengths, counts and spacings
]


@pytest.mark.parametrize("grid, cutoff", SPECTRAL_CASES, ids=["1d", "1d-odd", "2d", "2d-aniso"])
@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 1.8])
def test_spectral_apply_matches_tap_sum(grid, cutoff, p):
    op = FracLapOperator(grid, p, cutoff_steps=cutoff)
    rng = np.random.Generator(np.random.Philox(key=[11, 0]))
    values = rng.standard_normal(grid.shape)
    ref = _roll_apply(op, values)
    assert np.linalg.norm(op.apply_values(values) - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("grid", [GRID_1D, GRID_2D], ids=["1d", "2d"])
@pytest.mark.parametrize("p", [1.2, 1.8])
def test_solve_shifted_matches_bicgstab(grid, p):
    op = FracLapOperator(grid, p)
    shift = 1e-3  # keeps BiCGSTAB clear of breakdown at its tight tolerance
    b = np.random.Generator(np.random.Philox(key=[6, 0])).standard_normal(grid.shape)

    def apply_op(x):
        return x - shift * op.apply_values(x)

    x = op.solve_shifted(b, shift)
    residual = np.linalg.norm(b - apply_op(x)) / np.linalg.norm(b)
    assert residual <= 1e-13
    ref = bicgstab(apply_op, b, tol=1e-13).solution
    assert np.linalg.norm(x - ref) <= 1e-11 * np.linalg.norm(ref)
    # a zero shift is the identity, bit for bit, and returns a copy
    same = op.solve_shifted(b, 0.0)
    assert np.array_equal(same, b) and same is not b


def test_grid_mismatch():
    op = FracLapOperator(GRID_1D, 1.5)
    other = GridField(Grid((1.0,), (64,)), np.zeros(64))
    with pytest.raises(GridMismatch):
        apply_frac_laplacian(op, other)
    with pytest.raises(GridMismatch):
        spectral_oracle(GRID_1D, 1.5, other)


def test_frac_operator_validation():
    with pytest.raises(ExponentOutOfRange):
        FracLapOperator(GRID_1D, 2.0)
    with pytest.raises(ExponentOutOfRange):
        FracLapOperator(GRID_1D, 1.0, cutoff_steps=0)
    with pytest.raises(ExponentOutOfRange):
        FracLapOperator(Grid((1.0,), (8,)), 1.0, cutoff_steps=4)


def test_wider_cutoff_still_consistent():
    grid = Grid((1.0,), (256,))
    x = grid.axis_coords(0)
    f = GridField(grid, np.cos(2 * np.pi * x))
    approx = FracLapOperator(grid, 1.2, cutoff_steps=2).apply(f)
    oracle = spectral_oracle(grid, 1.2, f)
    err = np.max(np.abs(approx.values - oracle.values)) / np.max(np.abs(oracle.values))
    assert err <= 0.05


# ---------------------------------------------------------------------------
# multiplier bound checks
# ---------------------------------------------------------------------------

PSI = QuadraticSymbol(((2.0,),))  # |xi|^2 on the line


def _radial_points(lo, hi, n):
    return np.geomspace(lo, hi, n)[:, None]


def test_multiplier_identical_pair_is_zero():
    report = multiplier_lipschitz_check(
        PSI, s=2.0, r=1.5, beta_pairs=[(1.0, 1.0, 0.0, 0.0)],
        probe_points=_radial_points(0.01, 100.0, 200),
        beta_low=1.0, beta_high=1.2,
    )
    assert report.pairs[0].sup_value == 0.0
    assert report.sup_ratio == 0.0


def test_multiplier_finite_and_plateaus():
    sups = []
    for hi in (10.0, 100.0, 1000.0):
        report = multiplier_lipschitz_check(
            PSI, s=2.0, r=1.5, beta_pairs=[(1.0, 1.1, 0.0, 0.1)],
            probe_points=_radial_points(1e-3, hi, 400),
            beta_low=1.0, beta_high=1.2,
        )
        sups.append(report.sup_ratio)
        assert np.isfinite(report.sup_ratio)
        assert report.satisfied
    # extending the grid to |xi| = 1e3 no longer moves the sup (interior max)
    assert sups[2] == pytest.approx(sups[1], rel=1e-2)


def test_multiplier_gap_doubling_at_most_doubles():
    pts = _radial_points(1e-3, 1000.0, 500)
    small = multiplier_lipschitz_check(
        PSI, 2.0, 1.5, [(1.0, 1.01, 0.0, 1.0)], pts, 1.0, 1.2
    ).pairs[0].sup_value
    double = multiplier_lipschitz_check(
        PSI, 2.0, 1.5, [(1.0, 1.02, 0.0, 1.0)], pts, 1.0, 1.2
    ).pairs[0].sup_value
    assert double <= 2.0 * small * 1.01


def test_multiplier_fixed_constant_reusable():
    # fit on small-gap pairs (the sup/gap ratio is largest there, by
    # concavity of the difference in the gap), then re-verify larger gaps
    pts = _radial_points(1e-3, 1000.0, 400)
    fit = multiplier_lipschitz_check(
        PSI, 2.0, 1.5, [(1.0, 1.001, 0.0, 1.0), (1.1, 1.101, 0.0, 1.0)], pts, 1.0, 1.2
    )
    recheck = multiplier_lipschitz_check(
        PSI, 2.0, 1.5, [(1.0, 1.1, 0.0, 1.0), (1.0, 1.2, 0.0, 1.0)], pts, 1.0, 1.2,
        fixed_constant=fit.constant,
    )
    assert recheck.satisfied


def test_multiplier_validation():
    pts = _radial_points(0.1, 10.0, 50)
    with pytest.raises(ExponentOutOfRange):
        multiplier_lipschitz_check(PSI, 2.0, 0.9, [(1.0, 1.1, 0, 0)], pts)
    with pytest.raises(BetaOutOfRange):
        multiplier_lipschitz_check(PSI, 2.0, 1.5, [(0.0, 1.1, 0, 0)], pts)
    with pytest.raises(BetaOutOfRange):
        multiplier_lipschitz_check(
            PSI, 2.0, 1.5, [(1.0, 1.5, 0, 0)], pts, beta_low=1.0, beta_high=1.2
        )
    with pytest.raises(EmptyGrid):
        multiplier_lipschitz_check(PSI, 2.0, 1.5, [(1.0, 1.1, 0, 0)], np.empty((0, 1)))


def test_resolvent_identical_pair_zero():
    report = alpha_resolvent_holder_check([(0.7, 0.7)], np.geomspace(0.1, 100, 100))
    assert report.pairs[0].ratio == 0.0


def test_resolvent_finite_and_gap_stable():
    radii = np.geomspace(0.1, 100.0, 800)
    wide = alpha_resolvent_holder_check([(0.6, 0.7)], radii)
    narrow = alpha_resolvent_holder_check([(0.625, 0.675)], radii)  # centered half gap
    assert wide.all_finite and narrow.all_finite
    assert narrow.sup_ratio == pytest.approx(wide.sup_ratio, rel=0.10)


def test_resolvent_diverges_toward_origin():
    # documented singular behavior: the ratio grows without bound as the
    # probe window approaches xi = 0, which is why it is excluded
    inner = alpha_resolvent_holder_check([(0.6, 0.7)], np.geomspace(0.1, 100, 200))
    closer = alpha_resolvent_holder_check([(0.6, 0.7)], np.geomspace(1e-3, 100, 200))
    assert closer.sup_ratio > 10.0 * inner.sup_ratio


def test_resolvent_validation():
    with pytest.raises(ExponentOutOfRange):
        alpha_resolvent_holder_check([(0.4, 0.7)], np.geomspace(0.1, 10, 10))
    with pytest.raises(ExponentOutOfRange):
        alpha_resolvent_holder_check([(0.6, 0.7)], np.array([0.0, 1.0]))
    with pytest.raises(EmptyGrid):
        alpha_resolvent_holder_check([(0.6, 0.7)], np.array([]))


def test_2d_axis_plane_wave_matches_oracle_to_one_percent():
    grid = Grid((1.0, 1.0), (128, 128))
    xs, _ = grid.meshes()
    f = GridField(grid, np.cos(2 * np.pi * xs))
    approx = FracLapOperator(grid, 1.0).apply(f)
    oracle = spectral_oracle(grid, 1.0, f)
    err = np.max(np.abs(approx.values - oracle.values)) / np.max(np.abs(oracle.values))
    assert err <= 0.01
