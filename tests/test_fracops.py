import hashlib
import math

import numpy as np
import pytest

from levyflow.errors import EmptyGrid, ExponentOutOfRange, GridMismatch
from levyflow.fracops import _axis_kernels, _axis_symbols, frac_constant, symbol_multiplier
from levyflow.grids import Grid, GridField, fourier_multiply
from levyflow.linsolve import bicgstab
from levyflow.symbols import StableSymbol, TripleSymbol

from operator_reference import (
    FracLapOperator,
    alpha_resolvent_holder_check,
    multiplier_lipschitz_check,
    resolvent_symbol,
    spectral_oracle,
    standard_laplacian,
)

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
    assert frac_constant(1.0) == pytest.approx(1.0 / math.pi, rel=1e-12)
    # scheme limit: the singular weight approaches the 3-point Laplacian
    p = 1.999
    assert frac_constant(p) / (2.0 - p) == pytest.approx(1.0, rel=2e-3)
    for p in (0.1, 0.5, 1.0, 1.5, 1.9):
        assert frac_constant(p) > 0


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


def _axis_kernel(axis_points, spacing, p, n_tail):
    """Reference for one row of ``fracops._axis_kernels``: the scalar build
    of one exponent's (kernel, far) with a tail truncated after ``n_tail``
    nodes.  It adds the singular weights and then each product-trapezoid
    tail weight at its wrapped offset and at the mirror offset with
    ``np.add.at``, in node order; ``far`` closes the remainder beyond
    ``n_tail * h`` against the field mean."""
    m = axis_points
    h = spacing
    c1 = frac_constant(p)
    kernel = np.zeros(m)
    sing = c1 / ((2.0 - p) * h**p)
    kernel[1] += sing
    kernel[-1] += sing
    i = np.arange(1, n_tail + 1)
    y = i * h
    a, b = y[:-1], y[1:]
    powers = y**-p
    mom0 = (powers[:-1] - powers[1:]) / p
    if abs(p - 1.0) < 1e-12:
        mom1 = np.log(b / a)
    else:
        powers = y ** (1.0 - p)
        mom1 = (powers[:-1] - powers[1:]) / (p - 1.0)
    w = np.zeros(n_tail)
    w[:-1] += (b * mom0 - mom1) / h
    w[1:] += (mom1 - a * mom0) / h
    w *= c1
    np.add.at(kernel, i % m, w)
    np.add.at(kernel, -i % m, w)
    far = 2.0 * c1 * (n_tail * h) ** (-p) / p
    kernel[0] = 0.0
    return kernel, far


# p = 1.0 is the limit of the closed-form tail's 1 / (p - 1)
KERNEL_EXPONENTS = (0.5, 1.0, 1.5, 1.2345, 1.8, 1.7, 1.9)


@pytest.mark.parametrize("m", [21, 96, 1536])
@pytest.mark.parametrize("p", [0.5, 1.0, 1.2345, 1.5, 1.8, 1.9999])
def test_exact_symbols_match_long_tail_reference(m, p):
    # the reference sums 4000 periods of the tail (400 at M = 1536) and
    # closes the rest with far; the exact sum has no truncation at all
    kernel, far = _axis_kernel(m, 1.0 / m, p, (400 if m == 1536 else 4000) * m)
    ref = np.fft.fft(kernel).real - kernel.sum() - far
    ref[0] = 0.0
    lam = _axis_symbols(_axis_kernels(m, 1.0 / m, [p]))[0]
    assert np.max(np.abs(lam - ref)) <= 1e-9 * np.max(np.abs(ref))


@pytest.mark.parametrize("m", [21, 96, 1536])
def test_symbols_continuous_at_p_equal_one(m):
    # p = 1 is the log limit of the tail's 1 / (p - 1): no branch, no lost digits
    exact = _axis_symbols(_axis_kernels(m, 1.0 / m, [1.0]))[0]
    near = _axis_symbols(_axis_kernels(m, 1.0 / m, [1.0 - 1e-9, 1.0 + 1e-9]))
    assert np.max(np.abs(near - exact)) <= 1e-7 * np.max(np.abs(exact))


# besides the unit grids: the long domains 1000 / 96 and 1000 / 64, where
# h^-p is small, and a short grid of 48 points
@pytest.mark.parametrize("grid", [
    GRID_1D,
    Grid((1000.0,), (96,)),
    Grid((1000.0,), (64,)),
    Grid((1.0,), (48,)),
    GRID_2D,  # anisotropic: each axis its own points and spacing
], ids=["1d", "cap-and-partial", "mixed-tails", "explicit-tails", "aniso"])
def test_stacked_kernels_match_scalar_reference_bitwise(grid):
    for m, d in zip(grid.shape, grid.spacings):
        kernels = _axis_kernels(m, d, list(KERNEL_EXPONENTS))
        for row, p in enumerate(KERNEL_EXPONENTS):
            assert np.array_equal(kernels[row], _axis_kernels(m, d, [p])[0]), (m, p)


def _roll_apply(op, values):
    """Reference apply: the per-axis kernel summed tap by tap with np.roll."""
    out = np.zeros_like(values)
    for axis in range(op.grid.ndim):
        kernel = _axis_kernels(op.grid.shape[axis], op.grid.spacings[axis], [op.exponent])[0]
        for off in np.nonzero(kernel)[0]:
            out += kernel[off] * (np.roll(values, -int(off), axis=axis) - values)
    return out


SPECTRAL_CASES = [
    GRID_1D,
    Grid((1.0,), (45,)),
    Grid((2.1, 2.1), (21, 21)),
    GRID_2D,  # anisotropic: unequal lengths, counts and spacings
]


@pytest.mark.parametrize("grid", SPECTRAL_CASES, ids=["1d", "1d-odd", "2d", "2d-aniso"])
@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 1.8])
def test_spectral_apply_matches_tap_sum(grid, p):
    op = FracLapOperator(grid, p)
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
    ref = bicgstab(apply_op, b[None], tol=1e-13).solution[0]
    assert np.linalg.norm(x - ref) <= 1e-11 * np.linalg.norm(ref)
    # a zero shift is the identity, bit for bit, and returns a copy
    same = op.solve_shifted(b, 0.0)
    assert np.array_equal(same, b) and same is not b


STACK_EXPONENTS = (0.5, 1.0, 1.5, 1.23)


@pytest.mark.parametrize("grid", [GRID_1D, GRID_2D], ids=["1d", "2d"])
def test_exponent_stack_rows_equal_single_exponent_calls(grid):
    # bitwise: NumPy special-cases some scalar powers (x ** 0.5 is sqrt), so
    # a broadcast exponent array could move bits that these rows pin down
    op = FracLapOperator(grid, np.array(STACK_EXPONENTS))
    stack = np.array([[_random_field(grid, 10 * k + j) for j in range(len(STACK_EXPONENTS))]
                      for k in range(2)])
    approx = op.apply_values(stack)
    exact = spectral_oracle(grid, STACK_EXPONENTS, stack)
    assert approx.shape == exact.shape == stack.shape
    for j, p in enumerate(STACK_EXPONENTS):
        single = FracLapOperator(grid, p)
        assert op._symbol[j].tobytes() == single._symbol.tobytes()
        for k in range(stack.shape[0]):
            f = GridField(grid, stack[k, j])
            assert approx[k, j].tobytes() == single.apply_values(stack[k, j]).tobytes()
            assert exact[k, j].tobytes() == spectral_oracle(grid, p, f).values.tobytes()
    # a scalar exponent acts on every field of the stack alike
    scalar = spectral_oracle(grid, 1.23, stack)
    assert scalar[1, 0].tobytes() == spectral_oracle(
        grid, 1.23, GridField(grid, stack[1, 0])).values.tobytes()


def _half_lattice_radius(grid):
    """|xi| on the half FFT lattice, built with np.fft.rfftfreq and fftfreq
    independently of symbol_multiplier's mesh."""
    if grid.ndim == 1:
        return 2 * np.pi * np.abs(np.fft.rfftfreq(grid.shape[0], grid.spacings[0]))
    kx = 2 * np.pi * np.fft.fftfreq(grid.shape[0], grid.spacings[0])
    ky = 2 * np.pi * np.fft.rfftfreq(grid.shape[1], grid.spacings[1])
    return np.hypot(kx[:, None], ky[None, :])


LATTICE_GRIDS = [GRID_1D, Grid((1.0,), (45,)), GRID_2D]


@pytest.mark.parametrize("grid", LATTICE_GRIDS, ids=["1d", "1d-odd", "2d-aniso"])
def test_symbol_multiplier_is_the_symbol_on_the_lattice(grid):
    radius = _half_lattice_radius(grid)
    half_shape = np.fft.rfftn(np.zeros(grid.shape)).shape
    for p in (0.5, 1.0, 1.5):
        mult = symbol_multiplier(grid, StableSymbol(p, dim=grid.ndim))
        assert mult.shape == half_shape
        assert np.allclose(mult, radius**p, rtol=1e-13, atol=0.0)
    square = TripleSymbol(drift=(0.0,) * grid.ndim, q_matrix=2.0 * np.eye(grid.ndim))
    assert np.allclose(symbol_multiplier(grid, square), radius**2, rtol=1e-13, atol=0.0)


def test_symbol_multiplier_drift_is_a_derivative():
    # the generator -psi(D) of psi(xi) = -i b xi is b d/dx; the half lattice
    # carries the complex symbol because psi(-xi) = conj psi(xi)
    grid = Grid((2.0,), (45,))
    x = grid.axis_coords(0)
    k = 2 * np.pi * 3 / 2.0
    drift = -symbol_multiplier(grid, TripleSymbol(drift=(0.7,), q_matrix=((0.0,),)))
    out = fourier_multiply(grid, np.sin(k * x), drift)
    assert np.allclose(out, 0.7 * k * np.cos(k * x), atol=1e-12)


def test_operator_applies_through_the_shared_multiply():
    op = FracLapOperator(GRID_2D, 1.3)
    values = _random_field(GRID_2D, 8)
    assert op.apply_values(values).tobytes() == fourier_multiply(
        GRID_2D, values, op._symbol).tobytes()


def _complex_fft_oracle(grid, p, values):
    """Reference oracle, independent of the symbol classes: ``-|xi|^p`` as
    a power of ``|xi|^2`` on the full lattice, one complex FFT pair, real
    part."""
    freqs = [2.0 * math.pi * np.fft.fftfreq(m, d) for m, d in zip(grid.shape, grid.spacings)]
    if grid.ndim == 1:
        ksq = freqs[0] ** 2
    else:
        ksq = freqs[0][:, None] ** 2 + freqs[1][None, :] ** 2
    mult = -np.power(ksq, p / 2.0, where=ksq > 0, out=np.zeros_like(ksq))
    axes = tuple(range(-grid.ndim, 0))
    return np.fft.ifftn(mult * np.fft.fftn(values, axes=axes), axes=axes).real


def test_oracle_matches_the_complex_fft_oracle():
    # rounding-level agreement: the symbol takes |xi|^p as sqrt then power,
    # the reference as a power of |xi|^2, and the FFT pairs differ; the
    # FFT's rounding in the top modes, scaled by |xi|^p, dominates at M = 1536
    field = np.random.Generator(np.random.Philox(key=[23, 0])).standard_normal(GRID_2D.shape)
    for p in (0.5, 1.23, 1.9):
        ref = _complex_fft_oracle(GRID_2D, p, field)
        got = spectral_oracle(GRID_2D, p, field)
        assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))
    # the fracheck benchmark's largest rung, as one stacked call like fracheck's
    ladder = Grid((1.0,), (1536,))
    x = ladder.axis_coords(0)
    exponents, modes = (0.5, 1.0, 1.5), (1, 2, 3)
    waves = np.array([np.cos(2 * np.pi * k * x) for k in modes])[:, None]
    got = spectral_oracle(ladder, exponents, waves)
    ref = np.array([[_complex_fft_oracle(ladder, p, wave[0]) for p in exponents]
                    for wave in waves])
    assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_oracle_exponent_validation():
    f = GridField(GRID_1D, _random_field(GRID_1D, 1))
    for p in (0.0, 2.0, 2.5, (1.0, 2.5), (0.0, 1.0)):
        with pytest.raises(ExponentOutOfRange):
            spectral_oracle(GRID_1D, p, f)
    with pytest.raises(ExponentOutOfRange):
        spectral_oracle(GRID_1D, (1.0, 2.1), f.values[None])


def test_grid_mismatch():
    op = FracLapOperator(GRID_1D, 1.5)
    other = GridField(Grid((1.0,), (64,)), np.zeros(64))
    with pytest.raises(GridMismatch):
        op.apply(other)
    with pytest.raises(GridMismatch):
        spectral_oracle(GRID_1D, 1.5, other)


def test_frac_operator_validation():
    with pytest.raises(ExponentOutOfRange):
        FracLapOperator(GRID_1D, 2.0)


# ---------------------------------------------------------------------------
# multiplier bound checks
# ---------------------------------------------------------------------------

PSI = TripleSymbol(drift=(0.0,), q_matrix=((2.0,),))  # |xi|^2 on the line


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
    with pytest.raises(ValueError):
        multiplier_lipschitz_check(PSI, 2.0, 1.5, [(0.0, 1.1, 0, 0)], pts)
    with pytest.raises(ValueError):
        multiplier_lipschitz_check(
            PSI, 2.0, 1.5, [(1.0, 1.5, 0, 0)], pts, beta_low=1.0, beta_high=1.2
        )
    with pytest.raises(EmptyGrid):
        multiplier_lipschitz_check(PSI, 2.0, 1.5, [(1.0, 1.1, 0, 0)], np.empty((0, 1)))


def test_multiplier_check_on_a_stable_base():
    # frozen members of the driver-indexed stable family are real and equal
    # 1 at xi = 0, and a pair of them passes with its own fitted constant
    base = StableSymbol(1.5, 1.0, 1)
    for beta in (1.2, 1.7):
        assert resolvent_symbol(base, beta, 1.6, [[0.0]]) == pytest.approx([1.0])
        assert resolvent_symbol(base, beta, 1.6, [[3.0]]).dtype == np.float64
    report = multiplier_lipschitz_check(
        base, s=1.6, r=1.2, beta_pairs=[(1.2, 1.7, 0.5, 2.0)],
        probe_points=_radial_points(1e-3, 1000.0, 400), beta_low=1.1, beta_high=1.9,
    )
    assert report.satisfied
    assert 0.0 < report.sup_ratio < np.inf


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


# SHA-256 of FracLapOperator._symbol's bytes; a faster build must keep
# every bit.  Each case is (grid, exponents).
GOLDEN_SYMBOL_CASES = {
    # the 21x21 macro grid, exponents p = 2 alpha inside the alpha window
    "macro-21x21": (Grid((2.1, 2.1), (21, 21)), (1.2345, 1.3, 1.5, 1.75)),
    "aniso-48x36": (GRID_2D, (0.5, 1.0, 1.5, 1.23)),
    # the fracheck benchmark ladder; p = 1.0 is the tail's log limit
    **{f"ladder-{m}": (Grid((1.0,), (m,)), (0.5, 1.0, 1.5)) for m in (96, 192, 384, 768, 1536)},
    # a long domain, where h^-p is small
    "mixed-tails": (Grid((1000.0,), (64,)), (1.0, 1.7, 1.9)),
}
GOLDEN_SYMBOL_SHA256 = {
    "macro-21x21": "4a80c6cf3a3f525f148c44024ecf330500bb19a7c9265d5c2f9dccb1dae95516",
    "aniso-48x36": "55d23e4986786a459dc0037b74eaef8d9157534c84b7f94e18b046615aec00f4",
    "ladder-96": "8fee808f27356c33722b503e2f041f43ec847d5b760831942af6a4c8f97a54d4",
    "ladder-192": "27787da5cbfe8b36713788e85b1902031cd5e695fce01047f123a1288dc3b491",
    "ladder-384": "34463224da85b8a2660735dab1f7eb8f0a49f0f5832d408ac4120457fc43ba0f",
    "ladder-768": "9f6f2667a0d4630ebb8f96c9a23c760f788499f0a3bc7fd080b0f2ff937a28ef",
    "ladder-1536": "42900586b5ff890e881f24c80a9520355dd1b598326c28febc230709bda1444c",
    "mixed-tails": "37a0411295ff00f9eee4e70c1e941e46167315d2cc5e1167795747e1cea4a79d",
}


@pytest.mark.parametrize("case", list(GOLDEN_SYMBOL_CASES))
def test_symbol_golden_digest(case):
    grid, exponents = GOLDEN_SYMBOL_CASES[case]
    op = FracLapOperator(grid, np.array(exponents))
    assert op._symbol.shape[0] == len(exponents)
    assert hashlib.sha256(op._symbol.tobytes()).hexdigest() == GOLDEN_SYMBOL_SHA256[case]
