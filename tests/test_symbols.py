import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyflow.drivers import RngStream
from levyflow.errors import (
    DimensionMismatch,
    EmptyGrid,
    ExponentOutOfRange,
    NotRealValued,
    UnsupportedMeasure,
)
from levyflow.symbols import (
    AffinePowerBernstein,
    AtomMeasure,
    DiscreteJumpLaw,
    GaussianJumpLaw,
    LevyQuadruple,
    ScaledSymbol,
    ShiftedSymbol,
    StableSymbol,
    TripleSymbol,
    ZeroMeasure,
    compose_symbols,
    default_probe_points,
    driven_symbol,
    generator_symbol_table,
    growth_bound_constant,
    subordinator_measure,
)

UNIT_JUMP = DiscreteJumpLaw(points=(1.0,), probs=(1.0,))


def diffusion(*q_diagonal):
    """``(xi, Q xi)/2`` for a diagonal Q, as a symbol without drift or jumps."""
    return TripleSymbol(drift=(0.0,) * len(q_diagonal), q_matrix=np.diag(q_diagonal))


def poisson(rate):
    """Unit-jump Poisson symbol ``rate * (1 - e^{i xi})`` on the line."""
    return TripleSymbol(drift=(0.0,), q_matrix=((0.0,),), rate=rate, jumps=UNIT_JUMP)


# the case ids name the shape of each symbol: drift, diffusion and jump
# symbols are all TripleSymbol instances
_TABLE = dict(generator_symbol_table())
ALL_SPECS = {
    "DriftQuadraticSymbol": _TABLE["bm_drift"],
    "PoissonSymbol": _TABLE["poisson"],
    "CompoundPoissonSymbol": _TABLE["compound_poisson"],
    "TripleSymbol": _TABLE["full_triple"],
    "StableSymbol": _TABLE["alpha_stable"],
    "QuadraticSymbol": diffusion(1.0, 1.0),
    "ScaledSymbol": ScaledSymbol(1.7, StableSymbol(0.8, 1.0, 1)),
    "ShiftedSymbol": ShiftedSymbol(StableSymbol(1.2, 1.0, 1), 1.5),
}


def test_quadratic_identity_value():
    spec = diffusion(1.0, 1.0)
    assert spec.evaluate((1.0, 1.0)) == pytest.approx(1.0)


def test_stable_power_law():
    spec = StableSymbol(exponent=1.5, scale=1.0, dim=1)
    for xi in (0.5, 2.0, 9.0):
        assert spec.evaluate([xi]) == pytest.approx(abs(xi) ** 1.5)


def test_poisson_symbol_against_semigroup_oracle():
    """Finite difference of the Poisson semigroup on a test exponential.

    T_h e_xi = phi_h(xi) e_xi with phi_h = sum_k pois(k; rate*h) e^{i xi k};
    the generator is -psi, so (1 - phi_h)/h -> psi(xi).
    """
    rate, xi, h = 2.0, 0.9, 1e-6
    pmf_scale = math.exp(-rate * h)
    phi_h = sum(
        pmf_scale * (rate * h) ** k / math.factorial(k) * np.exp(1j * xi * k)
        for k in range(12)
    )
    oracle = (1.0 - phi_h) / h
    got = poisson(rate).evaluate([xi])
    assert got == pytest.approx(oracle, abs=1e-5)
    # the hand value at xi = pi: 2 (1 - e^{i pi}) = 4
    assert poisson(2.0).evaluate([np.pi]) == pytest.approx(4.0, abs=1e-12)


def test_characteristic_function_against_subordinated_brownian_mc():
    """Monte Carlo oracle: Brownian motion (generator = Laplacian) time
    changed by the alpha-subordinator has symbol |xi|^{2 alpha}, so its
    characteristic function at t = 1 is exp(-psi(xi)) with the stable
    symbol of exponent 2 alpha."""
    alpha, xi, n = 0.75, 2.0, 500_000
    rng = RngStream(2024, 0)
    u = rng.uniform(n) * np.pi
    e = rng.generator.exponential(1.0, n)
    a = (
        np.sin(alpha * u) ** alpha
        * np.sin((1 - alpha) * u) ** (1 - alpha)
        / np.sin(u)
    ) ** (1.0 / (1 - alpha))
    subordinator = (a / e) ** ((1 - alpha) / alpha)
    z = np.sqrt(2.0 * subordinator) * rng.normal(n)
    mc = float(np.cos(xi * z).mean())
    spec = StableSymbol(exponent=2 * alpha, scale=1.0, dim=1)
    exact = math.exp(-spec.evaluate([xi]).real)
    assert exact == pytest.approx(math.exp(-(2.0**1.5)))
    assert mc == pytest.approx(exact, abs=2.5e-3)


def test_compose_power_half_gives_absolute_value():
    # |xi|^2 as a quadratic symbol with Q = 2I, then the square root
    spec = compose_symbols(AffinePowerBernstein(0.0, 1.0, 0.5), diffusion(2.0))
    for xi in (-3.0, 0.25, 7.0):
        assert spec.evaluate([xi]) == pytest.approx(abs(xi), rel=1e-12)


def test_compose_identity_returns_inner():
    inner = StableSymbol(1.1, 1.0, 1)
    assert compose_symbols(AffinePowerBernstein(0.0, 1.0, 1.0), inner) is inner


def test_compose_power_on_spectral_square():
    spec = compose_symbols(AffinePowerBernstein(0.0, 1.0, 0.75), diffusion(2.0))
    assert spec.evaluate([2.0]) == pytest.approx(2.828427, abs=1e-6)


def test_compose_rejects_complex_inner():
    with pytest.raises(NotRealValued):
        compose_symbols(AffinePowerBernstein(0.0, 1.0, 0.5), TripleSymbol((1.0,), ((1.0,),)))


def test_compose_matches_pointwise_power():
    inner = StableSymbol(1.4, 0.7, 1)
    composed = compose_symbols(AffinePowerBernstein(0.0, 1.0, 0.6), inner)
    pts = default_probe_points(1, 20.0, 101)
    direct = np.power(inner.evaluate_many(pts).real, 0.6)
    assert np.allclose(composed.evaluate_many(pts).real, direct, atol=1e-12)


def test_growth_bound_values():
    pts = default_probe_points(2, 30.0, 121)
    assert growth_bound_constant(diffusion(1.0, 1.0), pts) <= 0.5
    line = default_probe_points(1, 100.0, 801)
    stable = StableSymbol(1.6, 1.0, 1)
    assert growth_bound_constant(stable, line) <= 1.0
    poisson_bound = growth_bound_constant(poisson(3.0), line)
    assert 0.0 < poisson_bound <= 6.0


def test_growth_bound_empty_grid():
    with pytest.raises(EmptyGrid):
        growth_bound_constant(poisson(1.0), np.empty((0, 1)))


@pytest.mark.parametrize("name,spec", generator_symbol_table())
def test_growth_bound_refinement(name, spec):
    """Superset refinement never decreases the sup, and it is 5%-stable."""
    coarse = default_probe_points(spec.d, 25.0, 101)
    fine = default_probe_points(spec.d, 25.0, 201)  # contains the coarse grid
    b0 = growth_bound_constant(spec, coarse)
    b1 = growth_bound_constant(spec, fine)
    assert b1 >= b0 - 1e-14
    assert b1 <= b0 * 1.05


def test_generator_table_contents():
    table = generator_symbol_table()
    assert len(table) == 5
    named = dict(table)
    assert isinstance(named["alpha_stable"], StableSymbol)
    for name in ("bm_drift", "poisson", "compound_poisson", "full_triple"):
        assert isinstance(named[name], TripleSymbol)


@pytest.mark.parametrize("spec", ALL_SPECS.values(), ids=ALL_SPECS.keys())
def test_hermitian_symmetry_and_positivity(spec):
    pts = default_probe_points(spec.d, 12.0, 41)
    vals = spec.evaluate_many(pts)
    mirrored = spec.evaluate_many(-pts)
    assert np.allclose(np.conj(vals), mirrored, atol=1e-12)
    assert float(vals.real.min()) >= -1e-12


@pytest.mark.parametrize("spec", ALL_SPECS.values(), ids=ALL_SPECS.keys())
def test_killing_constant_at_zero(spec):
    value = spec.evaluate(np.zeros(spec.d))
    expected = 1.0 if isinstance(spec, ShiftedSymbol) else 0.0
    assert value.real == pytest.approx(expected, abs=1e-12)
    assert abs(value.imag) <= 1e-12


@given(st.floats(-20, 20), st.floats(-20, 20))
@settings(max_examples=60, deadline=None)
def test_hermitian_symmetry_property(x, y):
    spec = dict(generator_symbol_table())["bm_drift"]
    xi = np.array([x, y])
    assert np.conj(spec.evaluate(xi)) == pytest.approx(spec.evaluate(-xi), abs=1e-10)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        poisson(1.0).evaluate([1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        TripleSymbol((0.0, 0.0), np.eye(2), rate=1.0, jumps=UNIT_JUMP)
    with pytest.raises(DimensionMismatch):
        diffusion(1.0, 1.0).evaluate([1.0])


def test_shifted_symbol_formula():
    base = StableSymbol(1.5, 1.0, 1)
    spec = ShiftedSymbol(base, 1.2)
    xi = 3.0
    assert spec.evaluate([xi]).real == pytest.approx((1 + xi**1.5) ** 0.6)


def test_scaled_symbol():
    base = poisson(2.0)
    assert ScaledSymbol(0.5, base).evaluate([1.0]) == pytest.approx(
        0.5 * base.evaluate([1.0])
    )
    with pytest.raises(ExponentOutOfRange):
        ScaledSymbol(-1.0, base)


# ---------------------------------------------------------------------------
# quadruples: two independent evaluation routes must agree
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["bm_drift", "poisson", "compound_poisson", "full_triple"])
def test_quadruple_route_matches_direct_route(name):
    spec = dict(generator_symbol_table())[name]
    quad = spec.quadruple()
    for raw in ([0.7, -1.3], [2.5, 0.4], [-3.0, 1.0]):
        xi = np.asarray(raw[: spec.d])
        assert quad.evaluate(xi) == pytest.approx(spec.evaluate(xi), abs=1e-11)


def test_stable_quadruple_via_measure_quadrature():
    spec = StableSymbol(1.5, 1.0, 1)
    quad = spec.quadruple()
    for xi in (0.3, 2.0, 7.7):
        direct = spec.evaluate(np.array([xi]))
        via_measure = quad.evaluate(np.array([xi]))
        assert via_measure == pytest.approx(direct, rel=1e-9)


def test_subordinator_measure_closed_form():
    """integral (1 - e^{i xi y}) nu(dy) = (-i xi)^alpha for the standard
    alpha-subordinator measure alpha/Gamma(1-alpha) y^{-1-alpha} dy."""
    alpha = 0.75
    measure = subordinator_measure(alpha)
    for xi in (2.0, -0.7, 15.0):
        got = measure.uncompensated_integral(xi)
        want = abs(xi) ** alpha * np.exp(-1j * np.sign(xi) * alpha * np.pi / 2)
        assert got == pytest.approx(want, rel=1e-9)


def test_quadruple_validation():
    with pytest.raises(DimensionMismatch):
        LevyQuadruple(0.0, (0.0, 0.0), ((1.0, 0.5), (0.0, 1.0)), ZeroMeasure())
    with pytest.raises(ExponentOutOfRange):
        LevyQuadruple(0.0, (0.0,), ((-1.0,),), ZeroMeasure())
    with pytest.raises(ExponentOutOfRange):
        LevyQuadruple(-0.1, (0.0,), ((1.0,),), ZeroMeasure())


def test_measure_validation():
    with pytest.raises(UnsupportedMeasure):
        AtomMeasure(((0.0, 0.0),), (1.0,))
    with pytest.raises(UnsupportedMeasure):
        AtomMeasure(((1.0,),), (-0.5,))
    with pytest.raises(UnsupportedMeasure):
        DiscreteJumpLaw((1.0, 2.0), (0.7, 0.7))
    with pytest.raises(UnsupportedMeasure):
        TripleSymbol((0.0,), ((0.0,),), rate=1.0)
    with pytest.raises(ExponentOutOfRange):
        StableSymbol(2.0, 1.0, 1)
    with pytest.raises(ExponentOutOfRange):
        AffinePowerBernstein(0.0, 1.0, 1.5)
    with pytest.raises(ExponentOutOfRange):
        AffinePowerBernstein(0.0, 1.0, 0.0)


def test_compound_poisson_measure_rejects_nondiscrete_compensation():
    spec = TripleSymbol((0.0,), ((0.0,),), rate=1.0, jumps=GaussianJumpLaw((0.0,), 1.0))
    with pytest.raises(UnsupportedMeasure):
        spec.quadruple()
    # the direct route works through the jump characteristic function
    assert spec.evaluate(np.array([1.0])) == pytest.approx(1.0 - np.exp(-0.5), abs=1e-12)


def test_affine_power_bernstein_composition():
    outer = AffinePowerBernstein(c0=0.5, c1=2.0, alpha=0.25)
    spec = compose_symbols(outer, diffusion(2.0))
    xi = 3.0
    assert spec.evaluate([xi]).real == pytest.approx(0.5 + 2.0 * (xi**2) ** 0.25)
    # the affine offset acts as a killing constant
    assert spec.evaluate([0.0]).real == pytest.approx(0.5)
    with pytest.raises(ExponentOutOfRange):
        AffinePowerBernstein(-0.1, 1.0, 0.5)


def test_driven_symbol_matches_resolvent_form():
    base = StableSymbol(1.5, 1.0, 1)  # |xi|^{2 alpha} with alpha = 0.75
    theta = driven_symbol(base, driver_value=1.3, order=1.4)
    xi = 2.0
    assert theta.evaluate([xi]).real == pytest.approx(
        (1.0 + 1.3 * xi**1.5) ** 0.7
    )
    assert theta.evaluate([0.0]).real == pytest.approx(1.0)
