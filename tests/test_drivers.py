import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyflow import drivers
from levyflow.config import macro_config_from
from levyflow.drivers import (
    CAUCHY_AMPLITUDE,
    NOISE_LAWS,
    SWITCHING_WEIGHTS,
    QWienerSpec,
    RngStream,
    StreamChunk,
    draw_noise,
    _basis_matrix,
    sample_qwiener_increment,
)
from levyflow.errors import ConfigInvalid, GridMismatch
from levyflow.grids import Grid
from levyflow.macro import MacroConfig

from operator_reference import qwiener_pointwise_variance


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------


def test_stream_replays_bit_exactly():
    a = RngStream(987, 3).normal(1000)
    b = RngStream(987, 3).normal(1000)
    assert a.tobytes() == b.tobytes()


def test_distinct_streams_decorrelated():
    a = RngStream(987, 0).normal(10_000)
    b = RngStream(987, 1).normal(10_000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05
    assert a.tobytes() != b.tobytes()


@pytest.mark.parametrize("first, second", [
    ((2**63, 0), (2**63 + 1, 0)),
    ((2**63, 0), (2**63 + 1000, 0)),
    ((2**64 - 1, 0), (0, 0)),
    ((5, 2**63), (5, 2**63 + 1)),
    ((5, 2**64 - 1), (5, 0)),
])
def test_keys_of_2_63_or_more_draw_their_own_streams(first, second):
    """Base seeds and stream indices span the whole u64 range: keys of 2^63
    or more neither alias each other nor wrap to 0, and build without a
    cast warning (the suite turns a RuntimeWarning into an error)."""
    assert RngStream(*first).normal(8).tobytes() != RngStream(*second).normal(8).tobytes()


@pytest.mark.parametrize("key", [(0, 0), (20240901, 5), (2**63, 2**40),
                                 (2**64 - 1, 2**64 - 1)])
def test_a_stream_draws_philox_keyed_by_its_two_words(key):
    gen = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
    assert RngStream(*key).normal(8).tobytes() == gen.standard_normal(8).tobytes()


@pytest.mark.parametrize("key, error", [
    ((-1, 0), OverflowError), ((0, -1), OverflowError),
    ((2**64, 0), OverflowError), ((0, 2**64), OverflowError),
    ((1.5, 0), TypeError), ((0, 1.5), TypeError),
])
def test_a_key_outside_u64_raises_and_never_wraps(key, error):
    """A key outside [0, 2^64) or not an integer raises, without a warning,
    and never draws the stream of another key."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            RngStream(*key)


# ---------------------------------------------------------------------------
# noise laws
# ---------------------------------------------------------------------------


def test_gaussian_variance_scales_with_dt():
    rng = RngStream(10, 0)
    draws = draw_noise("gaussian", rng, 0.25, out=np.empty(200_000))
    assert float(np.var(draws)) == pytest.approx(0.25, rel=0.02)


def test_gaussian_unit_variance_large_sample():
    rng = RngStream(11, 0)
    draws = draw_noise("gaussian", rng, 1.0, out=np.empty(1_000_000))
    assert float(np.var(draws)) == pytest.approx(1.0, abs=0.01)


class _GivenDraws:
    """A stream whose draws are given: each law's method returns its given
    value broadcast to the requested shape, so that a test picks U, the
    candidates, or sigma and z."""

    def __init__(self, **draws):
        self.draws = draws

    def _draw(self, law, size=None, out=None):
        value = np.broadcast_to(self.draws[law], size if out is None else out.shape)
        if out is None:
            return value.astype(float)
        out[...] = value
        return out

    def uniform(self, size=None, out=None):
        return self._draw("uniform", size, out)

    def normal(self, size=None, out=None):
        return self._draw("normal", size, out)

    def laplace(self, size):
        return self._draw("laplace", size)

    def triangular(self, left, mode, right, size):
        return self._draw("triangular", size)

    def cauchy(self, size):
        return self._draw("cauchy", size)


def _picked_laws(monkeypatch, u, weights):
    """The law draw_noise's switching law keeps at each selector value of
    ``u`` under ``weights``: 0 normal, 1 Laplace, 2 triangular."""
    monkeypatch.setattr(drivers, "SWITCHING_WEIGHTS", weights)
    given = _GivenDraws(uniform=u, normal=0.0, laplace=1.0, triangular=2.0)
    return draw_noise("switching", given, 1.0, out=np.empty(np.shape(u)))


def test_switching_selector_partition(monkeypatch):
    # sentinel candidates name the law each forced uniform value picks
    def picked(u, weights=SWITCHING_WEIGHTS):
        return _picked_laws(monkeypatch, u, weights).tolist()

    below = np.nextafter(0.3, 0.0)
    assert picked([0.0, 0.1, below]) == [0, 0, 0]  # gaussian branch
    assert picked([0.3, 0.49]) == [1, 1]  # laplace branch, from U = w_0
    assert picked([0.3 + 0.2, 0.99]) == [2, 2]  # triangular branch, from U = w_0 + w_1
    # non-default weights move both boundaries
    weights = (0.6, 0.25, 0.15)
    assert picked([np.nextafter(0.6, 0.0), 0.6, np.nextafter(0.85, 0.0), 0.6 + 0.25],
                  weights) == [0, 1, 1, 2]
    # a scalar selector picks a scalar
    assert picked(0.1, weights) == 0


def test_switching_frequencies(monkeypatch):
    n = 100_000
    for weights in (SWITCHING_WEIGHTS, (0.6, 0.2, 0.2)):
        u = RngStream(12, 0).uniform(n)
        laws = _picked_laws(monkeypatch, u, weights)
        counts = np.bincount(laws.astype(int), minlength=3) / n
        assert np.all(np.abs(counts - weights) < 0.02), weights
    monkeypatch.undo()
    # draw_noise picks by SWITCHING_WEIGHTS: replay its candidates
    replay = RngStream(12, 0)
    replay.uniform(n)
    normal, laplace = replay.normal(n), replay.laplace(n)
    draws = draw_noise("switching", RngStream(12, 0), 1.0, out=np.empty(n))
    assert abs(np.mean(draws == normal) - SWITCHING_WEIGHTS[0]) < 0.02
    assert abs(np.mean(draws == laplace) - SWITCHING_WEIGHTS[1]) < 0.02


def test_cauchy_modulated_kernel_zero_at_zero():
    assert draw_noise("cauchy_modulated", _GivenDraws(cauchy=0.0, normal=1.7), 0.3,
                      out=np.empty(())) == 0.0
    # the sine bounds the scale by the amplitude
    sig = RngStream(13, 0).cauchy(1000)
    draws = draw_noise("cauchy_modulated", _GivenDraws(cauchy=sig, normal=1.0), 1.0,
                       out=np.empty(1000))
    assert np.max(np.abs(draws)) <= 10.0


def test_switching_draw_shapes():
    rng = RngStream(14, 0)
    arr = draw_noise("switching", rng, 0.1, out=np.empty((7, 2)))
    assert arr.shape == (7, 2)
    arr2 = draw_noise("cauchy_modulated", rng, 0.1, out=np.empty((7, 2)))
    assert arr2.shape == (7, 2)


def _triangular_cf(s, left, mode, right):
    """The characteristic function of Triangular(left, mode, right) at s != 0."""
    edges = ((right - mode) * np.exp(1j * left * s) - (right - left) * np.exp(1j * mode * s)
             + (mode - left) * np.exp(1j * right * s))
    return -2.0 * edges / ((right - left) * (mode - left) * (right - mode) * s**2)


def _cauchy_modulated_cf(s, amplitude, orders=30, terms=300):
    """E[exp(-A^2 s^2 sin^2(sigma) / 2)] over a standard Cauchy sigma.  With
    sin^2 = (1 - cos 2 sigma) / 2, Jacobi-Anger and E cos(2 k sigma) = e^-2k
    it is e^-c (I_0(c) + 2 sum_k I_k(c) e^-2k), c = A^2 s^2 / 4, each
    e^-c I_k(c) summed by its series (c / 2)^(2m+k) / (m! (m+k)!)."""
    c = amplitude**2 * s**2 / 4.0
    total = np.zeros_like(c)
    first = np.exp(-c)  # the series' first term at order k, times e^-c
    for k in range(orders):
        term, bessel = first, np.zeros_like(c)
        for m in range(terms):
            bessel += term
            term = term * (c / 2.0) ** 2 / ((m + 1) * (m + 1 + k))
        total += bessel if k == 0 else 2.0 * math.exp(-2.0 * k) * bessel
        first = first * (c / 2.0) / (k + 1)
    return total


# each law's characteristic function at s = xi sqrt(dt), from its definition
# in draw_noise's docstring rather than from the package's constants, except
# the modulated law's amplitude
_CLOSED_FORMS = {
    "gaussian": lambda s: np.exp(-s**2 / 2.0),
    "switching": lambda s: (0.3 * np.exp(-s**2 / 2.0) + 0.2 / (1.0 + s**2)
                            + 0.5 * _triangular_cf(s, -4.0, 0.0, 8.0)),
    "cauchy_modulated": lambda s: _cauchy_modulated_cf(s, CAUCHY_AMPLITUDE),
}


@pytest.mark.parametrize("law", NOISE_LAWS)
def test_noise_law_matches_its_characteristic_function(law):
    """The empirical characteristic function of 2^20 draws, real and
    imaginary parts, lies within 6 standard errors of the law's closed form
    at each xi of a grid, where it is phi(xi sqrt(dt))."""
    dt = 0.25
    xi = np.array([0.2, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
    exact = _CLOSED_FORMS[law](xi * math.sqrt(dt))
    draws = draw_noise(law, RngStream(15, 0), dt, out=np.empty(2**20))
    for x, phi in zip(xi, exact):
        for part, values, want in (("real", np.cos(x * draws), phi.real),
                                   ("imag", np.sin(x * draws), phi.imag)):
            stderr = values.std() / math.sqrt(values.size)
            assert abs(values.mean() - want) <= 6.0 * stderr, (law, x, part)


# ---------------------------------------------------------------------------
# the exponent driver
# ---------------------------------------------------------------------------


def test_alpha_of_h_values():
    d = MacroConfig(a=1.0, a_1=0.6, a_2=0.9)
    assert d.alpha_of_h(0.0) == pytest.approx(0.6)
    assert d.alpha_of_h(1e12) == pytest.approx(0.9, abs=1e-9)
    assert d.alpha_of_h(1.0) == pytest.approx(0.75)
    assert d.alpha_of_h(-3.0) == pytest.approx(0.6)  # clamped


@given(st.floats(-5, 50), st.floats(-5, 50))
@settings(max_examples=100, deadline=None)
def test_alpha_of_h_monotone_and_bounded(h1, h2):
    d = MacroConfig(a=1.3, a_1=0.55, a_2=0.95)
    a1, a2 = d.alpha_of_h(h1), d.alpha_of_h(h2)
    assert 0.55 <= a1 <= 0.95
    if max(h1, 0.0) < max(h2, 0.0):
        assert a1 <= a2


@pytest.mark.parametrize("a", [0.0, -1.0, float("nan")])
def test_alpha_of_h_needs_a_positive_sensitivity(a):
    # checked by the [macro] resolver, which names the key
    with pytest.raises(ConfigInvalid, match=r"\[macro\] a:"):
        macro_config_from({"macro": {"a": a}})


# ---------------------------------------------------------------------------
# Q-Wiener sampling
# ---------------------------------------------------------------------------

GRID = Grid((2.1, 2.1), (21, 21))


class FixedNormals:
    """A stream stand-in whose every normal draw is ``z``."""

    def __init__(self, z):
        self.z = np.asarray(z, dtype=float)

    def normal(self, size):
        return self.z.reshape(size)


def _draw(spec, grid, dt, *streams):
    """A stacked draw of ``streams``."""
    return sample_qwiener_increment(spec, grid, dt, StreamChunk(streams))


def test_qwiener_zero_gaussians_give_zero_field():
    stack = _draw(QWienerSpec(3), GRID, 0.5, FixedNormals(np.zeros((3, 3))))
    assert np.all(stack == 0.0)


def test_qwiener_single_mode_exact():
    spec = QWienerSpec(1)
    stack = _draw(spec, GRID, 1.0, FixedNormals(np.ones((1, 1))))
    lam = 0.5  # 1 / (1 + 1)
    lx, ly = GRID.lengths
    x = GRID.axis_coords(0)
    y = GRID.axis_coords(1)
    ex = math.sqrt(2 / lx) * np.cos(2 * np.pi * x / lx)
    ey = math.sqrt(2 / ly) * np.cos(2 * np.pi * y / ly)
    expected = lam * lam * np.outer(ex, ey)
    assert np.allclose(stack[0], expected, atol=1e-14)


def test_qwiener_nyquist_guard():
    # checked by the [macro] resolver against each axis of the grid
    with pytest.raises(ConfigInvalid, match="qwiener_modes: 11 modes exceed the Nyquist limit"):
        macro_config_from({"macro": {"qwiener_modes": 11}})


def test_qwiener_trace_class():
    lam = QWienerSpec(4000).eigenvalues()
    assert float((lam**2).sum()) < math.pi**2 / 6


def test_qwiener_basis_orthonormal_on_grid():
    # discrete cosine products are exactly orthonormal below Nyquist
    lx = GRID.lengths[0]
    x = GRID.axis_coords(0)
    dx = GRID.spacings[0]
    for n in range(1, 5):
        for m in range(1, 5):
            en = math.sqrt(2 / lx) * np.cos(2 * np.pi * n * x / lx)
            em = math.sqrt(2 / lx) * np.cos(2 * np.pi * m * x / lx)
            inner = float((en * em).sum() * dx)
            assert inner == pytest.approx(1.0 if n == m else 0.0, abs=1e-12)


def test_qwiener_variance_matches_truncated_series():
    spec = QWienerSpec(4)
    dt = 0.1
    rng = RngStream(33, 0)
    n = 4000
    samples = np.stack([_draw(spec, GRID, dt, rng)[0] for _ in range(n)])
    exact = qwiener_pointwise_variance(spec, GRID, dt)
    probe = (10, 10)
    emp = float(samples[:, probe[0], probe[1]].var(ddof=1))
    assert emp == pytest.approx(float(exact[probe]), rel=0.10)
    assert float(np.abs(samples.mean(axis=0)).max()) < 0.01


def _one_increment(spec, grid, dt, rng):
    """One increment drawn and projected on its own, by two matrix products."""
    ax = _basis_matrix(spec.modes, grid.lengths[0], grid.shape[0])
    ay = _basis_matrix(spec.modes, grid.lengths[1], grid.shape[1])
    return math.sqrt(dt) * (ax.T @ rng.normal((spec.modes, spec.modes)).T @ ay)


@pytest.mark.parametrize("grid", [GRID, Grid((2.1, 1.5), (21, 15))], ids=["21x21", "21x15"])
@pytest.mark.parametrize("samples", [1, 3, 8])
def test_stacked_qwiener_draw_matches_single_draws_bitwise(grid, samples):
    """Each row of a stacked draw, over several steps and after a row has
    left the stack, is bitwise the increment its stream draws alone, through a
    stack of one and through a projection of that stream's normals alone;
    and each stream's next draw is the same either way."""
    spec = QWienerSpec(4)
    chunk = StreamChunk(RngStream(41, i) for i in range(samples))
    single = [RngStream(41, i) for i in range(samples)]
    alone = [RngStream(41, i) for i in range(samples)]
    for step in range(5):
        if step == 3 and len(chunk) > 1:  # the middle row leaves the stack
            keep = [k for k in range(len(chunk)) if k != len(chunk) // 2]
            chunk = StreamChunk(chunk[k] for k in keep)
            single, alone = [single[k] for k in keep], [alone[k] for k in keep]
        stack = _draw(spec, grid, 0.1, *chunk)
        assert stack.shape == (len(chunk),) + grid.shape
        for row in range(len(chunk)):
            by_call = _draw(spec, grid, 0.1, single[row])[0]
            assert stack[row].tobytes() == by_call.tobytes()
            assert stack[row].tobytes() == _one_increment(spec, grid, 0.1, alone[row]).tobytes()
    for drawn, by_call, own in zip(chunk, single, alone):
        assert drawn.normal(6).tobytes() == by_call.normal(6).tobytes() == own.normal(6).tobytes()


def test_stacked_qwiener_draw_notes_a_non_finite_row():
    """A row that is not finite fails the whole stack, with a GridMismatch;
    the same rows without it draw finite values."""
    spec = QWienerSpec(2)
    z = np.ones((3, 2, 2))
    z[1, 0, 1] = np.nan
    with pytest.raises(GridMismatch, match="increment contains non-finite values"):
        _draw(spec, GRID, 0.1, *map(FixedNormals, z))
    stack = _draw(spec, GRID, 0.1, *map(FixedNormals, z[[0, 2]]))
    assert stack[0].tobytes() == stack[1].tobytes() and np.all(np.isfinite(stack))
