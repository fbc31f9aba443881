import numpy as np
import pytest

from levyflow.drivers import RngStream
from levyflow.errors import ConfigInvalid

from transport_reference import (
    VelocityJumpModel,
    default_transport_model,
    density_to_bins,
    l1_distance,
    position_histogram,
    simulate_velocity_jump,
    transport_pde_solve,
    wrapped_gaussian_density,
)


def test_model_validation():
    with pytest.raises(ConfigInvalid):
        VelocityJumpModel((0.5,), 1.0, (1.0,))
    with pytest.raises(ConfigInvalid):
        VelocityJumpModel((0.5, -0.5), -1.0, (1.0,))
    with pytest.raises(ConfigInvalid):
        VelocityJumpModel((0.5, -0.5), 1.0, (0.8, 0.5))


def test_shift_distribution_symmetric():
    model = default_transport_model()
    probs = model.shift_distribution()
    assert probs.sum() == pytest.approx(1.0)
    m = model.n_states
    for k in range(1, m):
        assert probs[k] == pytest.approx(probs[(m - k) % m])


def test_wrapped_gaussian_normalizes():
    x = np.linspace(0, 1, 400, endpoint=False)
    dens = wrapped_gaussian_density(x, 0.5, 0.06, 1.0)
    assert dens.sum() / 400 == pytest.approx(1.0, rel=1e-6)


def test_pde_conserves_mass_and_positivity():
    model = default_transport_model()
    x, dens = transport_pde_solve(model, t_end=0.4, n_cells=400)
    dx = 1.0 / 400
    assert dens.sum() * dx == pytest.approx(1.0, rel=1e-10)
    assert dens.min() >= -1e-12


def test_pure_transport_shifts_density():
    # one velocity state (plus a null partner), no jumps: exact unit-CFL
    # upwind advection translates the profile
    model = VelocityJumpModel((0.5, 0.5), 0.0, (0.0,))
    x, dens = transport_pde_solve(model, t_end=0.5, n_cells=200, cfl=1.0)
    expected = wrapped_gaussian_density((x - 0.25) % 1.0, 0.5, 0.06, 1.0)
    assert np.max(np.abs(dens - expected)) <= 1e-8


def test_particles_match_pde_histogram():
    model = default_transport_model()
    pos = simulate_velocity_jump(model, 30_000, 0.5, 1.0 / 256, RngStream(42, 0))
    hist = position_histogram(pos, 50)
    x, dens = transport_pde_solve(model, t_end=0.5, n_cells=800)
    pde_bins = density_to_bins(x, dens, 50)
    assert pde_bins.sum() == pytest.approx(1.0, rel=1e-9)
    assert l1_distance(hist, pde_bins) <= 0.1


def test_particle_count_preserved_and_wrapped():
    model = default_transport_model()
    pos = simulate_velocity_jump(model, 5000, 0.3, 1.0 / 128, RngStream(43, 0))
    assert pos.shape == (5000,)
    assert np.all((0.0 <= pos) & (pos < 1.0))


def test_simulation_guards():
    model = default_transport_model()
    with pytest.raises(ConfigInvalid):
        simulate_velocity_jump(model, 10, 0.5, 0.0, RngStream(1, 0))
    with pytest.raises(ConfigInvalid):
        # thinning would miss multiple jumps per step
        simulate_velocity_jump(model, 10, 0.5, 1.0, RngStream(1, 0))
    with pytest.raises(ConfigInvalid):
        density_to_bins(np.zeros(801), np.zeros(801), 50)
