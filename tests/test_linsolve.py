import numpy as np
import pytest

from levyflow.errors import SolverDiverged
from levyflow.linsolve import bicgstab


def _dense_system(seed, n=60):
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    # diagonally dominant nonsymmetric matrix
    a = 0.3 * rng.standard_normal((n, n))
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)
    b = rng.standard_normal(n)
    return a, b


def test_identity_system():
    b = np.arange(5.0)
    res = bicgstab(lambda x: x, b)
    assert np.allclose(res.solution, b)
    assert res.iterations == 0


def test_zero_rhs():
    res = bicgstab(lambda x: 2 * x, np.zeros(4))
    assert np.all(res.solution == 0.0)


def test_matches_direct_solver():
    a, b = _dense_system(3)
    res = bicgstab(lambda x: a @ x, b, tol=1e-12)
    direct = np.linalg.solve(a, b)
    assert np.allclose(res.solution, direct, atol=1e-8)
    assert res.residual <= 1e-12


def test_residual_contract():
    a, b = _dense_system(4)
    res = bicgstab(lambda x: a @ x, b, tol=1e-10)
    assert np.linalg.norm(b - a @ res.solution) / np.linalg.norm(b) <= 1e-10


def test_2d_shaped_operands():
    rhs = np.ones((7, 7))
    res = bicgstab(lambda x: 3.0 * x, rhs, tol=1e-12)
    assert res.solution.shape == (7, 7)
    assert np.allclose(res.solution, rhs / 3.0)


def test_divergence_reported():
    with pytest.raises(SolverDiverged):
        bicgstab(lambda x: 0.0 * x, np.ones(4), max_iterations=5)
    a, b = _dense_system(5)
    with pytest.raises(SolverDiverged):
        bicgstab(lambda x: a @ x, b + 1.0, tol=1e-14, max_iterations=1, x0=np.zeros_like(b))

