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
    res = bicgstab(lambda x: x, b[None])
    assert np.allclose(res.solution[0], b)
    assert res.iterations == 0


def test_zero_rhs():
    res = bicgstab(lambda x: 2 * x, np.zeros(4)[None])
    assert np.all(res.solution[0] == 0.0)


def test_matches_direct_solver():
    a, b = _dense_system(3)
    res = bicgstab(lambda x: x @ a.T, b[None], tol=1e-12)
    direct = np.linalg.solve(a, b)
    assert np.allclose(res.solution[0], direct, atol=1e-8)
    assert res.residual <= 1e-12


def test_residual_contract():
    a, b = _dense_system(4)
    res = bicgstab(lambda x: x @ a.T, b[None], tol=1e-10)
    assert np.linalg.norm(b - a @ res.solution[0]) / np.linalg.norm(b) <= 1e-10


def test_2d_shaped_operands():
    rhs = np.ones((7, 7))
    res = bicgstab(lambda x: 3.0 * x, rhs[None], tol=1e-12)
    assert res.solution.shape == (1, 7, 7)
    assert np.allclose(res.solution[0], rhs / 3.0)


def test_divergence_reported():
    res = bicgstab(lambda x: 0.0 * x, np.ones(4)[None], max_iterations=5)
    assert isinstance(res.failures[0], SolverDiverged)
    a, b = _dense_system(5)
    res = bicgstab(lambda x: x @ a.T, (b + 1.0)[None], tol=1e-14, max_iterations=1,
                   x0=np.zeros_like(b)[None])
    assert isinstance(res.failures[0], SolverDiverged)



def test_stack_with_a_zero_rhs_slice():
    """Each slice of a stack is its own system: a zero right-hand
    side gives zeros in no iterations, and a nonzero slice is solved bit
    for bit as it is alone."""
    rng = np.random.Generator(np.random.Philox(key=[6, 0]))
    b = rng.standard_normal((3, 9, 9))
    b[1] = 0.0

    def op(x):  # nonsymmetric, acting on the trailing axes of each slice
        return 1.5 * x - 0.3 * np.roll(x, 1, axis=-1) - 0.2 * np.roll(x, -1, axis=-2)

    res = bicgstab(op, b, 1e-12)
    assert np.all(res.solution[1] == 0.0)
    assert res.residuals[1] == 0.0 and res.iteration_counts[1] == 0
    alone = bicgstab(op, b[2:], 1e-12)
    assert res.solution[2].tobytes() == alone.solution[0].tobytes()
    assert res.residuals[2] == alone.residual and res.iteration_counts[2] == alone.iterations
    assert res.residual == res.residuals.max() <= 1e-12
    assert res.iterations == res.iteration_counts.sum()
