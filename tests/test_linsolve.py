import numpy as np
import pytest

from levyflow.errors import SolverDiverged
from levyflow.linsolve import bicgstab, row_dot, row_norm


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


def test_done_at_the_half_step_applies_no_more():
    """A system that the half step solves stops there: one apply for the
    initial residual, one for v and one for the true residual of x_try,
    and none for t."""
    calls = []

    def op(x):
        calls.append(1)
        return 3.0 * x

    res = bicgstab(op, np.ones(4)[None], tol=1e-12)
    assert np.allclose(res.solution[0], 1.0 / 3.0)
    assert res.iterations == 1
    assert len(calls) == 3


def test_divergence_reported():
    with pytest.raises(SolverDiverged, match=r"^BiCGSTAB breakdown: \(r_hat, v\) = 0$") as err:
        bicgstab(lambda x: 0.0 * x, np.ones(4)[None], max_iterations=5)
    assert err.value.row == 0
    a, b = _dense_system(5)
    with pytest.raises(SolverDiverged, match=r"^no convergence in 1 iterations \(residual ") as err:
        bicgstab(lambda x: x @ a.T, (b + 1.0)[None], tol=1e-14, max_iterations=1,
                 x0=np.zeros_like(b)[None])
    assert err.value.row == 0


def test_a_failing_row_fails_its_stack_and_is_named():
    """Row 0 is finished at its start and row 2 is solvable, but row 1's
    operator is zero: it breaks down, and the whole stack raises with row 1."""
    scale = np.array([1.0, 0.0, 2.0])[:, None]
    b = np.ones((3, 4))
    with pytest.raises(SolverDiverged, match=r"^BiCGSTAB breakdown: \(r_hat, v\) = 0$") as err:
        bicgstab(lambda x: scale * x, b, x0=b.copy())
    assert err.value.row == 1



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
    assert res.residuals[1] == 0.0 and bicgstab(op, b[1:2], 1e-12).iterations == 0
    alone = bicgstab(op, b[2:], 1e-12)
    assert res.solution[2].tobytes() == alone.solution[0].tobytes()
    assert res.residuals[2] == alone.residual
    assert res.residual == res.residuals.max() <= 1e-12
    # the stack's total is its rows' counts alone, the zero row's 0 included
    assert res.iterations == bicgstab(op, b[:1], 1e-12).iterations + alone.iterations


def _mixed_op(x):  # nonsymmetric, acting on the trailing axis of each row
    return 2.0 * x - 0.5 * np.roll(x, 1, axis=-1) + 0.25 * np.roll(x, -1, axis=-1)


def test_finished_start_rows_equal_rows_solved_alone():
    """A stack that mixes a finished start, a zero rhs and an unfinished
    row takes the full path; every row still gets bitwise what it gets
    alone, where the finished start and the zero rhs return at once."""
    rng = np.random.Generator(np.random.Philox(key=[8, 0]))
    b = rng.standard_normal((3, 12))
    b[1] = 0.0
    x0 = rng.standard_normal((3, 12))
    x0[0] = bicgstab(_mixed_op, b[:1], 1e-13).solution[0]  # a start that meets 1e-10
    stacked = bicgstab(_mixed_op, b, 1e-10, x0=x0)
    counts = []
    for row in range(3):
        alone = bicgstab(_mixed_op, b[row:row + 1], 1e-10, x0=x0[row:row + 1])
        assert stacked.solution[row].tobytes() == alone.solution[0].tobytes()
        assert stacked.residuals[row].tobytes() == alone.residuals[0].tobytes()
        counts.append(alone.iterations)
    assert counts[:2] == [0, 0] and counts[2] > 0
    assert stacked.iterations == sum(counts)
    assert stacked.residuals[1] == 0.0 and np.all(stacked.solution[1] == 0.0)


def test_finished_start_applies_the_operator_once():
    rng = np.random.Generator(np.random.Philox(key=[9, 0]))
    b = rng.standard_normal((3, 12))
    b[2] = 0.0
    x0 = bicgstab(_mixed_op, b, 1e-13).solution
    calls = []

    def op(x):
        calls.append(1)
        return _mixed_op(x)

    res = bicgstab(op, b, 1e-10, x0=x0)
    assert len(calls) == 1
    assert res.iterations == 0
    assert res.solution.tobytes() == x0.tobytes()
    assert res.residuals[2] == 0.0 and res.residual == res.residuals.max() <= 1e-10


def test_nan_start_still_fails_with_a_non_finite_residual():
    x0 = np.ones((1, 6))
    x0[0, 3] = np.nan
    with pytest.raises(SolverDiverged, match="^BiCGSTAB breakdown: non-finite residual$") as err:
        bicgstab(_mixed_op, np.ones((1, 6)), 1e-10, x0=x0)
    assert err.value.row == 0


def test_a_finished_start_with_entries_above_1e154_returns_at_once():
    """Squares of 1e300 overflow, so the norms of such rows are taken scaled
    by their largest entry: a start whose residual is near 1e286 meets the
    tolerance and returns with no failure and no iteration.  A row whose
    squares stay finite keeps its plain norm, bit for bit."""
    b = np.full((1, 6), 1e300)
    x0 = b / 3.0
    x0[0, 0] += 1e286 / 3.0
    res = bicgstab(lambda x: 3.0 * x, b, 1e-10, x0=x0)
    assert res.iterations == 0
    assert res.solution.tobytes() == x0.tobytes()
    assert res.residual == pytest.approx(1e286 / (1e300 * np.sqrt(6)), rel=1e-2)
    small = np.random.Generator(np.random.Philox(key=[10, 0])).standard_normal((1, 6))
    norms = row_norm(np.concatenate([small, b, np.array([[np.inf] * 6])]))
    assert norms[0].tobytes() == np.sqrt(row_dot(small, small))[0].tobytes()
    assert norms[1] == pytest.approx(1e300 * np.sqrt(6)) and norms[2] == np.inf
