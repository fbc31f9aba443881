"""Matrix-free BiCGSTAB for the implicit field updates.

The implicit systems of the macro solver are nonsymmetric (advection and
taxis couplings), which rules out plain conjugate gradients.  All systems
are small and strongly diagonally dominant, so an unpreconditioned
stabilized bi-conjugate gradient iteration converges in a handful of steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverDiverged


@dataclass
class SolveResult:
    solution: np.ndarray
    residual: float
    iterations: int


def bicgstab(apply_op, b, tol=1e-10, max_iterations=None, x0=None) -> SolveResult:
    """Solve ``A x = b`` for a matrix-free operator to relative residual tol.

    Raises :class:`SolverDiverged` when the target residual is not met
    within ``max_iterations`` (default 10 * problem size) or on breakdown.
    """
    b = np.asarray(b, dtype=float)
    shape = b.shape
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return SolveResult(np.zeros(shape), 0.0, 0)
    if max_iterations is None:
        max_iterations = 10 * b.size

    x = b.copy() if x0 is None else np.asarray(x0, dtype=float).copy()
    r = b - apply_op(x)
    if float(np.linalg.norm(r)) / b_norm <= tol:
        return SolveResult(x, float(np.linalg.norm(r)) / b_norm, 0)
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros(shape)
    p = np.zeros(shape)

    for k in range(1, max_iterations + 1):
        rho_new = float(np.vdot(r_hat, r))
        if rho_new == 0.0:
            raise SolverDiverged("BiCGSTAB breakdown: rho = 0")
        if k == 1:
            p = r.copy()
        else:
            beta = (rho_new / rho) * (alpha / omega)
            p = r + beta * (p - omega * v)
        rho = rho_new
        v = apply_op(p)
        denom = float(np.vdot(r_hat, v))
        if denom == 0.0:
            raise SolverDiverged("BiCGSTAB breakdown: (r_hat, v) = 0")
        alpha = rho / denom
        s = r - alpha * v
        if float(np.linalg.norm(s)) / b_norm <= tol:
            x_try = x + alpha * p
            true_res = float(np.linalg.norm(b - apply_op(x_try))) / b_norm
            if true_res <= tol:
                return SolveResult(x_try, true_res, k)
        t = apply_op(s)
        tt = float(np.vdot(t, t))
        if tt == 0.0:
            raise SolverDiverged("BiCGSTAB breakdown: t = 0")
        omega = float(np.vdot(t, s)) / tt
        x = x + alpha * p + omega * s
        r = s - omega * t
        if float(np.linalg.norm(r)) / b_norm <= tol:
            true_res = float(np.linalg.norm(b - apply_op(x))) / b_norm
            if true_res <= tol:
                return SolveResult(x, true_res, k)
        if omega == 0.0:
            raise SolverDiverged("BiCGSTAB breakdown: omega = 0")

    final = float(np.linalg.norm(b - apply_op(x))) / b_norm
    raise SolverDiverged(
        f"no convergence in {max_iterations} iterations (residual {final:.3e})"
    )
