"""Matrix-free BiCGSTAB for the implicit proton-index update.

The H-step system of the macro solver is nonsymmetric (advection by the
cell-density gradient), which rules out plain conjugate gradients.  It is
small and, at the published parameters, strongly diagonally dominant, so
the H-step starts from Jacobi sweeps, then BiCGSTAB verifies or finishes:
a stack whose every start already meets the tolerance is returned after
the first true-residual check, with no iteration and no solver state.
Its operator is the five-point stencil that ``macro.HOperator`` assembles
once per step.  (The C-step's fractional system is circulant and is
solved exactly by FFT in ``fracops``.)

The solver advances a stack of independent systems in lockstep, one
system per row of the stack, each with its own scalars (rho, alpha,
omega).  Every norm and dot product is a per-row reduction, so a
system's bits do not depend on how many others share its stack; a single
system is a stack of one, and the first row to fail fails the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverDiverged


@dataclass
class SolveResult:
    """A solved stack: every system met the tolerance."""

    solution: np.ndarray
    residual: float  # largest true relative residual over the systems
    iterations: int  # iterations summed over the systems
    residuals: np.ndarray  # per system


def row_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product of each row of ``u`` with the same row of ``v``; each
    row is its own reduction, independent of the number of rows."""
    return np.einsum("si,si->s", u, v)


def row_norm(u: np.ndarray) -> np.ndarray:
    """The 2-norm of each row; a finite row whose squares overflow (entries
    above about 1e154) is scaled by its largest magnitude first."""
    norm = np.sqrt(row_dot(u, u))
    if np.inf in norm.tolist():  # on a stack's few rows, a tenth of np.isinf(norm).any()
        top = np.abs(u).max(axis=1, keepdims=True)  # finite on a finite row only
        big = np.isinf(norm) & np.isfinite(top[:, 0])
        norm[big] = top[big, 0] * row_norm(u[big] / top[big])
    return norm


def bicgstab(apply_op, b, tol=1e-10, max_iterations=None, x0=None) -> SolveResult:
    """Solve ``A x = b`` for a matrix-free operator to relative residual tol.

    ``b`` stacks independent systems along its first axis (a single system
    is a stack of one), and ``apply_op`` must act on each row of a stack on
    its own.  A system is frozen once it converges.  The first that breaks
    down, or that does not meet the target within ``max_iterations``
    (default 10 * system size), raises :class:`SolverDiverged` for the
    whole stack, with its row; the lowest row where several fail at once.
    """
    b = np.asarray(b, dtype=float)
    shape = b.shape
    rows = b.reshape(shape[0], -1)
    n_sys = rows.shape[0]
    if max_iterations is None:
        max_iterations = 10 * rows.shape[1]

    def op(x):
        return apply_op(x.reshape(shape)).reshape(n_sys, -1)

    b_norm = row_norm(rows)
    zero = b_norm == 0.0
    scale = np.where(zero, 1.0, b_norm)
    x = rows.copy() if x0 is None else np.array(x0, dtype=float).reshape(n_sys, -1)
    x[zero] = 0.0

    def finish(done, values, res, k):
        """Freeze the systems in ``done`` at ``values`` after k iterations."""
        if done.any():
            solution[done] = values[done]
            residuals[done] = res[done]
            counts[done] = k
            active[done] = False

    def fail(hit, message):
        """Raise ``message`` for the first active system where ``hit`` holds."""
        if (failed := np.flatnonzero(active & hit)).size:
            raise SolverDiverged(message, int(failed[0]))

    # frozen rows keep being carried through the arithmetic, where they may
    # divide by zero; only active rows are ever read
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = rows - op(x)
        res = row_norm(r) / scale
        if (zero | (res <= tol)).all():  # a finished start: return it as it is
            residuals = np.where(zero, 0.0, res)
            return SolveResult(x.reshape(shape), float(residuals.max()), 0, residuals)
        solution = x.copy()
        residuals = np.zeros(n_sys)
        counts = np.zeros(n_sys, dtype=np.int64)
        active = ~zero
        finish(active & (res <= tol), x, res, 0)
        fail(~np.isfinite(res), "BiCGSTAB breakdown: non-finite residual")
        r_hat = r.copy()

        # some row is active: the start is unfinished and every residual finite
        for k in range(1, max_iterations + 1):
            rho_new = row_dot(r_hat, r)
            fail(rho_new == 0.0, "BiCGSTAB breakdown: rho = 0")
            if k == 1:  # rho, alpha, omega and v are first set in this iteration
                p = r.copy()
            else:
                beta = (rho_new / rho) * (alpha / omega)
                p = r + beta[:, None] * (p - omega[:, None] * v)
            rho = rho_new
            v = op(p)
            denom = row_dot(r_hat, v)
            fail(denom == 0.0, "BiCGSTAB breakdown: (r_hat, v) = 0")
            alpha = rho / denom
            s = r - alpha[:, None] * v
            if (check := active & (row_norm(s) / scale <= tol)).any():
                x_try = x + alpha[:, None] * p
                true_res = row_norm(rows - op(x_try)) / scale
                finish(check & (true_res <= tol), x_try, true_res, k)
                if not active.any():
                    break
            t = op(s)
            tt = row_dot(t, t)
            fail(tt == 0.0, "BiCGSTAB breakdown: t = 0")
            omega = row_dot(t, s) / tt
            x = x + alpha[:, None] * p + omega[:, None] * s
            r = s - omega[:, None] * t
            res = row_norm(r) / scale
            fail(~np.isfinite(res), "BiCGSTAB breakdown: non-finite residual")
            if (check := active & (res <= tol)).any():
                true_res = row_norm(rows - op(x)) / scale
                finish(check & (true_res <= tol), x, true_res, k)
            fail(omega == 0.0, "BiCGSTAB breakdown: omega = 0")
            if not active.any():
                break
        else:
            final = row_norm(rows - op(x)) / scale
            fail(active, f"no convergence in {max_iterations} iterations "
                         f"(residual {final[active.argmax()]:.3e})")

    return SolveResult(solution.reshape(shape), float(residuals.max()), int(counts.sum()),
                       residuals)
