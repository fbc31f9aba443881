"""Matrix-free BiCGSTAB for the implicit proton-index update.

The H-step system of the macro solver is nonsymmetric (advection by the
cell-density gradient), which rules out plain conjugate gradients.  It is
small and, at the published parameters, strongly diagonally dominant, so
the H-step starts from Jacobi sweeps, then BiCGSTAB verifies or finishes:
a system whose start already meets the tolerance is frozen by the first
true-residual check, with no iteration.  Its operator is the five-point
stencil that ``macro.HOperator`` assembles once per step.  (The C-step's
fractional system is circulant and is solved exactly by FFT in
``fracops``.)

The solver advances a stack of independent systems in lockstep, one
system per row of the stack, each with its own scalars (rho, alpha,
omega).  Every norm and dot product is a per-row reduction, so a
system's bits do not depend on how many others share its stack; a single
system is a stack of one.  Each breakdown and convergence test is made on
the whole stack first, and the mask of active rows it applies to is built
only when the test hits, which it rarely does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverDiverged


@dataclass
class SolveResult:
    solution: np.ndarray
    residual: float  # largest true relative residual over the solved systems
    iterations: int  # iterations summed over the systems
    residuals: np.ndarray  # per system; nan where it failed
    iteration_counts: np.ndarray  # per system
    failures: dict  # row -> SolverDiverged


def row_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product of each row of ``u`` with the same row of ``v``; each
    row is its own reduction, independent of the number of rows."""
    return np.einsum("si,si->s", u, v)


def row_norm(u: np.ndarray) -> np.ndarray:
    return np.sqrt(row_dot(u, u))


def bicgstab(apply_op, b, tol=1e-10, max_iterations=None, x0=None) -> SolveResult:
    """Solve ``A x = b`` for a matrix-free operator to relative residual tol.

    ``b`` stacks independent systems along its first axis (a single system
    is a stack of one), and ``apply_op`` must act on each row of a stack on
    its own.  A system is frozen once it converges.  One that does not meet
    the target within ``max_iterations`` (default 10 * system size), or
    breaks down, keeps its initial guess and is listed in ``failures`` with
    its :class:`SolverDiverged`; nothing is raised.
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
    solution = x.copy()
    residuals = np.zeros(n_sys)
    counts = np.zeros(n_sys, dtype=np.int64)
    failures = {}
    active = ~zero

    def finish(done, values, res, k):
        """Freeze the systems in ``done`` at ``values`` after k iterations."""
        if done.any():
            solution[done] = values[done]
            residuals[done] = res[done]
            counts[done] = k
            active[done] = False

    def fail(hit, message):
        """Fail the active systems where ``hit`` holds.  ``hit`` is tested on
        the whole stack first, so the usual no-breakdown case builds no mask."""
        if hit.any():
            failed = active & hit
            for row in np.flatnonzero(failed):
                failures[int(row)] = SolverDiverged(message(row))
                residuals[row] = np.nan
            active[failed] = False

    # frozen and failed rows keep being carried through the arithmetic,
    # where they may divide by zero; only active rows are ever read
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = rows - op(x)
        res = row_norm(r) / scale
        finish(active & (res <= tol), x, res, 0)
        fail(~np.isfinite(res), lambda row: "BiCGSTAB breakdown: non-finite residual")
        r_hat = r.copy()

        for k in range(1, max_iterations + 1):
            if not active.any():
                break
            rho_new = row_dot(r_hat, r)
            fail(rho_new == 0.0, lambda row: "BiCGSTAB breakdown: rho = 0")
            if k == 1:  # rho, alpha, omega and v are first set in this iteration
                p = r.copy()
            else:
                beta = (rho_new / rho) * (alpha / omega)
                p = r + beta[:, None] * (p - omega[:, None] * v)
            rho = rho_new
            v = op(p)
            denom = row_dot(r_hat, v)
            fail(denom == 0.0, lambda row: "BiCGSTAB breakdown: (r_hat, v) = 0")
            alpha = rho / denom
            s = r - alpha[:, None] * v
            near = row_norm(s) / scale <= tol
            if near.any() and (check := active & near).any():
                x_try = x + alpha[:, None] * p
                true_res = row_norm(rows - op(x_try)) / scale
                finish(check & (true_res <= tol), x_try, true_res, k)
                if not active.any():
                    break
            t = op(s)
            tt = row_dot(t, t)
            fail(tt == 0.0, lambda row: "BiCGSTAB breakdown: t = 0")
            omega = row_dot(t, s) / tt
            x = x + alpha[:, None] * p + omega[:, None] * s
            r = s - omega[:, None] * t
            res = row_norm(r) / scale
            fail(~np.isfinite(res), lambda row: "BiCGSTAB breakdown: non-finite residual")
            near = res <= tol
            if near.any() and (check := active & near).any():
                true_res = row_norm(rows - op(x)) / scale
                finish(check & (true_res <= tol), x, true_res, k)
            fail(omega == 0.0, lambda row: "BiCGSTAB breakdown: omega = 0")

        if active.any():
            final = row_norm(rows - op(x)) / scale
            fail(active, lambda row: f"no convergence in {max_iterations} iterations "
                                     f"(residual {final[row]:.3e})")

    solved = np.isfinite(residuals)
    return SolveResult(
        solution.reshape(shape),
        float(residuals[solved].max()) if solved.any() else 0.0,
        int(counts.sum()),
        residuals,
        counts,
        failures,
    )
