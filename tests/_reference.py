"""Reference implementations for the tracking tests.

``neg_laplacian`` assembles the 5-point ``-lap`` with scipy.sparse: the
library applies it as a matrix-free stencil, and the tests compare the
stencil, and every solve built on it, against the matrix.

``pcg_solve`` is a frozen copy of the preconditioned CG solver from before
it took an absolute residual target: it stops at ``CG_RTOL`` relative to
the right-hand side alone.

``solve_tracking`` is a frozen copy of the spectral projected-gradient
loop before line-search trials could stop early: every trial's state is
solved by a full Newton solve, warm-started from the current state, before
the Armijo test.  Its Newton steps stop their CG at the library's trial
target, so early reject is compared with a full solve under one accuracy
rule.
"""

import math
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from growthlab import tracking as trk
from growthlab.tracking import (
    DescentConfig,
    Grid2D,
    TrackingResult,
    l2_inner,
    l2_norm,
    solve_adjoint,
    solve_state,
)


def neg_laplacian(n: int) -> sp.csr_matrix:
    """The assembled 5-point ``-lap`` on n * n interior nodes of the unit
    square (zero Dirichlet data, mesh width ``1 / (n + 1)``), as CSR."""
    h = 1.0 / (n + 1)
    ones = np.ones(n)
    t = sp.diags([-ones[:-1], 2.0 * ones, -ones[:-1]], offsets=(-1, 0, 1))
    eye = sp.identity(n)
    return ((sp.kron(eye, t) + sp.kron(t, eye)) / h**2).tocsr()


def pcg_solve(d: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(-lap + diag(d)) x = b`` by CG to ``CG_RTOL`` relative to ``b``."""
    s, lam = trk._poisson_eigen(b.shape[0])

    def precondition(r: np.ndarray) -> np.ndarray:
        return s @ ((s @ r @ s) / lam) @ s

    x = np.zeros_like(b)
    bnorm = math.sqrt(float(np.vdot(b, b)))
    if bnorm == 0.0:
        return x
    r = b.copy()
    z = precondition(r)
    direction = z
    w = r
    rz = float(np.vdot(r, z))
    for _ in range(trk._cg_iteration_cap(d)):
        q = w + d * direction
        step = rz / float(np.vdot(direction, q))
        x = x + step * direction
        r = r - step * q
        if math.sqrt(float(np.vdot(r, r))) <= trk.CG_RTOL * bnorm:
            return x
        z = precondition(r)
        rz_next = float(np.vdot(r, z))
        beta = rz_next / rz
        direction = z + beta * direction
        w = r + beta * w
        rz = rz_next
    raise trk.LinearSolveFailure("conjugate gradients reached its cap")


def solve_tracking(
    y_d,
    grid: Grid2D,
    alpha: float,
    beta: float,
    cfg: DescentConfig = DescentConfig(),
    u0: Optional[np.ndarray] = None,
) -> TrackingResult:
    """The projected-gradient control solve, each trial solved in full."""
    if not (alpha < beta and math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError(f"need finite alpha < beta, got [{alpha}, {beta}]")
    y_d = np.asarray(y_d, dtype=float)

    if u0 is None:
        u = np.full((grid.n, grid.n), 0.5 * (alpha + beta))
    else:
        u = np.clip(np.asarray(u0, dtype=float), alpha, beta)

    y = solve_state(u, grid)
    jval = 0.5 * l2_norm(y - y_d, grid) ** 2
    p = solve_adjoint(y, y_d, grid)
    history: List[float] = [jval]
    step = trk.SPG_STEP_INIT
    prev_u: Optional[np.ndarray] = None
    prev_p: Optional[np.ndarray] = None

    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        residual = l2_norm(u - np.clip(u - p, alpha, beta), grid)
        if residual <= cfg.tol:
            return TrackingResult(
                u, y, p, jval, residual, iterations - 1, True, tuple(history),
                y_d, grid, alpha, beta, cfg,
            )

        if prev_u is not None:
            du = u - prev_u
            dg = p - prev_p
            den = l2_inner(du, dg, grid)
            if den > 0.0:
                step = min(max(l2_inner(du, du, grid) / den, trk.SPG_STEP_MIN), trk.SPG_STEP_MAX)
            else:
                step = trk.SPG_STEP_MAX

        accepted = False
        t = 1.0
        for _ in range(trk.SPG_MAX_HALVINGS):
            u_try = np.clip(u - t * step * p, alpha, beta)
            move = u_try - u
            if l2_norm(move, grid) == 0.0:
                break
            decrease = trk.SPG_ARMIJO * l2_inner(p, move, grid)
            y_try = trk._newton(
                u_try, y, grid, cg_atol=trk._trial_cg_atol(jval, -decrease, grid.n)
            )
            j_try = 0.5 * l2_norm(y_try - y_d, grid) ** 2
            if j_try <= jval + decrease:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break

        prev_u, prev_p = u, p
        u, y, jval = u_try, y_try, j_try
        p = solve_adjoint(y, y_d, grid)
        history.append(jval)

    residual = l2_norm(u - np.clip(u - p, alpha, beta), grid)
    return TrackingResult(
        u, y, p, jval, residual, iterations, residual <= cfg.tol, tuple(history),
        y_d, grid, alpha, beta, cfg,
    )
