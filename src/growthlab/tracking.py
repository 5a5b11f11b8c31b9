"""Box-constrained tracking for a semilinear elliptic state equation.

Finite differences on the unit square with zero Dirichlet data: 5-point
Laplacian, cubic nonlinearity, damped Newton for the state, and a spectral
projected-gradient loop for the control problem

    minimize 0.5 * |y_u - y_d|^2   over   alpha <= u <= beta,
    where  -lap(y_u) + y_u^3 = u,  y_u = 0 on the boundary.

States, adjoints, controls and targets are (n, n) arrays of interior nodal
values; a field's shape gives the mesh (``n >= 4`` nodes per axis, width
``h = 1 / (n + 1)``), and its discrete L2 norm is ``h * |values|_2``.  The
public functions check each field once, as it enters (``_as_field``: finite
row-major floats on one mesh; ``l2_norm`` and ``l2_inner``: shapes).  The
private kernels trust their fields: the stencil, the CG solver
``_pcg_solve``, the SPD solve ``_solve_spd``, Newton and the norm ``_l2``.
``solve_tracking`` checks its target and start, takes its first state from
``solve_state`` and each adjoint from ``solve_adjoint``, and runs its
line-search trials and norms on the kernels.

Every linear solve (Newton steps, adjoint and linearized states) has the
operator ``-lap + diag(d)``, ``d >= 0``, and goes through one CG solver
preconditioned by the exact inverse of ``-lap`` (a fast Poisson solver by
matrix diagonalization); ``-lap`` is a 5-point stencil, never assembled.
Each CG solve updates a workspace it allocates once; no buffer outlives it.

Newton's residual at ``y`` is the state operator's value ``-lap(y) + y^3``
minus ``u``.  Newton's one entry, ``_newton_op``, returns its state with
that value (the control loop computes it once for its first state), and the
loop hands it to every line-search trial of its next iteration, since each
starts Newton from that state: one value per accepted state, not per trial.

A line-search trial's Newton solve stops at an iterate ``y_k`` with
residual ``r`` once ``0.5 * max(|y_k - y_d| - rho, 0)^2``, with
``rho = (r + STATE_RESIDUAL_TOL) / lam1``, exceeds the Armijo threshold by
a rounding margin: ``-lap + y^3`` is strongly monotone with modulus
``lam1``, the least eigenvalue of ``-lap``, so the state the full solve
would return lies within ``rho`` of ``y_k``, and the trial fails as well.

Each CG solve stops at the accuracy its caller checks (inexact Newton:
Dembo, Eisenstat & Steihaug 1982; Eisenstat & Walker 1996).  A residual
``r`` moves a trial's objective by about ``|y - y_d| * r / lam1`` at the
current state ``y``, so a trial's Newton steps stop their CG at the L2
residual ``min(TRIAL_STATE_FRACTION * STATE_RESIDUAL_TOL,
TRIAL_ARMIJO_FRACTION * lam1 * margin / |y - y_d|)``, for the Armijo margin
``margin = -SPG_ARMIJO * <p, move>``.  The adjoint and linearized solves
stop at ``SPD_FRACTION * LINEAR_RESIDUAL_TOL`` and keep their true-residual
check and refinement; ``solve_state`` and ``objective`` solve to ``CG_RTOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, ClassVar, List, Optional, Sequence, Tuple

import numpy as np

from .core import GrowthLabError, _check_norm_sample

__all__ = [
    "NewtonDivergence",
    "LinearSolveFailure",
    "NoSamplesInShell",
    "TrackingResult",
    "SweepSample",
    "SweepReport",
    "l2_norm",
    "l2_inner",
    "solve_state",
    "solve_adjoint",
    "solve_linearized",
    "objective",
    "solve_tracking",
    "ssc_estimate",
    "sine_combination",
    "default_target",
    "perturbation_sweep",
]

STATE_RESIDUAL_TOL = 1e-10
LINEAR_RESIDUAL_TOL = 1e-12
NEWTON_MAX_ITERS = 50
NEWTON_MAX_HALVINGS = 30
# Relative residual at which the preconditioned CG iteration stops.
CG_RTOL = 1e-15
# Absolute CG targets as fractions of what the callers check (see the
# module docstring); with all three at zero every solve stops at CG_RTOL.
TRIAL_STATE_FRACTION = 1e-3
TRIAL_ARMIJO_FRACTION = 0.1
SPD_FRACTION = 1e-2
# Control solve: default tolerance, Armijo sufficient-decrease factor, first step
# length, bounds on the Barzilai-Borwein step length, backtracking and iteration caps.
SPG_TOL = 1e-8
SPG_ARMIJO = 1e-4
SPG_STEP_INIT = 1.0
SPG_STEP_MIN = 1e-3
SPG_STEP_MAX = 1e12
SPG_MAX_HALVINGS = 60
SPG_MAX_ITERS = 5000
# ssc_estimate scales each direction into the shell |z_v| <= SSC_SHELL_RADIUS.
SSC_SHELL_RADIUS = 0.1
# Sweep perturbations combine SWEEP_MODES x SWEEP_MODES low-frequency sines.
SWEEP_MODES = 4
# A consistent sweep keeps every ratio within this factor of their median.
CONSISTENCY_FACTOR = 4.0


class NewtonDivergence(GrowthLabError):
    """Newton failed to reach the residual tolerance."""

    def __init__(self, message: str, residual_history: Sequence[float]):
        super().__init__(message)
        self.residual_history = list(residual_history)


class LinearSolveFailure(GrowthLabError):
    """A linear solve did not reach its residual tolerance (should not
    happen for these symmetric positive definite systems)."""


class NoSamplesInShell(GrowthLabError):
    """No usable direction sample survived the filtering."""


def _check_n(n: int) -> None:
    if n < 4:
        raise ValueError(f"grid needs at least 4 interior nodes per axis, got {n}")


def _neg_lap_stencil(x: np.ndarray) -> np.ndarray:
    """``-lap x`` for an (n, n) field ``x`` of interior values.

    The five terms are summed in the column order of the assembled CSR
    matrix, (i-1, j), (i, j-1), centre, (i, j+1), (i+1, j), so the result
    is bitwise equal to that matrix's product (``tests/_reference.py``).
    Each term is a view of one padded ``off * x``, whose first row is +0.0,
    where that sum starts, and whose other border rows and columns are -0.0,
    which IEEE addition absorbs, even into a zero's sign."""
    h = 1.0 / (x.shape[0] + 1)
    off = -1.0 / h**2
    pad = np.empty((x.shape[0] + 2, x.shape[1] + 2))
    pad.fill(-0.0)
    pad[0] = 0.0
    ox = np.multiply(off, x, out=pad[1:-1, 1:-1])
    out = pad[:-2, 1:-1] + pad[1:-1, :-2]
    # the centre coefficient 4/h^2 is -4 * off exactly (a power-of-two scale)
    out -= np.multiply(ox, 4.0)
    out += pad[1:-1, 2:]
    out += pad[2:, 1:-1]
    return out


@lru_cache(maxsize=None)
def _poisson_eigen(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The orthonormal, symmetric DST-I matrix ``S`` and the eigenvalues
    ``lam_k + lam_l`` of ``-lap``, so that ``-lap X = S ((S X S) * lam) S``
    for a field ``X`` of shape (n, n)."""
    h = 1.0 / (n + 1)
    k = np.arange(1, n + 1)
    s = math.sqrt(2.0 * h) * np.sin(np.pi * h * np.outer(k, k))
    lam1 = (2.0 - 2.0 * np.cos(k * np.pi * h)) / h**2
    lam = lam1[:, None] + lam1[None, :]
    s.flags.writeable = False
    lam.flags.writeable = False
    return s, lam


def _cg_iteration_cap(d: np.ndarray) -> int:
    # The preconditioned spectrum lies in [1, 1 + max(d) / lam_min], and the
    # classic CG bound needs 0.5 sqrt(cond) ln(2 / CG_RTOL) steps; allow
    # twice that.
    lam_min = _poisson_eigen(d.shape[0])[1][0, 0]
    cond = 1.0 + float(d.max()) / lam_min
    if not math.isfinite(cond):
        raise LinearSolveFailure("operator diagonal is not finite")
    return 10 + int(math.sqrt(cond) * math.log(2.0 / CG_RTOL))


def _spd_matvec(d: np.ndarray, x: np.ndarray) -> np.ndarray:
    return _neg_lap_stencil(x) + d * x


def _pcg_solve(d: np.ndarray, b: np.ndarray, atol: float = 0.0) -> np.ndarray:
    """Solve ``(-lap + diag(d)) x = b`` for (n, n) fields ``d >= 0`` and
    ``b`` by CG preconditioned with the exact inverse of ``-lap``; a kernel.

    Since the preconditioner inverts ``-lap``, ``-lap z = r`` for every
    preconditioned residual ``z``, so ``w = -lap direction`` follows the
    direction recurrence (``w = r`` at the start, ``w <- r + beta w``) and
    the loop applies no Laplacian.  Stops once the recurrence residual is
    below ``CG_RTOL`` relative to ``b`` or below ``atol`` in the discrete
    L2 norm, whichever is larger; a non-finite iterate or reaching the
    iteration cap raises ``LinearSolveFailure``.

    Each call allocates its (n, n) workspace once and updates it in place:
    every product keeps its operands and only the order of two-term sums
    changes, so the iterates are bitwise those of the allocating form
    ``x = x + step * direction``.  Each inner product is one BLAS ``ddot``
    of flat views, as ``np.vdot`` takes it but without its Python dispatch.
    The returned ``x`` is a fresh array.
    """
    s, lam = _poisson_eigen(b.shape[0])
    t1 = np.empty(b.shape)
    t2 = np.empty(b.shape)

    def precondition(r: np.ndarray, out: np.ndarray) -> None:
        # out = s @ ((s @ r @ s) / lam) @ s
        np.matmul(s, r, out=t1)
        np.matmul(t1, s, out=t2)
        np.divide(t2, lam, out=t2)
        np.matmul(s, t2, out=t1)
        np.matmul(t1, s, out=out)

    x = np.zeros(b.shape)
    b_ = b.reshape(-1)
    bnorm = math.sqrt(float(b_.dot(b_)))
    if bnorm == 0.0:
        return x
    # ``atol`` over the mesh width h = 1 / (n + 1), in the Euclidean norm
    stop = max(CG_RTOL * bnorm, atol * (b.shape[0] + 1))
    r = b.copy()
    z = np.empty(b.shape)
    precondition(r, z)
    direction = z.copy()
    w = r.copy()
    q = np.empty(b.shape)
    tmp = np.empty(b.shape)
    r_, z_, dir_, q_ = r.reshape(-1), z.reshape(-1), direction.reshape(-1), q.reshape(-1)
    rz = float(r_.dot(z_))
    cap = _cg_iteration_cap(d)
    for _ in range(cap):
        np.multiply(d, direction, out=q)
        q += w
        step = rz / float(dir_.dot(q_))
        np.multiply(step, direction, out=tmp)
        x += tmp
        np.multiply(step, q, out=tmp)
        r -= tmp
        rnorm = math.sqrt(float(r_.dot(r_)))
        if not math.isfinite(rnorm):
            raise LinearSolveFailure("conjugate gradients produced a non-finite residual")
        if rnorm <= stop:
            return x
        precondition(r, z)
        rz_next = float(r_.dot(z_))
        beta = rz_next / rz
        direction *= beta
        direction += z
        w *= beta
        w += r
        rz = rz_next
    raise LinearSolveFailure(
        f"conjugate gradients reached its cap of {cap} iterations at relative "
        f"residual {rnorm / bnorm:.3e} (target {stop / bnorm:.1e})"
    )


def _side(shape: Tuple[int, ...], name: str) -> int:
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"{name} must have shape (n, n), got {shape}")
    _check_n(shape[0])
    return shape[0]


def _l2(values: np.ndarray) -> float:
    """``l2_norm`` of a field whose shape is already checked."""
    # np.linalg.norm of the row-major values, bitwise: sqrt of their dot
    # product with themselves, one BLAS ``ddot`` of the flat view (the
    # ``np.vdot`` kernel, without its Python dispatch)
    flat = values.reshape(-1)
    return (1.0 / (values.shape[0] + 1)) * math.sqrt(float(flat.dot(flat)))


def l2_norm(values: np.ndarray) -> float:
    """Discrete L2 norm of an (n, n) interior nodal field: ``h * |values|_2``."""
    _side(values.shape, "values")
    return _l2(values)


def l2_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Discrete L2 inner product of two (n, n) fields: ``h^2 * sum(a * b)``."""
    h = 1.0 / (_side(a.shape, "a") + 1)
    if b.shape != a.shape:
        raise ValueError(f"b must have shape {a.shape}, got {b.shape}")
    return h**2 * float((a * b).sum())


def _as_field(values, name: str, n: Optional[int] = None) -> np.ndarray:
    """``values`` as a finite row-major float (n, n) field; ``n`` defaults to its own side."""
    arr = np.asarray(values, dtype=float)
    if n is None:
        n = _side(arr.shape, name)
    elif arr.shape != (n, n):
        raise ValueError(f"{name} must have shape {(n, n)}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite entries")
    # row-major, so the preconditioner's matrix products and the inner
    # products see every field in one memory layout
    return np.ascontiguousarray(arr)


def _newton_op(
    u: np.ndarray,
    y: np.ndarray,
    give_up: Optional[Callable[[np.ndarray, float], bool]] = None,
    cg_atol: float = 0.0,
    op: Optional[np.ndarray] = None,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Damped Newton for ``-lap(y) + y^3 = u`` from the field ``y``, whose
    operator value ``-lap(y) + y^3`` is ``op`` when the caller has it.

    Returns the first iterate whose residual norm is at most
    ``STATE_RESIDUAL_TOL`` with its operator value, or None as soon as
    ``give_up(y_k, rnorm_k)`` holds for an iterate ``y_k`` after a step.
    Each step's CG stops at the absolute L2 residual ``cg_atol`` or at
    ``CG_RTOL`` relative to the Newton residual, whichever is larger.
    Raises ``NewtonDivergence`` if the halving stalls or at the step cap."""
    if op is None:
        op = _neg_lap_stencil(y) + y**3
    res = op - u
    rnorm = _l2(res)
    history = [rnorm]
    while rnorm > STATE_RESIDUAL_TOL:
        if len(history) > NEWTON_MAX_ITERS:  # the start, then one entry per step
            raise NewtonDivergence(
                f"no convergence after {NEWTON_MAX_ITERS} iterations, residual {rnorm:.3e}",
                history,
            )
        step = _pcg_solve(3.0 * y**2, -res, cg_atol)
        t = 1.0
        for _ in range(NEWTON_MAX_HALVINGS):
            y_try = y + t * step
            op_try = _neg_lap_stencil(y_try) + y_try**3
            res_try = op_try - u
            rnorm_try = _l2(res_try)
            if rnorm_try < rnorm:
                break
            t *= 0.5
        else:
            raise NewtonDivergence(
                f"residual stalled at {rnorm:.3e} (tolerance {STATE_RESIDUAL_TOL:.1e})", history
            )
        y, op, res, rnorm = y_try, op_try, res_try, rnorm_try
        history.append(rnorm)
        if give_up is not None and give_up(y, rnorm):
            return None
    return y, op


def _state_error_bound(rnorm: float, n: int) -> float:
    """Bound on the discrete L2 distance from a field with residual norm
    ``rnorm`` to the state ``solve_state`` returns.

    ``-lap + y^3`` is strongly monotone with modulus ``lam1``, the least
    eigenvalue of ``-lap``, so two fields are at most the distance of their
    images over ``lam1`` apart; the returned state's residual is at most
    ``STATE_RESIDUAL_TOL``.  This is the tilt stability of the state
    equation: the state map is ``1 / lam1``-Lipschitz in the control.
    """
    return (rnorm + STATE_RESIDUAL_TOL) / _poisson_eigen(n)[1][0, 0]


def _trial_cg_atol(jval: float, margin: float, n: int) -> float:
    """CG target of a line-search trial's Newton steps at the current
    objective ``jval``, for an Armijo test that asks for a decrease of
    ``margin`` (see the module docstring)."""
    atol = TRIAL_STATE_FRACTION * STATE_RESIDUAL_TOL
    dist = math.sqrt(2.0 * jval)
    if dist > 0.0:
        lam1 = _poisson_eigen(n)[1][0, 0]
        atol = min(atol, TRIAL_ARMIJO_FRACTION * lam1 * margin / dist)
    return atol


def solve_state(u) -> np.ndarray:
    """Solve ``-lap(y) + y^3 = u`` with zero Dirichlet data by damped Newton.

    The Jacobian ``-lap + 3 diag(y^2)`` is symmetric positive definite and
    the cubic nonlinearity is monotone, so Newton from zero is reliable;
    the step is halved while the residual norm fails to decrease to guard
    large forcing.  Newton stops once the residual norm is at most
    ``STATE_RESIDUAL_TOL`` and raises after ``NEWTON_MAX_ITERS`` steps.
    """
    u = _as_field(u, "u")
    return _newton_op(u, np.zeros(u.shape))[0]


def _solve_spd(y_base: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Preconditioned CG solve of ``(-lap + 3 diag(y^2)) x = rhs`` with a
    true-residual check after the solve and each of up to three
    refinement steps.  CG stops at ``SPD_FRACTION * LINEAR_RESIDUAL_TOL``."""
    atol = SPD_FRACTION * LINEAR_RESIDUAL_TOL
    d = 3.0 * y_base**2
    x = np.zeros_like(rhs)
    resid = rhs
    for _ in range(4):
        x = x + _pcg_solve(d, resid, atol)
        resid = rhs - _spd_matvec(d, x)
        resid_norm = _l2(resid)
        if resid_norm <= LINEAR_RESIDUAL_TOL:
            return x
    raise LinearSolveFailure(
        f"linear residual {resid_norm:.3e} above {LINEAR_RESIDUAL_TOL:.1e}"
    )


def solve_adjoint(y, y_d) -> np.ndarray:
    """Adjoint state: ``(-lap + 3 diag(y^2)) p = y - y_d``.

    The adjoint is the L2 gradient of the tracking objective with respect
    to the control.
    """
    y = _as_field(y, "y")
    y_d = _as_field(y_d, "y_d", len(y))
    return _solve_spd(y, y - y_d)


def solve_linearized(v, y_base) -> np.ndarray:
    """Linearized state: ``(-lap + 3 diag(y_base^2)) z = v``."""
    v = _as_field(v, "v")
    y_base = _as_field(y_base, "y_base", len(v))
    return _solve_spd(y_base, v)


def objective(u, y_d) -> float:
    """Tracking objective ``0.5 * |y_u - y_d|_{L2}^2``."""
    u = _as_field(u, "u")
    y_d = _as_field(y_d, "y_d", len(u))
    return 0.5 * _l2(solve_state(u) - y_d) ** 2


def _check_tol(tol: float) -> None:
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")


@dataclass(frozen=True)
class TrackingResult:
    """Final iterate of the control solve with its state and adjoint, the
    problem it solves (a copy of the validated ``target``, which gives the
    mesh, and the box ``[alpha, beta]``), and the ``tol`` it was solved to.

    ``converged`` is ``first_order_residual <= tol``; a solve stopped
    by the iteration cap or a failed line search still returns its residual.
    ``objective_history`` holds the objective at every accepted iterate,
    which the monotone line search keeps non-increasing.
    """

    control: np.ndarray
    state: np.ndarray
    adjoint: np.ndarray
    objective_value: float
    first_order_residual: float
    iterations: int
    converged: bool
    objective_history: Tuple[float, ...]
    target: np.ndarray
    alpha: float
    beta: float
    tol: float


def solve_tracking(
    y_d, alpha: float, beta: float, tol: float = SPG_TOL, u0: Optional[np.ndarray] = None
) -> TrackingResult:
    """Projected-gradient solve of the box-constrained tracking problem.

    The update is ``u+ = clip(u - s * p_u, [alpha, beta])`` with a spectral
    (Barzilai-Borwein) step length and monotone Armijo backtracking on the
    objective.  Terminates when the projected-gradient norm
    ``|u - clip(u - p_u)|_{L2}`` falls to ``tol``, at the iteration
    cap, or when a line search finds no step, whichever comes first.  The
    target ``y_d`` gives the mesh, and a start ``u0`` must have its shape.
    """
    if not (alpha < beta and math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError(f"need finite alpha < beta, got [{alpha}, {beta}]")
    _check_tol(tol)
    y_d = _as_field(y_d, "y_d").copy()  # the result keeps the target it solved for
    n = len(y_d)

    if u0 is None:
        u = np.full((n, n), 0.5 * (alpha + beta))
    else:
        u = np.clip(_as_field(u0, "u0", n), alpha, beta)

    y = solve_state(u)
    op = _neg_lap_stencil(y) + y**3  # the state operator's value at y
    jval = 0.5 * _l2(y - y_d) ** 2
    p = solve_adjoint(y, y_d)
    history: List[float] = [jval]

    # a trial's Newton solve stops once it must fail the Armijo test (see
    # the module docstring)
    target_norm = _l2(y_d)
    eps = 2.0**-52
    threshold = 0.0

    def fails_armijo(y_k: np.ndarray, rnorm: float) -> bool:
        dist = _l2(y_k - y_d)
        rho = _state_error_bound(rnorm, n)
        # Rounding margin, in distance units.  A computed residual norm is
        # off from the exact one by at most about 50 eps (n + 1)^2 |y|_h
        # (the stencil's terms are up to 4 (n + 1)^2 |y| each), at y_k and
        # at Newton's last iterate, whose norms are at most
        # 2 dist + |y_d|_h; dividing by lam1 >= 19 leaves under
        # 16 eps (n + 1)^2 (dist + |y_d|_h), with the norm's own rounding.
        # ``slack`` is 64 times that, and since
        # 0.5 max(L - slack, 0)^2 >= 0.5 L^2 - dist * slack for
        # L = max(dist - rho, 0) <= dist, every trial rejected here fails
        # the full solve's test too.
        slack = 2.0**10 * eps * (n + 1) ** 2 * (dist + target_norm)
        return 0.5 * max(dist - rho, 0.0) ** 2 > threshold + dist * slack

    step = SPG_STEP_INIT
    prev_u: Optional[np.ndarray] = None
    prev_p: Optional[np.ndarray] = None

    iterations = 0
    while True:
        residual = _l2(u - np.clip(u - p, alpha, beta))
        if residual <= tol or iterations == SPG_MAX_ITERS:
            break
        iterations += 1

        if prev_u is not None:
            du = u - prev_u
            dg = p - prev_p
            den = l2_inner(du, dg)
            if den > 0.0:
                step = min(max(l2_inner(du, du) / den, SPG_STEP_MIN), SPG_STEP_MAX)
            else:
                step = SPG_STEP_MAX

        accepted = False
        t = 1.0
        for _ in range(SPG_MAX_HALVINGS):
            u_try = np.clip(u - t * step * p, alpha, beta)
            move = u_try - u
            if _l2(move) == 0.0:
                break
            decrease = SPG_ARMIJO * l2_inner(p, move)
            threshold = jval + decrease
            found = _newton_op(u_try, y, fails_armijo, _trial_cg_atol(jval, -decrease, n), op)
            if found is not None:
                j_try = 0.5 * _l2(found[0] - y_d) ** 2
                if j_try <= threshold:
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            break

        prev_u, prev_p = u, p
        u, (y, op), jval = u_try, found, j_try
        p = solve_adjoint(y, y_d)
        history.append(jval)

    return TrackingResult(
        u, y, p, jval, residual, iterations, residual <= tol, tuple(history),
        y_d, alpha, beta, tol,
    )


def _check_ssc_settings(sample_count: int) -> None:
    if sample_count < 0:
        raise ValueError(f"sample_count must be >= 0, got {sample_count}")


def ssc_estimate(
    result: TrackingResult,
    sample_count: int,
    seed: int = 0,
) -> float:
    """Sampled estimate of the curvature constant of the control problem
    at the solved control ``ubar``, state ``y`` and adjoint ``p`` of ``result``.

    Over feasible directions ``v = u - ubar`` (random box controls on the
    mesh of ``ubar``, plus the two box-vertex controls), scaled so the
    linearized state stays within the shell ``|z_v| <= SSC_SHELL_RADIUS``,
    returns the minimum of

        (<p, v> + 0.5 * sum (1 - 6 y p) z_v^2) / |z_v|^2.

    The curvature constant is the infimum of this quotient over all such
    directions, so a minimum over a finite sample over-estimates it: on
    the default instance (amplitude 0.6) the constant is 0.5000, and the
    estimate reads 0.5019 at n = 16 and 0.5039 at n = 32.  A positive value
    is numerical evidence of quadratic growth of the objective in the
    state distance, not a certified bound.
    """
    _check_ssc_settings(sample_count)
    ubar, y, p = result.control, result.state, result.adjoint
    alpha, beta = result.alpha, result.beta
    weight = 1.0 - 6.0 * y * p

    rng = np.random.default_rng(seed)
    candidates = [np.full_like(ubar, alpha), np.full_like(ubar, beta)]
    candidates += [alpha + (beta - alpha) * rng.random(ubar.shape) for _ in range(sample_count)]

    quotients: List[float] = []
    for cand in candidates:
        v = cand - ubar
        if l2_norm(v) < 1e-14:
            continue
        z = solve_linearized(v, y)
        nz = l2_norm(z)
        if nz < 1e-14:
            continue
        scale = min(1.0, SSC_SHELL_RADIUS / nz)
        v = scale * v
        z = scale * z
        nz = scale * nz
        first = l2_inner(p, v)
        quad = l2_inner(weight * z, z)
        quotients.append((first + 0.5 * quad) / nz**2)
    if not quotients:
        raise NoSamplesInShell("no feasible direction produced a nonzero state move")
    return min(quotients)


def sine_combination(n: int, coeffs: np.ndarray) -> np.ndarray:
    """Field ``sum_kl c[k-1, l-1] sin(k pi x1) sin(l pi x2)`` on n x n interior nodes."""
    _check_n(n)
    coeffs = np.asarray(coeffs, dtype=float)
    xs = np.arange(1, n + 1) * (1.0 / (n + 1))
    kmax, lmax = coeffs.shape
    sines = np.stack([np.sin(k * np.pi * xs) for k in range(1, max(kmax, lmax) + 1)])
    field = np.zeros((n, n))
    for k in range(kmax):
        for l in range(lmax):
            field += coeffs[k, l] * np.outer(sines[k], sines[l])
    return field


def default_target(n: int) -> np.ndarray:
    """The reference tracking target ``sin(pi x1) sin(pi x2)`` on n x n interior nodes."""
    return sine_combination(n, np.ones((1, 1)))


@dataclass(frozen=True)
class SweepSample:
    eta_norm: float
    index: int
    ratio: float
    converged: bool
    iterations: int
    error: str = ""


@dataclass(frozen=True)
class SweepReport:
    """Target-perturbation sensitivity sweep.

    ``kappa_hat`` is the largest observed ratio of state displacement to
    perturbation norm.  The perturbed solves reach stationary points of a
    descent method, not certified global minimizers, so the figure is a
    stationary-point sensitivity.
    """

    samples: Tuple[SweepSample, ...]
    kappa_hat: float
    label: ClassVar[str] = "stationary-point sensitivity"

    def ratios(self) -> List[float]:
        return [s.ratio for s in self.samples if math.isfinite(s.ratio)]

    def consistent(self, ssc: float) -> bool:
        """Whether the sweep bears out the curvature estimate ``ssc``: an ``ssc``
        that is not positive predicts nothing and passes; otherwise every sample
        needs a finite ratio, and each lies within ``CONSISTENCY_FACTOR`` of
        their median, which must be positive."""
        if not ssc > 0.0:
            return True
        ratios = self.ratios()
        if not ratios or len(ratios) < len(self.samples):
            return False
        med = _median(ratios)
        lo, hi = med / CONSISTENCY_FACTOR, med * CONSISTENCY_FACTOR
        return med > 0.0 and all(lo <= r <= hi for r in ratios)


def _median(values: Sequence[float]) -> float:
    """The median as ``np.median`` gives it, bitwise, without importing ``numpy.ma``."""
    ordered, mid = sorted(values), len(values) // 2
    return float(ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0)


def _check_sweep_settings(eta_norms: Sequence[float], etas_per_norm: int) -> None:
    _check_norm_sample("eta", eta_norms, "etas_per_norm", etas_per_norm)


def perturbation_sweep(
    ubar_result: TrackingResult,
    eta_norms: Sequence[float],
    etas_per_norm: int,
    seed: int = 0,
) -> SweepReport:
    """Re-solve the tracking problem of ``ubar_result`` at its ``tol`` for
    randomly perturbed targets on its mesh.

    Perturbations are low-frequency random sine combinations
    (``SWEEP_MODES`` x ``SWEEP_MODES`` with standard normal coefficients)
    rescaled to each requested norm; each perturbed problem is warm-started
    from the unperturbed control.  Per-sample solver failures are recorded,
    not fatal.
    """
    _check_sweep_settings(eta_norms, etas_per_norm)
    y_d, ybar = ubar_result.target, ubar_result.state
    alpha, beta, tol = ubar_result.alpha, ubar_result.beta, ubar_result.tol

    samples: List[SweepSample] = []
    for j, target in enumerate(map(float, eta_norms)):
        for i in range(etas_per_norm):
            rng = np.random.default_rng([seed, j, i])
            eta = sine_combination(len(y_d), rng.standard_normal((SWEEP_MODES, SWEEP_MODES)))
            eta = eta * (target / l2_norm(eta))
            try:
                res = solve_tracking(y_d + eta, alpha, beta, tol, u0=ubar_result.control)
                ratio = l2_norm(res.state - ybar) / target
                samples.append(SweepSample(target, i, ratio, res.converged, res.iterations))
            except GrowthLabError as exc:
                samples.append(SweepSample(target, i, math.nan, False, 0, error=str(exc)))
    finite = [s.ratio for s in samples if math.isfinite(s.ratio)]
    return SweepReport(tuple(samples), max(finite, default=math.nan))
