"""Box-constrained tracking for a semilinear elliptic state equation.

Finite-difference realization on the unit square with homogeneous Dirichlet
data: 5-point Laplacian, cubic nonlinearity, damped Newton for the state,
and a spectral projected-gradient loop for the control problem

    minimize 0.5 * |y_u - y_d|^2   over   alpha <= u <= beta,
    where  -lap(y_u) + y_u^3 = u,  y_u = 0 on the boundary.

Every linear solve (Newton steps, adjoint and linearized states) has the
symmetric positive definite operator ``-lap + diag(d)`` with ``d >= 0`` and
goes through one conjugate-gradient solver preconditioned by the exact
inverse of ``-lap`` (matrix-diagonalization fast Poisson solver).  The
operator ``-lap`` itself is applied as a 5-point stencil; no matrix is
assembled.

States, adjoints, controls, and targets are all (n, n) arrays of interior
nodal values; the discrete L2 norm of such a field is ``h * |values|_2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, List, Optional, Sequence, Tuple

import numpy as np

from .core import GrowthLabError

__all__ = [
    "NewtonDivergence",
    "LinearSolveFailure",
    "NoSamplesInShell",
    "Grid2D",
    "DescentConfig",
    "TrackingResult",
    "SweepSample",
    "SweepReport",
    "l2_norm",
    "l2_inner",
    "solve_state",
    "solve_adjoint",
    "solve_linearized",
    "objective",
    "second_order_form",
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
# Control solve: Armijo sufficient-decrease factor, first step length,
# bounds on the Barzilai-Borwein step length, and backtracking cap.
SPG_ARMIJO = 1e-4
SPG_STEP_INIT = 1.0
SPG_STEP_MIN = 1e-3
SPG_STEP_MAX = 1e12
SPG_MAX_HALVINGS = 60
# Sweep perturbations combine SWEEP_MODES x SWEEP_MODES low-frequency sines.
SWEEP_MODES = 4


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


@dataclass(frozen=True)
class Grid2D:
    """Interior nodes of a uniform grid on the unit square, Dirichlet data."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError(f"grid needs at least 4 interior nodes per axis, got {self.n}")

    @property
    def h(self) -> float:
        return 1.0 / (self.n + 1)

    def nodes(self) -> Tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays ``X1, X2`` of shape (n, n) for interior nodes."""
        xs = np.arange(1, self.n + 1) * self.h
        return np.meshgrid(xs, xs, indexing="ij")


def _neg_lap_stencil(x: np.ndarray, n: int) -> np.ndarray:
    """``-lap x`` for a flat field ``x`` of n * n interior values.

    The five terms are summed in the column order of the assembled CSR
    matrix, (i-1, j), (i, j-1), centre, (i, j+1), (i+1, j), so the result
    is bitwise equal to that matrix's product (``tests/_reference.py``)."""
    h = 1.0 / (n + 1)
    off = -1.0 / h**2
    ox = off * x.reshape(n, n)
    out = np.zeros((n, n))
    out[1:] = ox[:-1]
    out[:, 1:] += ox[:, :-1]
    # the centre coefficient 4/h^2 is -4 * off exactly (a power-of-two scale)
    out -= 4.0 * ox
    out[:, :-1] += ox[:, 1:]
    out[:-1] += ox[1:]
    return out.ravel()


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


def _cg_iteration_cap(d: np.ndarray, n: int) -> int:
    # The preconditioned spectrum lies in [1, 1 + max(d) / lam_min], and the
    # classic CG bound needs 0.5 sqrt(cond) ln(2 / CG_RTOL) steps; allow
    # twice that.
    lam_min = _poisson_eigen(n)[1][0, 0]
    cond = 1.0 + float(np.max(d)) / lam_min
    if not math.isfinite(cond):
        raise LinearSolveFailure("operator diagonal is not finite")
    return 10 + int(math.sqrt(cond) * math.log(2.0 / CG_RTOL))


def _spd_matvec(d: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    return _neg_lap_stencil(x, n) + d * x


def _pcg_solve(d: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Solve ``(-lap + diag(d)) x = b`` for flat ``d >= 0`` and ``b`` by
    conjugate gradients preconditioned with the exact inverse of ``-lap``.

    Since the preconditioner inverts ``-lap``, ``-lap z = r`` for every
    preconditioned residual ``z``, so ``w = -lap direction`` follows the
    direction recurrence (``w = r`` at the start, ``w <- r + beta w``) and
    the loop applies no Laplacian.  Stops once the recurrence residual is
    below ``CG_RTOL`` relative to ``b``; a non-finite iterate or reaching
    the iteration cap raises ``LinearSolveFailure``.
    """
    s, lam = _poisson_eigen(n)

    def precondition(r: np.ndarray) -> np.ndarray:
        return (s @ ((s @ r.reshape(n, n) @ s) / lam) @ s).ravel()

    x = np.zeros_like(b)
    # np.linalg.norm of a vector is sqrt(v @ v); the same formula, bitwise
    bnorm = math.sqrt(float(b @ b))
    if bnorm == 0.0:
        return x
    r = b.copy()
    z = precondition(r)
    direction = z
    w = r
    rz = float(r @ z)
    cap = _cg_iteration_cap(d, n)
    for _ in range(cap):
        q = w + d * direction
        step = rz / float(direction @ q)
        x = x + step * direction
        r = r - step * q
        rnorm = math.sqrt(float(r @ r))
        if not math.isfinite(rnorm):
            raise LinearSolveFailure("conjugate gradients produced a non-finite residual")
        if rnorm <= CG_RTOL * bnorm:
            return x
        z = precondition(r)
        rz_next = float(r @ z)
        beta = rz_next / rz
        direction = z + beta * direction
        w = r + beta * w
        rz = rz_next
    raise LinearSolveFailure(
        f"conjugate gradients reached its cap of {cap} iterations at relative "
        f"residual {rnorm / bnorm:.3e} (target {CG_RTOL:.1e})"
    )


def l2_norm(values: np.ndarray, grid: Grid2D) -> float:
    """Discrete L2 norm of an interior nodal field: ``h * |values|_2``."""
    return grid.h * float(np.linalg.norm(np.ravel(values)))


def l2_inner(a: np.ndarray, b: np.ndarray, grid: Grid2D) -> float:
    """Discrete L2 inner product: ``h^2 * sum(a * b)``."""
    return grid.h**2 * float(np.sum(np.asarray(a) * np.asarray(b)))


def _as_field(values, grid: Grid2D, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (grid.n, grid.n):
        raise ValueError(f"{name} must have shape {(grid.n, grid.n)}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


def solve_state(
    u,
    grid: Grid2D,
    y0: Optional[np.ndarray] = None,
    tol: float = STATE_RESIDUAL_TOL,
    max_iters: int = NEWTON_MAX_ITERS,
) -> np.ndarray:
    """Solve ``-lap(y) + y^3 = u`` with zero Dirichlet data by damped Newton.

    The Jacobian ``-lap + 3 diag(y^2)`` is symmetric positive definite and
    the cubic nonlinearity is monotone, so Newton from zero is reliable;
    the step is halved while the residual norm fails to decrease to guard
    large forcing.  ``y0`` warm-starts the iteration.
    """
    u = _as_field(u, grid, "u").ravel()
    y = np.zeros_like(u) if y0 is None else _as_field(y0, grid, "y0").ravel().copy()

    def residual(vec: np.ndarray) -> np.ndarray:
        return _neg_lap_stencil(vec, grid.n) + vec**3 - u

    res = residual(y)
    rnorm = grid.h * float(np.linalg.norm(res))
    history = [rnorm]
    for _ in range(max_iters):
        if rnorm <= tol:
            return y.reshape(grid.n, grid.n)
        step = _pcg_solve(3.0 * y**2, -res, grid.n)
        t = 1.0
        for _ in range(NEWTON_MAX_HALVINGS):
            y_try = y + t * step
            res_try = residual(y_try)
            rnorm_try = grid.h * float(np.linalg.norm(res_try))
            if rnorm_try < rnorm:
                break
            t *= 0.5
        else:
            raise NewtonDivergence(
                f"residual stalled at {rnorm:.3e} (tolerance {tol:.1e})", history
            )
        y, res, rnorm = y_try, res_try, rnorm_try
        history.append(rnorm)
    if rnorm <= tol:
        return y.reshape(grid.n, grid.n)
    raise NewtonDivergence(
        f"no convergence after {max_iters} iterations, residual {rnorm:.3e}", history
    )


def _solve_spd(y_base: np.ndarray, rhs: np.ndarray, grid: Grid2D) -> np.ndarray:
    """Preconditioned CG solve of ``(-lap + 3 diag(y^2)) x = rhs`` with a
    true-residual check and iterative refinement."""
    d = 3.0 * y_base.ravel() ** 2
    b = rhs.ravel()
    x = _pcg_solve(d, b, grid.n)
    for _ in range(3):
        resid = b - _spd_matvec(d, x, grid.n)
        if grid.h * float(np.linalg.norm(resid)) <= LINEAR_RESIDUAL_TOL:
            return x.reshape(grid.n, grid.n)
        x = x + _pcg_solve(d, resid, grid.n)
    resid_norm = grid.h * float(np.linalg.norm(b - _spd_matvec(d, x, grid.n)))
    if resid_norm <= LINEAR_RESIDUAL_TOL:
        return x.reshape(grid.n, grid.n)
    raise LinearSolveFailure(
        f"linear residual {resid_norm:.3e} above {LINEAR_RESIDUAL_TOL:.1e}"
    )


def solve_adjoint(y, y_d, grid: Grid2D) -> np.ndarray:
    """Adjoint state: ``(-lap + 3 diag(y^2)) p = y - y_d``.

    The adjoint is the L2 gradient of the tracking objective with respect
    to the control.
    """
    y = _as_field(y, grid, "y")
    y_d = _as_field(y_d, grid, "y_d")
    return _solve_spd(y, y - y_d, grid)


def solve_linearized(v, y_base, grid: Grid2D) -> np.ndarray:
    """Linearized state: ``(-lap + 3 diag(y_base^2)) z = v``."""
    v = _as_field(v, grid, "v")
    y_base = _as_field(y_base, grid, "y_base")
    return _solve_spd(y_base, v, grid)


def objective(u, y_d, grid: Grid2D) -> float:
    """Tracking objective ``0.5 * |y_u - y_d|_{L2}^2``."""
    y = solve_state(u, grid)
    y_d = _as_field(y_d, grid, "y_d")
    return 0.5 * l2_norm(y - y_d, grid) ** 2


def second_order_form(ubar, v, y_d, grid: Grid2D) -> float:
    """Second-order value ``sum (1 - 6 y p) z_v^2`` of the objective at
    ``ubar`` in direction ``v`` (discrete quadrature)."""
    y = solve_state(ubar, grid)
    p = solve_adjoint(y, y_d, grid)
    z = solve_linearized(v, y, grid)
    weight = 1.0 - 6.0 * y * p
    return l2_inner(weight * z, z, grid)


@dataclass(frozen=True)
class DescentConfig:
    """Spectral projected-gradient settings for the control solve."""

    tol: float = 1e-8
    max_iters: int = 5000

    def __post_init__(self) -> None:
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError("tol must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class TrackingResult:
    """Final iterate of the control solve with its state and adjoint.

    ``converged`` is False when the iteration cap was reached; the result
    is still returned with its measured first-order residual.
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


def solve_tracking(
    y_d,
    grid: Grid2D,
    alpha: float,
    beta: float,
    cfg: DescentConfig = DescentConfig(),
    u0: Optional[np.ndarray] = None,
) -> TrackingResult:
    """Projected-gradient solve of the box-constrained tracking problem.

    The update is ``u+ = clip(u - s * p_u, [alpha, beta])`` with a spectral
    (Barzilai-Borwein) step length and monotone Armijo backtracking on the
    objective.  Terminates when the projected-gradient norm
    ``|u - clip(u - p_u)|_{L2}`` falls below ``cfg.tol`` or at the
    iteration cap, whichever comes first.
    """
    if not (alpha < beta and math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError(f"need finite alpha < beta, got [{alpha}, {beta}]")
    y_d = _as_field(y_d, grid, "y_d")

    if u0 is None:
        u = np.full((grid.n, grid.n), 0.5 * (alpha + beta))
    else:
        u = np.clip(_as_field(u0, grid, "u0"), alpha, beta)

    y = solve_state(u, grid)
    jval = 0.5 * l2_norm(y - y_d, grid) ** 2
    p = solve_adjoint(y, y_d, grid)
    history: List[float] = [jval]
    step = SPG_STEP_INIT
    prev_u: Optional[np.ndarray] = None
    prev_p: Optional[np.ndarray] = None

    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        residual = l2_norm(u - np.clip(u - p, alpha, beta), grid)
        if residual <= cfg.tol:
            return TrackingResult(
                u, y, p, jval, residual, iterations - 1, True, tuple(history)
            )

        if prev_u is not None:
            du = u - prev_u
            dg = p - prev_p
            den = l2_inner(du, dg, grid)
            if den > 0.0:
                step = min(max(l2_inner(du, du, grid) / den, SPG_STEP_MIN), SPG_STEP_MAX)
            else:
                step = SPG_STEP_MAX

        accepted = False
        t = 1.0
        for _ in range(SPG_MAX_HALVINGS):
            u_try = np.clip(u - t * step * p, alpha, beta)
            move = u_try - u
            if l2_norm(move, grid) == 0.0:
                break
            y_try = solve_state(u_try, grid, y0=y)
            j_try = 0.5 * l2_norm(y_try - y_d, grid) ** 2
            if j_try <= jval + SPG_ARMIJO * l2_inner(p, move, grid):
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
        u, y, p, jval, residual, iterations, residual <= cfg.tol, tuple(history)
    )


def ssc_estimate(
    ubar,
    y_d,
    grid: Grid2D,
    alpha: float,
    beta: float,
    delta: float,
    sample_count: int,
    seed: int = 0,
) -> float:
    """Sampled lower bound for the curvature constant of the control problem.

    Over feasible directions ``v = u - ubar`` (random box controls plus the
    two box-vertex controls), scaled so the linearized state stays within
    the shell ``|z_v| <= delta``, returns the minimum of

        (<p, v> + 0.5 * sum (1 - 6 y p) z_v^2) / |z_v|^2.

    A positive value is numerical evidence of quadratic growth of the
    objective in the state distance.
    """
    if not (alpha < beta):
        raise ValueError(f"need alpha < beta, got [{alpha}, {beta}]")
    if not (delta > 0 and math.isfinite(delta)):
        raise ValueError("delta must be positive and finite")
    ubar = _as_field(ubar, grid, "ubar")
    y_d = _as_field(y_d, grid, "y_d")
    y = solve_state(ubar, grid)
    p = solve_adjoint(y, y_d, grid)
    weight = 1.0 - 6.0 * y * p

    rng = np.random.default_rng(seed)
    candidates = [np.full_like(ubar, alpha), np.full_like(ubar, beta)]
    candidates += [
        alpha + (beta - alpha) * rng.random((grid.n, grid.n))
        for _ in range(sample_count)
    ]

    quotients: List[float] = []
    for cand in candidates:
        v = cand - ubar
        if l2_norm(v, grid) < 1e-14:
            continue
        z = solve_linearized(v, y, grid)
        nz = l2_norm(z, grid)
        if nz < 1e-14:
            continue
        scale = min(1.0, delta / nz)
        v = scale * v
        z = scale * z
        nz = scale * nz
        first = l2_inner(p, v, grid)
        quad = l2_inner(weight * z, z, grid)
        quotients.append((first + 0.5 * quad) / nz**2)
    if not quotients:
        raise NoSamplesInShell("no feasible direction produced a nonzero state move")
    return min(quotients)


def sine_combination(grid: Grid2D, coeffs: np.ndarray) -> np.ndarray:
    """Field ``sum_kl c[k-1, l-1] sin(k pi x1) sin(l pi x2)`` on the grid."""
    coeffs = np.asarray(coeffs, dtype=float)
    xs = np.arange(1, grid.n + 1) * grid.h
    kmax, lmax = coeffs.shape
    sines = np.stack([np.sin(k * np.pi * xs) for k in range(1, max(kmax, lmax) + 1)])
    field = np.zeros((grid.n, grid.n))
    for k in range(kmax):
        for l in range(lmax):
            field += coeffs[k, l] * np.outer(sines[k], sines[l])
    return field


def default_target(grid: Grid2D) -> np.ndarray:
    """The reference tracking target ``sin(pi x1) sin(pi x2)``."""
    x1, x2 = grid.nodes()
    return np.sin(np.pi * x1) * np.sin(np.pi * x2)


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


def perturbation_sweep(
    ubar_result: TrackingResult,
    y_d,
    grid: Grid2D,
    alpha: float,
    beta: float,
    eta_norms: Sequence[float],
    etas_per_norm: int,
    cfg: DescentConfig = DescentConfig(),
    seed: int = 0,
) -> SweepReport:
    """Re-solve the tracking problem for randomly perturbed targets.

    Perturbations are low-frequency random sine combinations
    (``SWEEP_MODES`` x ``SWEEP_MODES`` with standard normal coefficients)
    rescaled to each requested norm; each perturbed problem is warm-started
    from the unperturbed control.  Per-sample solver failures are recorded,
    not fatal.
    """
    if etas_per_norm < 1:
        raise ValueError("etas_per_norm must be >= 1")
    if len(eta_norms) == 0:
        raise ValueError("eta_norms must not be empty")
    y_d = _as_field(y_d, grid, "y_d")
    ybar = ubar_result.state

    def run_sample(j: int, i: int, target: float) -> SweepSample:
        rng = np.random.default_rng([seed, j, i])
        eta = sine_combination(grid, rng.standard_normal((SWEEP_MODES, SWEEP_MODES)))
        nrm = l2_norm(eta, grid)
        if not (target > 0.0) or nrm == 0.0:
            return SweepSample(float(target), i, math.nan, False, 0,
                               error="zero perturbation skipped")
        eta = eta * (target / nrm)
        try:
            res = solve_tracking(
                y_d + eta, grid, alpha, beta, cfg, u0=ubar_result.control
            )
            ratio = l2_norm(res.state - ybar, grid) / target
            return SweepSample(float(target), i, ratio, res.converged, res.iterations)
        except GrowthLabError as exc:
            return SweepSample(float(target), i, math.nan, False, 0, error=str(exc))

    # each sample owns its solver state and rng stream
    samples = [
        run_sample(j, i, float(target))
        for j, target in enumerate(eta_norms)
        for i in range(etas_per_norm)
    ]
    finite = [s.ratio for s in samples if math.isfinite(s.ratio)]
    kappa_hat = max(finite) if finite else math.nan
    return SweepReport(tuple(samples), kappa_hat)
