"""Reference implementations for the differential tests.

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

``solve`` and ``polish`` are frozen copies of the ball-constrained solver's
stacked solve and lockstep polish from before each tilt's grid values were
formed once and the polish kept a compact running set: every problem's
grid values are formed twice, the multistarts come from a full stable
argsort, and the polish gathers and scatters every array every sweep.
``project_rows``, ``check_values`` and ``sphere_axis`` are the helpers they
called, as they were.

``worst_pair`` is a frozen copy of the pair reduction from before it ran as
whole-array passes: a loop over ``(point, tilt)`` pairs that takes two
scalar norms per pair and, for the value-gap ratios, calls the oracle on
one point at a time.  ``tilt_estimate``, ``loja_estimate``,
``check_subregularity`` and ``check_global_loja`` are its four callers, as
they were; the graph checks did not yet refuse non-finite pairs.

``compose_oracle`` is a frozen copy of the ``f + term`` wrapper from before
it skipped the gather and scatter when every value of ``f`` is finite.

``metric_slope`` is a frozen copy of the local-slope probe from before it
probed one radius: it returns the estimate at the smallest of five radii
together with the whole per-radius sequence, and it read a ``-inf`` base
value as outside the domain and skipped ``-inf`` probes.

``check_equivalence`` is a frozen copy of the relation audit from before
one local helper built its three relations, and ``unit_directions`` of the
direction sampler from before it drew the directions of dimension 3 and up
as one block, re-drawing any draw of norm below 1e-12 one vector at a time.
"""

import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from growthlab import minimize
from growthlab import tracking as trk
from growthlab.core import (
    BallRegion,
    ExponentPair,
    FunctionOracle,
    _norm,
    _pair_rows,
    as_vector,
    pairing,
)
from growthlab.diagnostics import (
    BASE_POINT_EXCLUSION,
    TILT_ROUNDING_RTOL,
    EquivalenceAudit,
    GraphCheck,
    LojaEstimate,
    RelationCheck,
    TiltEstimate,
    _base_value,
    _check_tau,
)
from growthlab.minimize import AllInfinite, NonFiniteValue, SolverConfig, TiltedSolveResult
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


def project_rows(region: BallRegion, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Radial projection of the rows onto the ball, and the moved rows."""
    out = np.array(points, dtype=float)
    offset = out - region.center
    nrm = np.linalg.norm(offset, axis=1)
    outside = nrm > region.radius
    if outside.any():
        scale = region.radius / nrm[outside]
        out[outside] = region.center + offset[outside] * scale[:, None]
    return out, outside


def check_values(values: np.ndarray, points: np.ndarray, descriptor: str) -> None:
    """Refuse NaN and -inf, naming the first such value and its point."""
    bad = np.isnan(values) | np.isneginf(values)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise NonFiniteValue(
            f"oracle '{descriptor}' returned {values[i]} at {points[i]}"
        )


def sphere_axis(points: np.ndarray, region: BallRegion, i: int) -> np.ndarray:
    """Vector ``i`` of the Householder basis at each row, a point on the
    sphere: the outward normal for ``i = 0``, tangents otherwise."""
    n = (points - region.center) / region.radius
    if i == 0:
        return n
    coef = n[:, i] / (1.0 + np.abs(n[:, 0]))
    n[:, 0] += np.where(n[:, 0] >= 0.0, 1.0, -1.0)
    axis = -coef[:, None] * n
    axis[:, i] += 1.0
    return axis


def polish(
    f: FunctionOracle,
    starts: np.ndarray,
    start_values: np.ndarray,
    tilts: Optional[np.ndarray],
    region: BallRegion,
    step0: float,
    descriptor: str,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lockstep projected direct search: polished points, values and
    candidates evaluated per start."""
    x = np.array(starts, dtype=float)
    fx = np.array(start_values, dtype=float)
    step = np.full(len(x), float(step0))
    running = np.ones(len(x), dtype=bool)
    sweeps = np.full(len(x), minimize.POLISH_MAX_ITERS)
    on_sphere = None
    if x.shape[1] > 1:
        on_sphere = np.linalg.norm(x - region.center, axis=1) >= region.radius
    for sweep in range(minimize.POLISH_MAX_ITERS):
        idx = np.flatnonzero(running)
        if idx.size == 0:
            break
        xs, fs, steps = x[idx], fx[idx], step[idx]
        sphere = None if on_sphere is None else on_sphere[idx]
        cand_tilts = None if tilts is None else np.repeat(tilts[idx], 2, axis=0)
        improved = np.zeros(idx.size, dtype=bool)
        for i in range(x.shape[1]):
            cand = np.repeat(xs, 2, axis=0)
            cand[0::2, i] += steps
            cand[1::2, i] -= steps
            if sphere is not None and np.count_nonzero(sphere):
                rows = xs[sphere]
                move = steps[sphere, None] * sphere_axis(rows, region, i)
                cand[0::2][sphere] = rows + move
                cand[1::2][sphere] = rows - move
            cand, moved = project_rows(region, cand)
            vals = f.evaluate_rows(cand)
            if cand_tilts is not None:
                live = vals != math.inf
                vals[live] -= _pair_rows(cand[live], cand_tilts[live])
            check_values(vals, cand, descriptor)
            plus, minus = vals[0::2], vals[1::2]
            take_plus = plus < fs
            take_minus = minus < np.where(take_plus, plus, fs)
            took = np.flatnonzero(take_plus | take_minus)
            if took.size:
                pick = 2 * took + take_minus[took]
                xs[took] = cand[pick]
                fs[took] = vals[pick]
                if sphere is not None:
                    sphere[took] = moved[pick]
                improved[took] = True
        x[idx], fx[idx] = xs, fs
        if sphere is not None:
            on_sphere[idx] = sphere
        stalled = idx[~improved]
        step[stalled] *= 0.5
        done = stalled[step[stalled] < minimize.POLISH_STEP_TOLERANCE]
        if done.size:
            running[done] = False
            sweeps[done] = sweep + 1
    return x, fx, 2 * x.shape[1] * sweeps


def solve(
    f: FunctionOracle,
    tilts: Optional[np.ndarray],
    region: BallRegion,
    cfg: SolverConfig,
    descriptor: str,
) -> Tuple[TiltedSolveResult, ...]:
    """Minimize ``f - <xi, .>`` over the ball for each row of ``tilts``, or
    ``f`` when ``tilts`` is None; each problem's grid values are formed to
    pick its starts and formed again to cut its minimizer set."""
    pts = minimize.ball_grid(region, cfg.grid_points_per_axis)
    base = f.evaluate_rows(pts)
    problems = [None] if tilts is None else list(tilts)

    def grid_values(xi: Optional[np.ndarray]) -> np.ndarray:
        if xi is None:
            return base
        values = base.copy()
        live = values != math.inf
        if live.any():
            values[live] -= pairing(xi, pts[live])
        return values

    starts, start_values, offsets = [], [], [0]
    for xi in problems:
        values = grid_values(xi)
        check_values(values, pts, descriptor)
        n_finite = int(np.count_nonzero(np.isfinite(values)))
        if n_finite == 0:
            raise AllInfinite(
                f"oracle '{descriptor}' is +inf at all {len(pts)} sampled points "
                f"of the ball around {region.center}"
            )
        order = np.argsort(values, kind="stable")[: min(cfg.multistart_count, n_finite)]
        starts.append(pts[order])
        start_values.append(values[order])
        offsets.append(offsets[-1] + order.size)
    spacing = 2.0 * region.radius / (cfg.grid_points_per_axis - 1)
    start_tilts = None if tilts is None else np.repeat(tilts, np.diff(offsets), axis=0)
    x, fx, used = polish(
        f, np.concatenate(starts), np.concatenate(start_values), start_tilts,
        region, spacing, descriptor,
    )

    results = []
    for t, xi in enumerate(problems):
        values = grid_values(xi)
        finite = np.isfinite(values)
        mine = slice(offsets[t], offsets[t + 1])
        pool_pts = np.concatenate([pts[finite], x[mine]])
        pool_vals = np.concatenate([values[finite], fx[mine]])
        min_value = float(pool_vals.min())
        cut = min_value + cfg.minimizer_value_tolerance * (1.0 + abs(min_value))
        near = pool_pts[pool_vals <= cut]

        minimizers: List[np.ndarray] = []
        for i in np.lexsort(near.T[::-1]):
            if minimizers and np.max(np.abs(near[i] - minimizers[-1])) <= 1e-12:
                continue
            minimizers.append(near[i])
        evaluations = len(pts) + int(used[mine].sum())
        results.append(TiltedSolveResult(tuple(minimizers), min_value, evaluations))
    return tuple(results)


Pair = Tuple[np.ndarray, np.ndarray]


def worst_pair(
    pairs: Sequence[Pair],
    ratio: Callable[[np.ndarray, np.ndarray], Optional[float]],
    start: Optional[Tuple[float, np.ndarray, np.ndarray]] = None,
) -> Optional[Tuple[float, np.ndarray, np.ndarray]]:
    """``(ratio, x, xi)`` of the first pair with the strictly largest
    ``ratio(x, xi)``, or ``start`` if no pair beats it.  A ratio of ``None``
    skips its pair."""
    worst = start
    for x, xi in pairs:
        r = ratio(x, xi)
        if r is not None and (worst is None or r > worst[0]):
            worst = (r, x, xi)
    return worst


def tilt_ratio(dist: float, tilt_norm: float, pq: ExponentPair) -> float:
    return dist / tilt_norm ** (pq.q / pq.p) if tilt_norm > 0.0 else math.inf


def loja_ratio(gap: float, tilt_norm: float, pq: ExponentPair) -> float:
    return gap / tilt_norm**pq.q


def tilt_estimate(pairs: Sequence[Pair], xbar: np.ndarray, pq: ExponentPair) -> TiltEstimate:
    kappa_hat, x, xi = worst_pair(
        pairs,
        lambda x, xi: tilt_ratio(_norm(x - xbar), _norm(xi), pq),
        start=(0.0, xbar.copy(), np.zeros(xbar.size)),
    )
    return TiltEstimate(kappa_hat, xi, x)


def loja_estimate(
    pairs: Sequence[Pair], f: FunctionOracle, fbar: float, xbar: np.ndarray, pq: ExponentPair
) -> LojaEstimate:
    mu_hat, _, xi = worst_pair(
        pairs,
        lambda x, xi: loja_ratio(f(x) - fbar, _norm(xi), pq),
        start=(0.0, xbar, np.zeros(xbar.size)),
    )
    return LojaEstimate(mu_hat, xi)


def graph_pairs(pairs: Sequence[Pair], dim: int) -> List[Pair]:
    pairs = [(np.asarray(x, dtype=float), np.asarray(xi, dtype=float)) for x, xi in pairs]
    if any(v.shape != (dim,) for pair in pairs for v in pair):
        raise ValueError(f"graph pairs must hold points and tilts of shape ({dim},)")
    return pairs


def graph_check(worst: Optional[Tuple[float, np.ndarray, np.ndarray]], bound: float) -> GraphCheck:
    if worst is None:
        return GraphCheck(True, True, None, None, None)
    ratio, x, xi = worst
    return GraphCheck(ratio <= bound, False, ratio, x, _norm(xi))


def check_subregularity(pairs: Sequence[Pair], xbar, pq: ExponentPair, kappa: float) -> GraphCheck:
    xbar = as_vector(xbar)
    pairs = graph_pairs(pairs, xbar.size)

    def ratio(x, xi):
        lhs = _norm(x - xbar)
        return None if lhs <= BASE_POINT_EXCLUSION else tilt_ratio(lhs, _norm(xi), pq)

    return graph_check(worst_pair(pairs, ratio), kappa)


def check_global_loja(
    pairs: Sequence[Pair], f: FunctionOracle, xbar, pq: ExponentPair, mu: float
) -> GraphCheck:
    xbar = as_vector(xbar)
    pairs = graph_pairs(pairs, xbar.size)
    fbar = _base_value(f, xbar)
    zero_norm = TILT_ROUNDING_RTOL * max((_norm(xi) for _, xi in pairs), default=0.0)

    def ratio(x, xi):
        d = _norm(xi)
        return loja_ratio(f(x) - fbar, d, pq) if d > zero_norm else None

    return graph_check(worst_pair(pairs, ratio), mu)


def compose_oracle(
    f: FunctionOracle, term: Callable[[np.ndarray], np.ndarray], descriptor: str
) -> FunctionOracle:
    """``f + term`` with ``+inf`` absorbing; ``term`` sees only the rows
    where ``f`` is below ``+inf``, gathered on every call."""

    def batch(points: np.ndarray) -> np.ndarray:
        values = f.evaluate_rows(points)
        live = values != math.inf
        if live.any():
            extra = term(points[live])
            values[live] = np.where(extra == math.inf, extra, values[live] + extra)
        return values

    return FunctionOracle.from_batch(batch, descriptor)


def metric_slope(phi: FunctionOracle, x) -> Tuple[float, Tuple[Tuple[float, float], ...]]:
    """The slope at the smallest radius, and ``(radius, slope)`` at each radius."""
    x = as_vector(x)
    phix = phi(x)
    if math.isinf(phix):
        return math.inf, ()
    dirs = unit_directions(x.size, 64, seed=0)
    per_radius: List[Tuple[float, float]] = []
    for r in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        values = phi.evaluate_rows(x + r * dirs)
        if np.isnan(values).any():
            raise ValueError(f"oracle '{phi.descriptor}' returned NaN")
        gains = phix - values[np.isfinite(values)]
        best = max(0.0, float(gains.max())) / r if gains.size else 0.0
        per_radius.append((r, best))
    return per_radius[-1][1], tuple(per_radius)


def check_equivalence(
    gamma_hat: float, kappa_hat: float, mu_hat: float, pq: ExponentPair, tau: float = 1.10
) -> EquivalenceAudit:
    _check_tau(tau)
    g, k, m = gamma_hat, kappa_hat, mu_hat
    degenerate: List[str] = []

    if g > 0.0:
        slack_a = k * g ** (pq.q / pq.p)
        rel_a = RelationCheck(True, slack_a <= tau, slack_a)
    else:
        degenerate.append("gamma_hat=0: kappa_vs_gamma and gamma_vs_mu undefined")
        rel_a = RelationCheck(False, None, None)

    if g > 0.0 and k > 0.0:
        slack_b = m / k
        rel_b = RelationCheck(True, slack_b <= tau, slack_b)
    else:
        if g > 0.0:
            degenerate.append("kappa_hat=0: mu_vs_kappa undefined")
        rel_b = RelationCheck(False, None, None)

    if g > 0.0 and m > 0.0:
        slack_c = pq.p ** (-pq.q) / (m * g)
        rel_c = RelationCheck(True, slack_c <= tau, slack_c)
    else:
        if m <= 0.0:
            degenerate.append("mu_hat=0: gamma_vs_mu undefined")
        rel_c = RelationCheck(False, None, None)

    return EquivalenceAudit(rel_a, rel_b, rel_c, tau, tuple(degenerate))


def unit_directions(dim: int, count: int, seed=0) -> np.ndarray:
    if count < 1:
        raise ValueError("count must be >= 1")
    if dim == 1:
        return np.array([[1.0] if i % 2 == 0 else [-1.0] for i in range(count)])
    if dim == 2:
        angles = 2.0 * np.pi * np.arange(count) / count
        return np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    rng = np.random.default_rng(seed)
    out = np.empty((count, dim))
    for i in range(count):
        v = rng.standard_normal(dim)
        while _norm(v) < 1e-12:
            v = rng.standard_normal(dim)
        out[i] = v / _norm(v)
    return out
