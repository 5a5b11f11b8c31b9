"""Ball-constrained global minimization.

The primitive behind every "minimize over a closed ball" statement in the
package: a dense axis-aligned grid scan over the ball's bounding cube,
followed by a projected direct-search polish from the best grid cells.  The
polish steps along the coordinate axes inside the ball and along the
outward normal and tangent directions on its sphere, so that a start can
slide along the sphere toward a boundary minimizer.  Correctness of the
minimizer set is the design goal; the grid dimension is capped at 4.
Oracles are evaluated a batch of points at a time: the whole grid in one
call, then the candidates of all polish starts at each step direction in
one call, with those of each start's sweeps at its next halved steps
(``_polish``).  A stack of tilted problems shares that grid scan and
that polish loop.  Each problem's grid values are formed once, to pick its
starts and to keep the pool of grid points near its grid minimum; one pass
over the stack then cuts and deduplicates every minimizer set.  A tilt term
``-<xi, y>`` is finite and is subtracted with no mask (``+inf`` minus a
finite number stays ``+inf``); terms that can be ``+inf`` are added by
``compose_oracle``, the one home of the ``+inf``-absorbing sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

import numpy as np

from .core import (
    BallRegion,
    FunctionOracle,
    GrowthLabError,
    _ball_bound,
    _overflowing_norm,
    _pair_rows,
    _project_rows,
    _row_norms,
    pairing,
)

__all__ = [
    "MAX_GRID_DIM",
    "AllInfinite",
    "NonFiniteValue",
    "SolverConfig",
    "TiltedSolveResult",
    "ball_grid",
    "compose_oracle",
    "argmin_ball",
    "argmin_tilted",
    "argmin_perturbed",
]

MAX_GRID_DIM = 4

# Polish: starts per problem (its best finite grid cells), sweep cap per
# start, and the step length below which a start stops.
MULTISTART_COUNT = 8
POLISH_MAX_ITERS = 200
POLISH_STEP_TOLERANCE = 1e-10

# Candidate rows per polish batch: each start's sweep and its halved sweeps.
POLISH_ROW_BUDGET = 64

# Widening of a problem's pool of grid points near its grid minimum m, in
# units of 1 + |m|: many times the rounding error of the minimizer cut.
POOL_SLACK = 16.0 * np.finfo(float).eps

# Near-optimal points closer than this in every coordinate are one minimizer.
MINIMIZER_SPACING = 1e-12


class AllInfinite(GrowthLabError):
    """The oracle returned +inf at every sampled point of the region; with
    ``NonFiniteValue``, the library's only error for improper oracle values."""


class NonFiniteValue(GrowthLabError, ValueError):
    """The oracle returned NaN or -inf, which no proper objective may do;
    with ``AllInfinite``, the library's only error for improper oracle
    values.  Raised by ``_check_values`` alone, and also a ``ValueError``."""


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the grid scan and the direct-search polish."""

    grid_points_per_axis: int = 201
    minimizer_value_tolerance: float = 1e-9

    def __post_init__(self) -> None:
        if self.grid_points_per_axis < 3:
            raise ValueError("grid_points_per_axis must be >= 3")
        tol = self.minimizer_value_tolerance
        if not 0.0 < tol <= 0.5:
            raise ValueError(f"minimizer_value_tolerance must lie in (0, 0.5], got {tol}")


@dataclass(frozen=True)
class TiltedSolveResult:
    """Every near-optimal point found, the best value, and the work done.

    ``minimizers`` holds all points whose value is within the configured
    relative tolerance of ``min_value``, sorted lexicographically, less each
    point within ``MINIMIZER_SPACING`` in every coordinate of the last *kept*
    point: a chain of closer points keeps both of its ends.  Callers that
    need a single point take ``representative``.
    """

    minimizers: Tuple[np.ndarray, ...]
    min_value: float
    evaluations: int

    @property
    def representative(self) -> np.ndarray:
        """Lexicographically smallest minimizer (deterministic tie-break)."""
        return self.minimizers[0]


def ball_grid(region: BallRegion, points_per_axis: int) -> np.ndarray:
    """Grid points of the bounding cube that lie inside the ball.

    The grid is laid over ``[center - r, center + r]^d``; points outside
    the ball are dropped, not projected, to avoid biasing density toward
    the boundary.  Rows are in row-major axis order (deterministic).
    """
    return _ball_grid(tuple(region.center), region.radius, points_per_axis).copy()


@lru_cache(maxsize=16)
def _ball_grid(center: Tuple[float, ...], radius: float, points_per_axis: int) -> np.ndarray:
    # Memoized, read-only: ``estimate_growth``, each stacked solve (which
    # scans the grid once for all of its tilts) and each prox step over one
    # ball share it.
    if points_per_axis < 3:
        raise ValueError("points_per_axis must be >= 3")
    d = len(center)
    if d > MAX_GRID_DIM:
        raise ValueError(f"grid scan supports dimension <= {MAX_GRID_DIM}, got {d}")
    # BallRegion refuses a radius whose bound squares to inf, so only a
    # distance above the radius can overflow: its cube corner is dropped
    with np.errstate(over="ignore"):
        axes = [np.linspace(c - radius, c + radius, points_per_axis) for c in center]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        dist = np.linalg.norm(pts - np.array(center), axis=1)
    keep = dist <= _ball_bound(radius)
    pts = pts[keep]
    pts.flags.writeable = False
    return pts


def _check_values(values: np.ndarray, points: np.ndarray, descriptor: str) -> None:
    """Raise ``NonFiniteValue`` naming the first NaN or ``-inf`` of ``values``
    and its row of ``points``; one ``min`` pass when there is none."""
    if values.size == 0 or np.minimum.reduce(values) > -math.inf:
        return
    i = int(np.flatnonzero(np.isnan(values) | np.isneginf(values))[0])
    raise NonFiniteValue(f"oracle '{descriptor}' returned {values[i]} at {points[i]}")


def _checked_value(f: FunctionOracle, x: np.ndarray) -> float:
    """``f(x)``, refused by ``_check_values`` if NaN or ``-inf``."""
    value = f(x)
    _check_values(np.array([value]), x[None], f.descriptor)
    return value


def compose_oracle(
    f: FunctionOracle, term: Callable[[np.ndarray], np.ndarray], descriptor: str
) -> FunctionOracle:
    """The objective ``f + term`` with ``+inf`` absorbing, evaluated in batches.

    ``term`` maps an ``(m, d)`` array of points to ``(m,)`` values.  It is
    evaluated only on the points where ``f`` is below ``+inf``, and a
    ``+inf`` term value is kept whatever ``f`` is.  When no value of ``f``
    is ``+inf``, the sum is one whole-array pass with no gather or scatter
    of the points.  The perturbed and proximal objectives, whose terms can
    be ``+inf``, are built here; tilt terms are finite, and the solver
    subtracts them without this rule, so a stack of tilts shares one scan.
    """

    def batch(points: np.ndarray) -> np.ndarray:
        values = f.evaluate_rows(points)
        live = values != math.inf
        count = np.count_nonzero(live)
        if not count:
            return values
        if count == len(values):
            extra = term(points)
            return np.where(extra == math.inf, extra, values + extra)
        extra = term(points[live])
        values[live] = np.where(extra == math.inf, extra, values[live] + extra)
        return values

    return FunctionOracle.from_batch(batch, descriptor)


def _sphere_axis(points: np.ndarray, region: BallRegion, i: int) -> np.ndarray:
    """Vector ``i`` of an orthonormal basis at each row of ``points``, a
    point on the ball's sphere, as an ``(m, d)`` array.

    Vector 0 is the outward normal ``n = (x - center) / radius``.  The others
    span the tangent space: they are the columns ``e_i - n_i v / (1 + |n_0|)``
    of the Householder reflection ``I - 2 v v^T / |v|^2`` with
    ``v = n + sign(n_0) e_0``, which maps ``e_0`` to ``-sign(n_0) n``; the
    sign keeps ``|v|^2 = 2 (1 + |n_0|)`` away from zero.  Elementwise, free
    of BLAS.
    """
    n = (points - region.center) / region.radius
    if i == 0:
        return n
    coef = n[:, i] / (1.0 + np.abs(n[:, 0]))
    n[:, 0] += np.where(n[:, 0] >= 0.0, 1.0, -1.0)
    axis = -coef[:, None] * n
    axis[:, i] += 1.0
    return axis


def _polish(
    f: FunctionOracle,
    starts: np.ndarray,
    start_values: np.ndarray,
    tilts: Optional[np.ndarray],
    region: BallRegion,
    step0: float,
    descriptor: str,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projected direct search with shrinking steps from each row of
    ``starts``, all starts advanced in lockstep.

    Start ``k`` minimizes ``f - <tilts[k], .>``, or ``f`` when ``tilts`` is
    None.  Each start follows the trajectory it would follow alone: a sweep
    steps along the ``d`` vectors of an orthonormal basis, and at each the
    ``+step`` candidate is tried before the ``-step`` one and a candidate is
    taken only if strictly better; after a sweep without improvement the
    start's step halves, and the start stops once its step falls below
    ``POLISH_STEP_TOLERANCE`` or after ``POLISH_MAX_ITERS`` sweeps.
    Candidates outside the ball are projected radially onto it.

    The basis is the coordinate axes, except for a start on the sphere in
    dimension ``d >= 2``: there it is the outward normal and ``d - 1``
    tangent directions (``_sphere_axis``), so the start can slide along the
    sphere at its full step.  Coordinate steps there would be projected
    back, and a boundary minimizer would be approached only by a factor of
    about ``1 / (1 + step)`` per sweep, every sweep a small improvement, so
    the step would never halve.  A start is on the sphere when its distance
    from the center reaches the radius at the outset, and afterwards when
    the candidate it last took was one the projection moved.  In 1-D the
    sphere is two points with no tangent, and every start steps along the
    axis.

    The candidates of all running starts at one basis vector are evaluated
    in one batch, and their tilt terms are subtracted in one elementwise
    pairing, which rounds each candidate alike whatever rows share the
    batch.  The batch also carries each start's sweeps at its step halved
    1 to ``depth - 1`` times: ``depth`` is ``POLISH_ROW_BUDGET // (2 n)``
    for ``n`` running starts, at least 1, so a stack of more than 16 starts
    runs at depth 1.  Each halved sweep begins at the start's point and
    value and takes its own improving candidates, as the start's own sweep
    does.  A start whose sweep stalls goes on as the sequential search
    would: each halved sweep before the first that improved is a stalled
    sweep, and the start moves to the end of that one.  Points, values,
    sweeps and evaluations are the sequential search's, bitwise.  A NaN or
    ``-inf`` raises in a start's own sweep, and in a halved sweep only if
    the start goes on to use it.  The oracle is called at points the search
    never uses, so ``evaluate`` must be pure and a row's value must not
    depend on the other rows of its batch.  Returns the polished points and
    values and the candidates each start evaluated.
    """
    x = np.array(starts, dtype=float)
    fx = np.array(start_values, dtype=float)
    d = x.shape[1]
    sweeps = np.full(len(x), POLISH_MAX_ITERS)
    ahead = np.zeros(len(x), dtype=int)  # the sweeps each start took at halved steps
    # the running starts: rows of x and tilts; row l * n + k of X, F, S, SP
    # is start k's sweep at step / 2**l: its point, value, step and sphere flag
    ids, run_tilts = np.arange(len(x)), tilts
    X, F, S = x.copy(), fx.copy(), np.full(len(x), float(step0))
    SP = None if d == 1 else _row_norms(x - region.center) >= region.radius
    n, most_ahead, cand_tilts = 0, 0, None

    for sweep in range(POLISH_MAX_ITERS):
        if ids.size == 0:
            break
        if ids.size != n:
            n = ids.size
            depth = max(1, POLISH_ROW_BUDGET // (2 * n))
            halves = 0.5 ** np.arange(1, depth)[:, None]
            if depth > 1:  # room for the halved sweeps' rows
                X, F, S = [np.concatenate([A] * depth) for A in (X, F, S)]
                SP = None if SP is None else np.concatenate([SP] * depth)
            if run_tilts is not None:  # candidate rows 2r and 2r+1: row r's tilt
                cand_tilts = np.concatenate([run_tilts.repeat(2, axis=0)] * depth)
            fs, steps = F[:n], S[:n]
        if depth > 1:  # every halved sweep begins where its start's sweep does
            X.reshape(depth, n, d)[1:] = X[:n]
            F.reshape(depth, n)[1:] = fs
            S.reshape(depth, n)[1:] = steps * halves
            if SP is not None:
                SP.reshape(depth, n)[1:] = SP[:n]
        improved = np.zeros(depth * n, dtype=bool)
        bad = {}  # row -> (basis vector, start, values, points) of its first NaN or -inf
        for i in range(d):
            # rows 2r and 2r+1 are the +step and -step candidates of row r
            cand = X.repeat(2, axis=0)
            cand[0::2, i] += S
            cand[1::2, i] -= S
            if SP is not None and np.count_nonzero(SP):
                rows = X[SP]
                move = S[SP, None] * _sphere_axis(rows, region, i)
                cand[0::2][SP] = rows + move
                cand[1::2][SP] = rows - move
            cand, moved = _project_rows(region, cand)
            vals = f.evaluate_rows(cand)
            if cand_tilts is not None:
                vals -= _pair_rows(cand, cand_tilts)
            if not np.minimum.reduce(vals) > -math.inf:
                _check_values(vals[: 2 * n], cand, descriptor)
                for r in (np.flatnonzero(np.isnan(vals) | np.isneginf(vals)) // 2).tolist():
                    bad.setdefault(r, (i, r % n, vals[2 * r : 2 * r + 2], cand[2 * r : 2 * r + 2]))
            plus, minus = vals[0::2], vals[1::2]
            took = (np.minimum(plus, minus) < F).nonzero()[0]
            if took.size:  # the better of the two, +step on a tie
                pick = 2 * took + (minus[took] < plus[took])
                X[took] = cand[pick]
                F[took] = vals[pick]
                if SP is not None:
                    SP[took] = moved[pick]
                improved[took] = True
        stalled = ~improved[:n]
        if np.count_nonzero(stalled):
            steps[stalled] *= 0.5
            if depth > 1:
                # a stalled start goes on to its halved sweeps in order: each
                # that stalled counts as a sweep, the first that improved ends it
                gains, step_list, extra = improved.tolist(), steps.tolist(), ahead[ids].tolist()
                raised = []
                for k in stalled.nonzero()[0].tolist():
                    step, count = step_list[k], sweep + 1 + extra[k]
                    for row in range(n + k, depth * n, n):
                        if step < POLISH_STEP_TOLERANCE or count >= POLISH_MAX_ITERS:
                            break
                        if row in bad:
                            raised.append((count, *bad[row]))
                            break
                        count += 1
                        if gains[row]:
                            X[k], fs[k] = X[row], F[row]
                            if SP is not None:
                                SP[k] = SP[row]
                            break
                        step *= 0.5
                    step_list[k], extra[k] = step, count - sweep - 1
                if raised:  # the first in the sequential order
                    _check_values(*min(raised)[3:], descriptor)
                steps[:], ahead[ids] = step_list, extra
                most_ahead = max(most_ahead, max(extra))
        done = stalled & (steps < POLISH_STEP_TOLERANCE)
        if most_ahead and sweep + 1 + most_ahead >= POLISH_MAX_ITERS:
            done |= ahead[ids] >= POLISH_MAX_ITERS - sweep - 1
        if np.count_nonzero(done):
            gone = ids[done]
            x[gone], fx[gone], sweeps[gone] = X[:n][done], fs[done], sweep + 1
            keep = ~done
            ids, X, F, S = ids[keep], X[:n][keep], fs[keep], steps[keep]
            if SP is not None:
                SP = SP[:n][keep]
            if run_tilts is not None:
                run_tilts = run_tilts[keep]
    x[ids], fx[ids] = X[: ids.size], F[: ids.size]
    return x, fx, 2 * d * (sweeps + ahead)


def _smallest(values: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(values, kind="stable")[:k]`` for NaN-free ``values``,
    ties in index order included, from a partition instead of a full
    sort."""
    if k == 0:
        return np.zeros(0, dtype=np.intp)
    kth = np.partition(values, k - 1)[k - 1]
    below = np.flatnonzero(values <= kth)
    return below[np.argsort(values[below], kind="stable")[:k]]


def _solve(
    f: FunctionOracle,
    tilts: Optional[np.ndarray],
    region: BallRegion,
    cfg: SolverConfig,
    descriptor: str,
) -> Tuple[TiltedSolveResult, ...]:
    """Minimize ``f - <xi, .>`` over the ball for each row ``xi`` of
    ``tilts``, or ``f`` itself when ``tilts`` is None, all in lockstep.

    ``f`` is evaluated on the grid once.  Each problem's grid values are
    formed once, on their own: they give its multistarts and a pool of the
    grid points near its grid minimum.  All starts are polished in one
    loop.  One pass over the stack of all pools and polished points takes
    each problem's minimum by a segmented reduction, cuts, sorts by problem
    and then lexicographically, and drops near-duplicates (``_kept_rows``),
    bitwise as a pass over each problem alone.  No array holds the grid
    values of more than one problem.

    The pool holds every grid point the final cut can keep: the polished
    minimum is at most the grid minimum, and for a tolerance of at most
    1/2 the cut ``m + tol * (1 + |m|)`` grows with the minimum ``m``.  The
    pool is the cells where ``f`` is finite (a cut near the largest float
    can overflow) within the grid minimum's cut widened by ``POOL_SLACK``,
    which covers the cut's rounding.

    Tilts are finite and pair finitely with every point of the ball
    (``argmin_tilted`` checks them), so a tilt's grid values are
    ``base - pairing(xi, pts)``, one ``pairing`` call per tilt, which the
    benchmark's self-check counts, with no mask: ``+inf`` minus a finite
    number stays ``+inf``.  ``AllInfinite`` is checked on ``base`` once per
    stack.  ``argmin_ball`` passes no tilt: a zero tilt is slower and turns
    a ``-0.0`` minimum into ``+0.0``.
    """
    pts = _ball_grid(tuple(region.center), region.radius, cfg.grid_points_per_axis)
    base = f.evaluate_rows(pts)
    finite = base != math.inf
    n_finite = int(np.count_nonzero(finite))
    if n_finite == 0:
        raise AllInfinite(
            f"oracle '{descriptor}' is +inf at all {len(pts)} sampled points "
            f"of the ball around {region.center}"
        )
    tol = cfg.minimizer_value_tolerance

    starts, start_values, counts, pools = [], [], [], []
    for xi in [None] if tilts is None else tilts:
        values = base if xi is None else base - pairing(xi, pts)
        low = values.min()
        if not low > -math.inf:  # a NaN or -inf, named by the full check
            _check_values(values, pts, descriptor)
        # +inf sorts last: the best finite cells, ties in grid order
        order = _smallest(values, min(MULTISTART_COUNT, n_finite))
        starts.append(pts[order])
        start_values.append(values[order])
        counts.append(order.size)
        pool = np.flatnonzero(finite & (values <= low + (tol + POOL_SLACK) * (1.0 + abs(low))))
        pools.append((pool, values[pool]))
    spacing = 2.0 * region.radius / (cfg.grid_points_per_axis - 1)
    problems = np.arange(len(pools))
    start_problem = np.repeat(problems, counts)
    start_tilts = None if tilts is None else tilts[start_problem]
    x, fx, used = _polish(
        f, np.concatenate(starts), np.concatenate(start_values), start_tilts,
        region, spacing, descriptor,
    )

    # every pool, then every polished point: a problem's rows in the order of its own pass
    problem = np.concatenate([np.repeat(problems, [len(p) for p, _ in pools]), start_problem])
    stack_pts = np.concatenate([pts[np.concatenate([p for p, _ in pools])], x])
    stack_vals = np.concatenate([v for _, v in pools] + [fx])
    sizes = np.bincount(problem, minlength=len(problems))
    by_problem = stack_vals[np.argsort(problem, kind="stable")]
    min_values = np.minimum.reduceat(by_problem, np.cumsum(sizes) - sizes)
    near = np.flatnonzero(stack_vals <= (min_values + tol * (1.0 + np.abs(min_values)))[problem])
    near = near[np.lexsort((*stack_pts[near].T[::-1], problem[near]))]
    kept = near[_kept_rows(problem[near].tolist(), stack_pts[near].tolist())]
    minimizers = stack_pts[kept]
    ends = np.searchsorted(problem[kept], problems, side="right").tolist()
    evaluations = np.bincount(start_problem, used, len(problems)).tolist()
    return tuple(
        TiltedSolveResult(tuple(minimizers[start:end]), value, len(pts) + int(n))
        for start, end, value, n in zip([0] + ends, ends, min_values.tolist(), evaluations)
    )


def _kept_rows(problems: List[int], rows: List[List[float]]) -> List[int]:
    """Indices of the sorted rows each farther than ``MINIMIZER_SPACING``, in some
    coordinate, from its problem's last kept row."""
    kept: List[int] = []
    last_problem, last = -1, None
    for i, (t, row) in enumerate(zip(problems, rows)):
        if t == last_problem:
            for a, b in zip(row, last):
                if abs(a - b) > MINIMIZER_SPACING:
                    break
            else:  # within the spacing in every coordinate
                continue
        kept.append(i)
        last_problem, last = t, row
    return kept


def argmin_ball(
    f: FunctionOracle, region: BallRegion, cfg: SolverConfig
) -> TiltedSolveResult:
    """Global minimization of ``f`` over the closed ball.

    Dense grid scan, then direct-search polish from the
    ``MULTISTART_COUNT`` best grid cells.  All near-optimal points found
    are reported, not just one: downstream estimators quantify over every
    minimizer and must see the worst witness.
    """
    return _solve(f, None, region, cfg, f.descriptor)[0]


def argmin_tilted(
    f: FunctionOracle, tilts, region: BallRegion, cfg: SolverConfig
) -> Tuple[TiltedSolveResult, ...]:
    """Minimize the linearly tilted objective ``f(y) - <xi, y>`` over the
    ball for each row ``xi`` of the ``(T, d)`` array-like ``tilts``.

    Gives a tuple of T results, in stack order, each bitwise equal to
    solving its tilt in a stack of one: ``f`` is evaluated on the grid once
    for the whole stack, and every tilt's multistarts are polished in one
    lockstep loop.  Each result's ``evaluations`` counts the grid points plus that
    tilt's own polish candidates.  One rule checks the stack before ``f``
    is evaluated: it has shape ``(T, d)`` and finite entries, and no tilt's
    squared norm, or its pairing with a point of the ball, overflows.
    """
    tilts = np.array(tilts, dtype=float)
    if tilts.ndim != 2 or tilts.shape[1] != region.dim:
        raise ValueError(f"expected tilts of shape (T, {region.dim}), got {tilts.shape}")
    if not np.all(np.isfinite(tilts)):
        raise ValueError("tilt entries must be finite (no NaN/inf)")
    # |<xi, y>| <= |xi| |y|, and |y| <= reach in the ball
    reach = math.hypot(*region.center.tolist()) + _ball_bound(region.radius)
    nrm = _overflowing_norm(tilts, reach)
    if nrm is not None:
        raise ValueError(
            f"tilt norm {nrm} is too large for the ball of radius {region.radius}: "
            "its square or its pairing with a point of the ball overflows"
        )
    if len(tilts) == 0:
        return ()
    return _solve(f, tilts, region, cfg, f"{f.descriptor} - <xi,.>")


def argmin_perturbed(
    f: FunctionOracle, g: FunctionOracle, region: BallRegion, cfg: SolverConfig
) -> TiltedSolveResult:
    """Minimize ``f + g`` over the ball; ``+inf`` is absorbing in the sum."""
    oracle = compose_oracle(f, g.evaluate_rows, f"{f.descriptor} + {g.descriptor}")
    return argmin_ball(oracle, region, cfg)
