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
one call.  A stack of tilted problems shares that grid scan and that polish
loop.  Each problem's grid values are formed once, to pick its starts and
to keep the pool of grid points near its grid minimum; its minimizer set is
cut from that pool and its polished points.  A tilt term ``-<xi, y>`` is
finite and is subtracted with no mask (``+inf`` minus a finite number stays
``+inf``); terms that can be ``+inf`` are added by ``compose_oracle``, the
one home of the ``+inf``-absorbing sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .core import (
    BallRegion,
    FunctionOracle,
    GrowthLabError,
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

# Closed-ball membership slack, absorbs rounding at the boundary.
BALL_SLACK = 1e-12

# Largest grid-scan keep bound whose square is finite (about 1.34e154).
GRID_BOUND_LIMIT = math.sqrt(np.finfo(float).max)

# Polish: starts per problem (its best finite grid cells), sweep cap per
# start, and the step length below which a start stops.
MULTISTART_COUNT = 8
POLISH_MAX_ITERS = 200
POLISH_STEP_TOLERANCE = 1e-10

# Widening of a problem's pool of grid points near its grid minimum m, in
# units of 1 + |m|: many times the rounding error of the minimizer cut.
POOL_SLACK = 16.0 * np.finfo(float).eps


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
    relative tolerance of ``min_value``, sorted lexicographically; callers
    that need a single point take ``representative``.
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
    bound = radius + BALL_SLACK * max(1.0, radius)
    if bound > GRID_BOUND_LIMIT:
        # a point of the ball could overflow its distance and be dropped
        raise ValueError(
            f"the ball of radius {radius} is too large for a grid scan: "
            f"its squared radius overflows"
        )
    # only a distance above the radius can overflow here: its cube corner
    # is dropped as an inf
    with np.errstate(over="ignore"):
        axes = [np.linspace(c - radius, c + radius, points_per_axis) for c in center]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        dist = np.linalg.norm(pts - np.array(center), axis=1)
    keep = dist <= bound
    pts = pts[keep]
    pts.flags.writeable = False
    return pts


def _check_values(values: np.ndarray, points: np.ndarray, descriptor: str) -> None:
    """Raise ``NonFiniteValue`` naming the first NaN or ``-inf`` of ``values``
    and its row of ``points``; one ``min`` pass when there is none."""
    if values.size == 0 or values.min() > -math.inf:
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
        if not live.any():
            return values
        if live.all():
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
    ``POLISH_STEP_TOLERANCE``.  Candidates outside the ball are projected
    radially onto it.

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
    batch.  The running starts' points, values, steps, sphere flags and
    candidate tilts are kept in arrays of their own, compacted when starts
    stop.  Returns the polished points and values and the number of
    candidates each start evaluated.
    """
    x = np.array(starts, dtype=float)
    fx = np.array(start_values, dtype=float)
    d = x.shape[1]
    sweeps = np.full(len(x), POLISH_MAX_ITERS)
    # the running starts: their rows of x, points, values and steps
    ids = np.arange(len(x))
    xs, fs = x.copy(), fx.copy()
    steps = np.full(len(x), float(step0))
    sphere = None if d == 1 else _row_norms(x - region.center) >= region.radius
    # rows 2k and 2k+1 are the +step and -step candidates of running start k
    cand_tilts = None if tilts is None else np.repeat(tilts, 2, axis=0)
    for sweep in range(POLISH_MAX_ITERS):
        if ids.size == 0:
            break
        improved = np.zeros(ids.size, dtype=bool)
        for i in range(d):
            cand = xs.repeat(2, axis=0)
            cand[0::2, i] += steps
            cand[1::2, i] -= steps
            if sphere is not None and np.count_nonzero(sphere):
                rows = xs[sphere]
                move = steps[sphere, None] * _sphere_axis(rows, region, i)
                cand[0::2][sphere] = rows + move
                cand[1::2][sphere] = rows - move
            cand, moved = _project_rows(region, cand)
            vals = f.evaluate_rows(cand)
            if cand_tilts is not None:
                vals -= _pair_rows(cand, cand_tilts)
            _check_values(vals, cand, descriptor)
            plus, minus = vals[0::2], vals[1::2]
            take_plus = plus < fs
            take_minus = minus < np.minimum(plus, fs)
            took = (take_plus | take_minus).nonzero()[0]
            if took.size:
                pick = 2 * took + take_minus[took]
                xs[took] = cand[pick]
                fs[took] = vals[pick]
                if sphere is not None:
                    sphere[took] = moved[pick]
                improved[took] = True
        stalled = ~improved
        if not np.count_nonzero(stalled):
            continue
        steps[stalled] *= 0.5
        done = stalled & (steps < POLISH_STEP_TOLERANCE)
        if np.count_nonzero(done):
            gone = ids[done]
            x[gone], fx[gone], sweeps[gone] = xs[done], fs[done], sweep + 1
            keep = ~done
            ids, xs, fs, steps = ids[keep], xs[keep], fs[keep], steps[keep]
            if sphere is not None:
                sphere = sphere[keep]
            if cand_tilts is not None:
                cand_tilts = cand_tilts[np.repeat(keep, 2)]
    x[ids], fx[ids] = xs, fs
    return x, fx, 2 * d * sweeps


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
    loop, and each minimizer set is cut from the problem's pool and its
    polished points.  No array holds the grid values of more than one
    problem.

    The pool holds every grid point the final cut can keep: the polished
    minimum is at most the grid minimum, and for a tolerance of at most
    1/2 the cut ``m + tol * (1 + |m|)`` grows with the minimum ``m``.  The
    pool is the cells where ``f`` is finite (a cut near the largest float
    can overflow) within the grid minimum's cut widened by ``POOL_SLACK``,
    which covers the cut's rounding.

    Tilts are finite (``argmin_tilted`` checks them), so a tilt's grid values
    are ``base - pairing(xi, pts)``, one ``pairing`` call per tilt, which the
    benchmark's self-check counts, and ``AllInfinite`` is checked on ``base``
    once per stack.  Only a pairing that overflows (``|x| |xi|`` above about
    1.8e308) at a ``+inf`` cell differs from a masked subtraction: it gives
    NaN, and the solve raises ``NonFiniteValue``.  ``argmin_ball`` passes no
    tilt: a zero tilt is slower and turns a ``-0.0`` minimum into ``+0.0``.
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

    starts, start_values, offsets, pools = [], [], [0], []
    for xi in [None] if tilts is None else tilts:
        values = base if xi is None else base - pairing(xi, pts)
        low = values.min()
        if not low > -math.inf:  # a NaN or -inf, named by the full check
            _check_values(values, pts, descriptor)
        # +inf sorts last: the best finite cells, ties in grid order
        order = _smallest(values, min(MULTISTART_COUNT, n_finite))
        starts.append(pts[order])
        start_values.append(values[order])
        offsets.append(offsets[-1] + order.size)
        pool = np.flatnonzero(finite & (values <= low + (tol + POOL_SLACK) * (1.0 + abs(low))))
        pools.append((pool, values[pool]))
    spacing = 2.0 * region.radius / (cfg.grid_points_per_axis - 1)
    start_tilts = None if tilts is None else np.repeat(tilts, np.diff(offsets), axis=0)
    x, fx, used = _polish(
        f, np.concatenate(starts), np.concatenate(start_values), start_tilts,
        region, spacing, descriptor,
    )

    results = []
    for t, (pool, pool_values) in enumerate(pools):
        mine = slice(offsets[t], offsets[t + 1])
        # polished points join the pool in start order
        pool_pts = np.concatenate([pts[pool], x[mine]])
        pool_vals = np.concatenate([pool_values, fx[mine]])
        min_value = float(pool_vals.min())
        cut = min_value + tol * (1.0 + abs(min_value))
        near = pool_pts[pool_vals <= cut]

        minimizers: List[np.ndarray] = []
        for i in np.lexsort(near.T[::-1]):
            if minimizers and np.max(np.abs(near[i] - minimizers[-1])) <= 1e-12:
                continue
            minimizers.append(near[i])
        evaluations = len(pts) + int(used[mine].sum())
        results.append(TiltedSolveResult(tuple(minimizers), min_value, evaluations))
    return tuple(results)


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
    f: FunctionOracle, xi, region: BallRegion, cfg: SolverConfig
) -> Union[TiltedSolveResult, Tuple[TiltedSolveResult, ...]]:
    """Minimize the linearly tilted objective ``f(y) - <xi, y>`` over the ball.

    A 0-D or 1-D ``xi`` is one tilt and gives one ``TiltedSolveResult``.  A
    ``(T, d)`` array is a stack of tilts and gives a tuple of T results, in
    stack order, each bitwise equal to solving its tilt alone: ``f`` is
    evaluated on the grid once for the whole stack, and every tilt's
    multistarts are polished in one lockstep loop.  Each result's
    ``evaluations`` counts the grid points plus that tilt's own polish
    candidates.  One rule checks every form, a single tilt as a stack of
    one, before ``f`` is evaluated: each tilt needs ``d`` finite entries.
    """
    tilts = np.array(xi, dtype=float)
    single = tilts.ndim < 2
    tilts = np.atleast_2d(tilts)
    if tilts.ndim != 2 or tilts.shape[1] != region.dim:
        raise ValueError(
            f"expected a tilt of shape ({region.dim},) or (T, {region.dim}), got {np.shape(xi)}"
        )
    if not np.all(np.isfinite(tilts)):
        raise ValueError("tilt entries must be finite (no NaN/inf)")
    if len(tilts) == 0:
        return ()
    results = _solve(f, tilts, region, cfg, f"{f.descriptor} - <xi,.>")
    return results[0] if single else results


def argmin_perturbed(
    f: FunctionOracle, g: FunctionOracle, region: BallRegion, cfg: SolverConfig
) -> TiltedSolveResult:
    """Minimize ``f + g`` over the ball; ``+inf`` is absorbing in the sum."""
    oracle = compose_oracle(f, g.evaluate_rows, f"{f.descriptor} + {g.descriptor}")
    return argmin_ball(oracle, region, cfg)
