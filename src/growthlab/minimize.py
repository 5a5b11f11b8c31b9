"""Ball-constrained global minimization.

The primitive behind every "minimize over a closed ball" statement in the
package: a dense axis-aligned grid scan over the ball's bounding cube,
followed by projected coordinate-descent polish from the best grid cells.
Correctness of the minimizer set is the design goal; the grid dimension is
capped at 4.  Oracles are evaluated a batch of points at a time: the whole
grid in one call, then the candidates of all polish starts at each
coordinate step in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .core import BallRegion, FunctionOracle, GrowthLabError, as_vector, pairing

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


class AllInfinite(GrowthLabError):
    """The oracle returned +inf at every sampled point of the region."""


class NonFiniteValue(GrowthLabError):
    """The oracle returned NaN or -inf, which no proper objective may do."""


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the grid scan and the coordinate-descent polish."""

    grid_points_per_axis: int = 201
    multistart_count: int = 8
    polish_max_iters: int = 200
    polish_step_tolerance: float = 1e-10
    minimizer_value_tolerance: float = 1e-9

    def __post_init__(self) -> None:
        if self.grid_points_per_axis < 3:
            raise ValueError("grid_points_per_axis must be >= 3")
        if self.multistart_count < 0:
            raise ValueError("multistart_count must be >= 0")
        for name in ("polish_step_tolerance", "minimizer_value_tolerance"):
            val = getattr(self, name)
            if not (val > 0.0 and math.isfinite(val)):
                raise ValueError(f"{name} must be positive and finite, got {val}")


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
    if points_per_axis < 3:
        raise ValueError("points_per_axis must be >= 3")
    d = region.dim
    if d > MAX_GRID_DIM:
        raise ValueError(f"grid scan supports dimension <= {MAX_GRID_DIM}, got {d}")
    axes = [
        np.linspace(c - region.radius, c + region.radius, points_per_axis)
        for c in region.center
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    dist = np.linalg.norm(pts - region.center, axis=1)
    keep = dist <= region.radius + BALL_SLACK * max(1.0, region.radius)
    return pts[keep]


def _check_values(values: np.ndarray, points: np.ndarray, descriptor: str) -> None:
    bad = np.isnan(values) | np.isneginf(values)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise NonFiniteValue(
            f"oracle '{descriptor}' returned {values[i]} at {points[i]}"
        )


def compose_oracle(
    f: FunctionOracle, term: Callable[[np.ndarray], np.ndarray], descriptor: str
) -> FunctionOracle:
    """The objective ``f + term`` with ``+inf`` absorbing, evaluated in batches.

    ``term`` maps an ``(m, d)`` array of points to ``(m,)`` values.  It is
    evaluated only on the points where ``f`` is below ``+inf``, and a
    ``+inf`` term value is kept whatever ``f`` is.  The tilted, perturbed
    and proximal objectives are all built here.
    """

    def batch(points: np.ndarray) -> np.ndarray:
        values = f.evaluate_rows(points)
        live = values != math.inf
        if live.any():
            extra = term(points[live])
            values[live] = np.where(extra == math.inf, extra, values[live] + extra)
        return values

    return FunctionOracle.from_batch(batch, descriptor)


def _polish(
    f: FunctionOracle,
    starts: np.ndarray,
    start_values: np.ndarray,
    region: BallRegion,
    step0: float,
    cfg: SolverConfig,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Projected coordinate descent with shrinking steps from each row of
    ``starts``, all starts advanced in lockstep.

    Each start follows the trajectory it would follow alone: at every
    coordinate the ``+step`` candidate is tried before the ``-step`` one and
    a candidate is taken only if strictly better; after a sweep without
    improvement the start's step halves, and the start stops once its step
    falls below the tolerance.  The candidates of all running starts at one
    coordinate are evaluated in one batch.
    """
    x = np.array(starts, dtype=float)
    fx = np.array(start_values, dtype=float)
    step = np.full(len(x), float(step0))
    running = np.ones(len(x), dtype=bool)
    evals = 0
    for _ in range(cfg.polish_max_iters):
        idx = np.flatnonzero(running)
        if idx.size == 0:
            break
        improved = np.zeros(idx.size, dtype=bool)
        steps = step[idx]
        for i in range(x.shape[1]):
            # rows 2k and 2k+1 are the +step and -step candidates of start idx[k]
            cand = np.repeat(x[idx], 2, axis=0)
            cand[0::2, i] += steps
            cand[1::2, i] -= steps
            cand = region.project_rows(cand)
            vals = f.evaluate_rows(cand)
            evals += len(cand)
            _check_values(vals, cand, f.descriptor)
            plus, minus = vals[0::2], vals[1::2]
            take_plus = plus < fx[idx]
            take_minus = minus < np.where(take_plus, plus, fx[idx])
            take = take_plus | take_minus
            if take.any():
                x[idx[take]] = np.where(take_minus[:, None], cand[1::2], cand[0::2])[take]
                fx[idx[take]] = np.where(take_minus, minus, plus)[take]
                improved |= take
        stalled = idx[~improved]
        step[stalled] *= 0.5
        running[stalled[step[stalled] < cfg.polish_step_tolerance]] = False
    return x, fx, evals


def argmin_ball(
    f: FunctionOracle, region: BallRegion, cfg: SolverConfig
) -> TiltedSolveResult:
    """Global minimization of ``f`` over the closed ball.

    Dense grid scan, then coordinate-descent polish from the
    ``multistart_count`` best grid cells.  All near-optimal points found
    are reported, not just one: downstream estimators quantify over every
    minimizer and must see the worst witness.
    """
    pts = ball_grid(region, cfg.grid_points_per_axis)
    values = f.evaluate_rows(pts)
    evaluations = len(pts)
    _check_values(values, pts, f.descriptor)

    finite = np.isfinite(values)
    if not np.any(finite):
        raise AllInfinite(
            f"oracle '{f.descriptor}' is +inf at all {len(pts)} sampled points "
            f"of the ball around {region.center}"
        )

    pool_pts = pts[finite]
    pool_vals = values[finite]

    n_starts = min(cfg.multistart_count, len(pool_vals))
    if n_starts > 0:
        order = np.argsort(pool_vals, kind="stable")[:n_starts]
        spacing = 2.0 * region.radius / (cfg.grid_points_per_axis - 1)
        # polished points join the pool in start order
        x, fx, used = _polish(f, pool_pts[order], pool_vals[order], region, spacing, cfg)
        evaluations += used
        pool_pts = np.concatenate([pool_pts, x])
        pool_vals = np.concatenate([pool_vals, fx])

    min_value = float(pool_vals.min())
    cut = min_value + cfg.minimizer_value_tolerance * (1.0 + abs(min_value))
    near = pool_pts[pool_vals <= cut]

    order = np.lexsort(near.T[::-1])
    minimizers: List[np.ndarray] = []
    for i in order:
        if minimizers and np.max(np.abs(near[i] - minimizers[-1])) <= 1e-12:
            continue
        minimizers.append(near[i])
    return TiltedSolveResult(tuple(minimizers), min_value, evaluations)


def argmin_tilted(
    f: FunctionOracle, xi, region: BallRegion, cfg: SolverConfig
) -> TiltedSolveResult:
    """Minimize the linearly tilted objective ``f(y) - <xi, y>`` over the ball."""
    xi = as_vector(xi, region.dim)
    oracle = compose_oracle(f, lambda y: -pairing(xi, y), f"{f.descriptor} - <xi,.>")
    return argmin_ball(oracle, region, cfg)


def argmin_perturbed(
    f: FunctionOracle, g: FunctionOracle, region: BallRegion, cfg: SolverConfig
) -> TiltedSolveResult:
    """Minimize ``f + g`` over the ball; ``+inf`` is absorbing in the sum."""
    oracle = compose_oracle(f, g.evaluate_rows, f"{f.descriptor} + {g.descriptor}")
    return argmin_ball(oracle, region, cfg)
