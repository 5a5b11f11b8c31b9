"""The p-power proximal point iteration with its convergence-rate audit.

Each step globally minimizes ``f + (eps/p) * |. - x_k|^p`` over the working
ball, so the recorded iterates are exact subproblem minimizers up to grid
resolution.  Under a known growth modulus ``gamma > eps`` the iterates
contract geometrically; ``audit_rates`` checks both the distance and the
value envelope at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .core import (
    BallRegion,
    ExponentPair,
    FunctionOracle,
    GrowthLabError,
    _norm,
    _row_norms,
    as_vector,
)
from .minimize import SolverConfig, TiltedSolveResult, _checked_value, argmin_ball, compose_oracle

__all__ = [
    "EpsilonNotBelowGamma",
    "ProxConfig",
    "ProxTrajectory",
    "RateRecord",
    "RateAudit",
    "prox_step",
    "run_prox",
    "audit_rates",
]

RATE_SLACK_ABS = 1e-8
RATE_SLACK_REL = 1e-6


class EpsilonNotBelowGamma(GrowthLabError):
    """The step parameter does not lie below the growth modulus, so the
    contraction bounds are vacuous and the audit refuses to run."""


@dataclass(frozen=True)
class ProxConfig:
    epsilon: float
    exponents: ExponentPair
    iterations: int
    region: BallRegion
    solver: SolverConfig

    def __post_init__(self) -> None:
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")


@dataclass(frozen=True)
class ProxTrajectory:
    """Iterates ``x_0..x_K``, their objective values, per-step solver
    metadata, and the ``config`` they were run with.  The iteration
    advances through the lexicographic representative of each
    subproblem's minimizer set."""

    points: Tuple[np.ndarray, ...]
    values: Tuple[float, ...]
    steps: Tuple[TiltedSolveResult, ...]
    config: ProxConfig


def prox_step(f: FunctionOracle, anchor, cfg: ProxConfig) -> TiltedSolveResult:
    """One proximal subproblem: minimize ``f + (eps/p)|. - anchor|^p`` over
    the working ball."""
    anchor = as_vector(anchor, cfg.region.dim)
    if not cfg.region.contains(anchor):
        raise ValueError("anchor must lie in the working ball")
    weight, p = cfg.epsilon / cfg.exponents.p, cfg.exponents.p
    oracle = compose_oracle(
        f,
        lambda y: weight * _row_norms(y - anchor) ** p,
        f"{f.descriptor} + prox",
    )
    return argmin_ball(oracle, cfg.region, cfg.solver)


def run_prox(f: FunctionOracle, x0, cfg: ProxConfig) -> ProxTrajectory:
    """Iterate the proximal step ``cfg.iterations`` times from ``x0``.

    Deep trajectories approach the minimizer geometrically; once subproblem
    value gaps fall below ``cfg.solver.minimizer_value_tolerance`` the
    near-optimal collection absorbs neighboring points and the lexicographic
    representative may jump.  Tighten that tolerance when late iterates must
    be resolved accurately.  A NaN or ``-inf`` value of ``f`` at ``x0``
    raises ``NonFiniteValue``, as one anywhere a step samples ``f`` does.
    """
    x = as_vector(x0, cfg.region.dim)
    if not cfg.region.contains(x):
        raise ValueError("x0 must lie in the working ball")
    points: List[np.ndarray] = [x]
    values: List[float] = [_checked_value(f, x)]
    steps: List[TiltedSolveResult] = []
    for _ in range(cfg.iterations):
        result = prox_step(f, x, cfg)
        x = result.representative
        points.append(x)
        values.append(f(x))
        steps.append(result)
    return ProxTrajectory(tuple(points), tuple(values), tuple(steps), cfg)


@dataclass(frozen=True)
class RateRecord:
    k: int
    actual_distance: float
    bound_distance: float
    margin_distance: float
    actual_gap: float
    bound_gap: float
    margin_gap: float


@dataclass(frozen=True)
class RateAudit:
    passed: bool
    rho: float
    records: Tuple[RateRecord, ...]


def audit_rates(traj: ProxTrajectory, gamma_ref: float, xbar, fbar: float) -> RateAudit:
    """Check the geometric envelopes on distances and value gaps.

    For every recorded iterate ``x_k`` the audit verifies, with a small
    absolute-plus-relative slack,

        |x_k - xbar|    <= rho^(k q/p) * |x_0 - xbar|
        f(x_k) - fbar   <= rho^(k q)   * (f(x_0) - fbar)

    with ``rho = epsilon / gamma_ref`` and the exponents ``p, q`` and
    ``epsilon`` the trajectory was run with, which requires ``epsilon``
    strictly below the growth modulus of reference.
    """
    if not (gamma_ref > 0.0 and math.isfinite(gamma_ref)):
        raise ValueError(f"gamma_ref must be positive and finite, got {gamma_ref}")
    epsilon, pq = traj.config.epsilon, traj.config.exponents
    if epsilon >= gamma_ref:
        raise EpsilonNotBelowGamma(
            f"epsilon={epsilon} must lie strictly below gamma_ref={gamma_ref}"
        )
    xbar = as_vector(xbar, traj.points[0].size)
    rho = epsilon / gamma_ref
    d0 = _norm(traj.points[0] - xbar)
    g0 = traj.values[0] - fbar

    records: List[RateRecord] = []
    passed = True
    for k, (x, v) in enumerate(zip(traj.points, traj.values)):
        bound_d = rho ** (k * pq.q / pq.p) * d0
        bound_g = rho ** (k * pq.q) * g0
        actual_d = _norm(x - xbar)
        actual_g = v - fbar
        ok_d = actual_d <= bound_d + RATE_SLACK_ABS + RATE_SLACK_REL * abs(bound_d)
        ok_g = actual_g <= bound_g + RATE_SLACK_ABS + RATE_SLACK_REL * abs(bound_g)
        passed = passed and ok_d and ok_g
        records.append(
            RateRecord(
                k,
                actual_d,
                bound_d,
                bound_d - actual_d,
                actual_g,
                bound_g,
                bound_g - actual_g,
            )
        )
    return RateAudit(passed, rho, tuple(records))
