"""Estimators and audits for the three growth-related constants.

Estimates the polynomial growth modulus, the tilt sub-stability constant,
and the Łojasiewicz-type constant of an objective at a strict local
minimizer, audits the algebraic relations that tie the three together, and
runs the nonlinear-perturbation and subdifferential-graph checks.

All estimators are sampling-based and one-sided: the growth modulus is
over-estimated (a finite grid can only miss bad points), the other two are
under-estimated (a finite tilt sample can only miss bad witnesses).  Audits
therefore carry the multiplicative slack factor ``SLACK_FACTOR``.

A tilt sample is solved as one stacked ``argmin_tilted`` call (one grid
scan, one lockstep polish) and becomes ``(minimizer, tilt)`` pairs in tilt
order, then minimizer order; ``run_diagnostics`` solves its sample once.
Each tilt inequality has one evidence rule, which its estimator and its
graph check share: pairs within ``BASE_POINT_EXCLUSION`` of the base point,
and for the value gap also rounding-level tilts, are skipped, and of the
rest the first pair with the strictly largest ratio wins.  The ratios come
from one whole-array pass: row norms, one ``evaluate_rows`` call where values
of f are needed, and the norms' powers taken as Python floats, so every
ratio is the one a loop over the pairs would compute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    BallRegion,
    ExponentPair,
    FunctionOracle,
    GrowthLabError,
    _check_norm_sample,
    _norm,
    _overflowing_norm,
    _row_norms,
    as_vector,
)
from .minimize import (
    AllInfinite,
    SolverConfig,
    _ball_grid,
    _check_values,
    _checked_value,
    argmin_perturbed,
    argmin_tilted,
)

__all__ = [
    "NegativeGap",
    "SlopeInfinite",
    "GrowthEstimate",
    "TiltEstimate",
    "LojaEstimate",
    "RelationCheck",
    "EquivalenceAudit",
    "DiagnosticsReport",
    "ProbeResult",
    "GraphCheck",
    "unit_directions",
    "estimate_growth",
    "estimate_tilt_constant",
    "estimate_loja_constant",
    "check_equivalence",
    "run_diagnostics",
    "metric_slope",
    "lipschitz_probe",
    "convex_probe",
    "sample_subdifferential_graph",
    "check_subregularity",
    "check_global_loja",
]

# Samples closer to the base point than this are skipped to avoid 0/0.
BASE_POINT_EXCLUSION = 1e-9

# Gap ratios below -NEGATIVE_GAP_TOLERANCE mean the base point is not a
# minimizer on the region; smaller negative ratios are rounding and clamp
# to zero.
NEGATIVE_GAP_TOLERANCE = 1e-10

# Multiplicative slack of every relation ``check_equivalence`` audits.
SLACK_FACTOR = 1.10

# Probe radius and directions of ``metric_slope``, and the directions' seed.
SLOPE_RADIUS = 1e-6
DEFAULT_SLOPE_DIRECTIONS = 64
SLOPE_SEED = 0

# Probe inequalities are quantified over exact minimizers; numerical ones
# carry solver wobble, absorbed by this absolute distance allowance.
PROBE_DISTANCE_SLACK = 1e-9

# The value-gap inequality treats a tilt norm at or below this fraction of
# the sample's largest tilt norm as zero: it is rounding left in a tilt meant
# to be zero, such as the middle point of np.linspace(-a, a, 2k + 1).
TILT_ROUNDING_RTOL = 64 * np.finfo(float).eps

# A sampled ``(point, tilt)`` pair of the subdifferential graph.
Pair = Tuple[np.ndarray, np.ndarray]


class NegativeGap(GrowthLabError):
    """A sampled value lies below the base value: the base point is not a
    minimizer on the region."""

    def __init__(self, message: str, point: np.ndarray):
        super().__init__(message)
        self.point = point


class SlopeInfinite(GrowthLabError):
    """The base point is outside the domain of the perturbation."""


@dataclass(frozen=True)
class GrowthEstimate:
    """Infimal normalized gap over the sampled region (over-estimate)."""

    gamma_hat: float
    witness: np.ndarray
    samples_used: int


@dataclass(frozen=True)
class TiltEstimate:
    """Worst distance-to-tilt-norm ratio over the ``(minimizer, tilt)`` pairs
    of sampled tilted problems that carry evidence (under-estimate)."""

    kappa_hat: float
    worst_tilt: np.ndarray
    worst_minimizer: np.ndarray


@dataclass(frozen=True)
class LojaEstimate:
    """Worst value-gap-to-tilt-norm ratio over the ``(minimizer, tilt)``
    pairs of sampled tilted problems that carry evidence (under-estimate)."""

    mu_hat: float
    worst_tilt: np.ndarray


@dataclass(frozen=True)
class RelationCheck:
    checked: bool
    passed: Optional[bool]
    slack: Optional[float]


@dataclass(frozen=True)
class EquivalenceAudit:
    """Consistency relations among the three estimated constants.

    Relations, each up to the multiplicative slack factor ``tau = SLACK_FACTOR``:
    ``kappa_vs_gamma``: kappa_hat <= tau * gamma_hat^(-q/p);
    ``mu_vs_kappa``:    mu_hat <= tau * kappa_hat (only when gamma_hat > 0);
    ``gamma_vs_mu``:    gamma_hat >= p^(-q) * mu_hat^(-1) / tau.
    Relations undefined at gamma_hat = 0 or mu_hat = 0 are reported as
    degenerate, not failed.
    """

    kappa_vs_gamma: RelationCheck
    mu_vs_kappa: RelationCheck
    gamma_vs_mu: RelationCheck
    tau: float
    degenerate: Tuple[str, ...]

    @property
    def all_pass(self) -> bool:
        checks = (self.kappa_vs_gamma, self.mu_vs_kappa, self.gamma_vs_mu)
        return all(c.passed for c in checks if c.checked)


@dataclass(frozen=True)
class DiagnosticsReport:
    growth: GrowthEstimate
    tilt: TiltEstimate
    loja: LojaEstimate
    audit: EquivalenceAudit
    exponents: ExponentPair
    region: BallRegion


def unit_directions(dim: int, count: int, seed=0) -> np.ndarray:
    """Deterministic unit directions: alternating signs in 1-D, equispaced
    angles in 2-D, seeded Gaussian draws normalized to the sphere above.

    Enlarging ``count`` extends the sample without disturbing the prefix
    (doubling, in 2-D), so evidence accumulates monotonically.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if dim == 1:
        return np.array([[1.0] if i % 2 == 0 else [-1.0] for i in range(count)])
    if dim == 2:
        angles = 2.0 * np.pi * np.arange(count) / count
        return np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    draws = np.random.default_rng(seed).standard_normal((count, dim))
    return draws / _row_norms(draws)[:, None]


def _require_centered(xbar, region: BallRegion) -> None:
    if np.max(np.abs(as_vector(xbar, region.dim) - region.center)) > 1e-12:
        raise ValueError("base point must coincide with the region center")


def _base_value(f: FunctionOracle, xbar: np.ndarray) -> float:
    fbar = _checked_value(f, xbar)
    if fbar == math.inf:  # the base point is outside the domain
        raise ValueError("objective must be finite at the base point")
    return fbar


def _first_largest(ratios: np.ndarray, floor: float) -> Optional[int]:
    """Index of the first largest of the ``ratios`` strictly above
    ``floor``, or None if none is: the pair a loop keeps when it replaces
    its best pair only by a strictly larger ratio.  NaN never wins."""
    above = ratios > floor
    if not above.any():
        return None
    return int(np.argmax(np.where(above, ratios, -math.inf)))


def estimate_growth(
    f: FunctionOracle,
    region: BallRegion,
    pq: ExponentPair,
    cfg: SolverConfig,
) -> GrowthEstimate:
    """Infimum of ``(f(x) - f(xbar)) / |x - xbar|^p`` over grid samples,
    where the base point ``xbar`` is the center of ``region``.

    Over-estimates the true growth modulus: a finite grid can only miss
    bad points.  Raises ``ValueError`` if no grid point lies farther than
    ``BASE_POINT_EXCLUSION`` from ``xbar``, ``NegativeGap`` if a sample lies
    strictly below the base value, which means ``xbar`` is not a minimizer
    on the region, and ``AllInfinite`` if no sample other than ``xbar`` has
    a finite value.
    """
    xbar = region.center
    fbar = _base_value(f, xbar)

    pts = _ball_grid(tuple(xbar), region.radius, cfg.grid_points_per_axis)
    dist = _row_norms(pts - xbar)
    keep = dist > BASE_POINT_EXCLUSION
    if not keep.any():
        raise ValueError(
            f"no grid point of the ball of radius {region.radius} lies farther "
            f"than {BASE_POINT_EXCLUSION} from its center"
        )
    pts, dist = pts[keep], dist[keep]

    values = f.evaluate_rows(pts)
    _check_values(values, pts, f.descriptor)
    finite = np.isfinite(values)
    if not np.any(finite):
        raise AllInfinite(
            f"oracle '{f.descriptor}' is +inf at all {len(pts)} sampled points "
            f"of the ball around {region.center} other than the base point"
        )
    ratios = (values[finite] - fbar) / dist[finite] ** pq.p
    witnesses = pts[finite]

    i = int(np.argmin(ratios))
    gamma_hat = float(ratios[i])
    if gamma_hat < -NEGATIVE_GAP_TOLERANCE:
        raise NegativeGap(
            f"f({witnesses[i]}) < f(base) by normalized gap {gamma_hat}: "
            "the base point is not a minimizer on the region",
            witnesses[i],
        )
    return GrowthEstimate(max(gamma_hat, 0.0), witnesses[i], len(ratios))


def _tilt_samples(
    dim: int,
    tilt_norms: Sequence[float],
    directions_per_norm: int,
    seed: int,
) -> np.ndarray:
    """Deterministic ``(T, dim)`` tilt sample: each norm times fresh directions."""
    _check_norm_sample("tilt", tilt_norms, "directions_per_norm", directions_per_norm)
    return np.concatenate([
        nrm * unit_directions(dim, directions_per_norm, seed=[seed, j])
        for j, nrm in enumerate(tilt_norms)
    ])


def _tilted_pairs(
    f: FunctionOracle, tilts: np.ndarray, region: BallRegion, cfg: SolverConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """``(minimizer, tilt)`` pairs of one stacked solve of a checked
    ``(T, d)`` tilt stack, in tilt order, then minimizer order, as an
    array of points and an array of their tilts."""
    results = argmin_tilted(f, tilts, region, cfg)
    points = np.reshape([x for result in results for x in result.minimizers], (-1, region.dim))
    counts = [len(result.minimizers) for result in results]
    return points, np.repeat(tilts, counts, axis=0)


def _power(base: float, e: float) -> float:
    """``base ** e`` by Python's float power, ``inf`` where it overflows."""
    try:
        return base**e
    except OverflowError:
        return math.inf


def _powers(norms: np.ndarray, e: float) -> np.ndarray:
    """``norms ** e`` by Python's float power, which numpy's array power
    need not match bitwise; ``inf`` where it overflows."""
    return np.array([_power(t, e) for t in norms.tolist()], dtype=float)


def _distance_ratios(
    points: np.ndarray, tilts: np.ndarray, xbar: np.ndarray, pq: ExponentPair
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evidence for ``|x - xbar| <= kappa |xi|^(q/p)``: the mask of the pairs
    ``(x, xi)`` farther than ``BASE_POINT_EXCLUSION`` from ``xbar``, their
    ratios ``|x - xbar| / |xi|^(q/p)`` (``inf`` at ``xi = 0``), tilt norms."""
    dist = _row_norms(points - xbar)
    keep = dist > BASE_POINT_EXCLUSION
    tilt_norms = _row_norms(tilts[keep])
    power = _powers(tilt_norms, pq.q / pq.p)
    with np.errstate(divide="ignore", invalid="ignore"):
        return keep, np.where(power > 0.0, dist[keep] / power, math.inf), tilt_norms


def _gap_ratios(
    points: np.ndarray, tilts: np.ndarray, f: FunctionOracle, xbar: np.ndarray, pq: ExponentPair
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evidence for ``f(x) - f(xbar) <= mu |xi|^q``: the mask of the pairs
    ``_distance_ratios`` keeps whose tilt norm is above rounding level next
    to the largest one sampled, their ratios ``(f(x) - f(xbar)) / |xi|^q``
    and tilt norms.  ``f(xbar)`` is checked before the pairs' values."""
    fbar = _base_value(f, xbar)
    tilt_norms = _row_norms(tilts)
    keep = _row_norms(points - xbar) > BASE_POINT_EXCLUSION
    keep &= tilt_norms > TILT_ROUNDING_RTOL * np.max(tilt_norms, initial=0.0)
    points, tilt_norms = points[keep], tilt_norms[keep]
    values = f.evaluate_rows(points) if len(points) else np.empty(0)
    _check_values(values, points, f.descriptor)
    with np.errstate(divide="ignore", invalid="ignore"):
        return keep, (values - fbar) / _powers(tilt_norms, pq.q), tilt_norms


def _tilt_estimate(
    points: np.ndarray, tilts: np.ndarray, xbar: np.ndarray, pq: ExponentPair
) -> TiltEstimate:
    keep, ratios, _ = _distance_ratios(points, tilts, xbar, pq)
    i = _first_largest(ratios, 0.0)
    if i is None:
        return TiltEstimate(0.0, np.zeros(xbar.size), xbar.copy())
    return TiltEstimate(float(ratios[i]), tilts[keep][i], points[keep][i])


def _loja_estimate(
    points: np.ndarray, tilts: np.ndarray, f: FunctionOracle, xbar: np.ndarray, pq: ExponentPair
) -> LojaEstimate:
    keep, ratios, _ = _gap_ratios(points, tilts, f, xbar, pq)
    i = _first_largest(ratios, 0.0)
    if i is None:
        return LojaEstimate(0.0, np.zeros(xbar.size))
    return LojaEstimate(float(ratios[i]), tilts[keep][i])


def estimate_tilt_constant(
    f: FunctionOracle,
    region: BallRegion,
    pq: ExponentPair,
    tilt_norms: Sequence[float],
    directions_per_norm: int,
    cfg: SolverConfig,
    seed: int = 0,
) -> TiltEstimate:
    """Worst ``|x - xbar| / |xi|^(q/p)`` over sampled tilted problems,
    where the base point ``xbar`` is the center of ``region``.

    Every reported minimizer farther than ``BASE_POINT_EXCLUSION`` from
    ``xbar`` contributes; the estimate is a lower bound on the true constant.
    """
    tilts = _tilt_samples(region.dim, tilt_norms, directions_per_norm, seed)
    return _tilt_estimate(*_tilted_pairs(f, tilts, region, cfg), region.center, pq)


def estimate_loja_constant(
    f: FunctionOracle,
    region: BallRegion,
    pq: ExponentPair,
    tilt_norms: Sequence[float],
    directions_per_norm: int,
    cfg: SolverConfig,
    seed: int = 0,
) -> LojaEstimate:
    """Worst ``(f(x) - f(xbar)) / |xi|^q`` over the pairs of sampled tilted
    problems that ``check_global_loja`` counts; ``xbar`` is the center of ``region``."""
    tilts = _tilt_samples(region.dim, tilt_norms, directions_per_norm, seed)
    return _loja_estimate(*_tilted_pairs(f, tilts, region, cfg), f, region.center, pq)


def check_equivalence(
    gamma_hat: float,
    kappa_hat: float,
    mu_hat: float,
    pq: ExponentPair,
) -> EquivalenceAudit:
    """Audit the relations among the growth, tilt and value-gap constants
    with multiplicative slack ``SLACK_FACTOR``.

    All three constants must come from the same objective, base point,
    region, and exponents.  A slack that overflows, or divides by a product
    that underflows to 0, is ``inf`` and fails; ``kappa_hat = 0`` gives
    ``kappa_vs_gamma`` a slack of 0.
    """
    g, k, m = gamma_hat, kappa_hat, mu_hat

    def relation(defined: bool, slack: Callable[[], float]) -> RelationCheck:
        # the slack is computed only where defined: no zero divisor
        if not defined:
            return RelationCheck(False, None, None)
        value = slack()
        return RelationCheck(True, value <= SLACK_FACTOR, value)

    degenerate: List[str] = []
    if not g > 0.0:
        degenerate.append("gamma_hat=0: kappa_vs_gamma and gamma_vs_mu undefined")
    elif not k > 0.0:
        degenerate.append("kappa_hat=0: mu_vs_kappa undefined")
    if m <= 0.0:
        degenerate.append("mu_hat=0: gamma_vs_mu undefined")
    return EquivalenceAudit(
        relation(g > 0.0, lambda: k * _power(g, pq.q / pq.p) if k > 0.0 else 0.0),
        relation(g > 0.0 and k > 0.0, lambda: m / k),
        relation(g > 0.0 and m > 0.0,
                 lambda: pq.p ** (-pq.q) / (m * g) if m * g > 0.0 else math.inf),
        SLACK_FACTOR, tuple(degenerate),
    )


def run_diagnostics(
    f: FunctionOracle,
    region: BallRegion,
    pq: ExponentPair,
    cfg: SolverConfig,
    tilt_norms: Sequence[float],
    directions_per_norm: int,
    seed: int = 0,
) -> DiagnosticsReport:
    """Run the three estimators at the region center and audit the relations.

    Each sampled tilt is solved once; both tilt-based estimators reduce
    the same ``(minimizer, tilt)`` pairs.
    """
    tilts = _tilt_samples(region.dim, tilt_norms, directions_per_norm, seed)
    growth = estimate_growth(f, region, pq, cfg)
    points, tilts = _tilted_pairs(f, tilts, region, cfg)
    tilt = _tilt_estimate(points, tilts, region.center, pq)
    loja = _loja_estimate(points, tilts, f, region.center, pq)
    audit = check_equivalence(growth.gamma_hat, tilt.kappa_hat, loja.mu_hat, pq)
    return DiagnosticsReport(growth, tilt, loja, audit, pq, region)


def metric_slope(phi: FunctionOracle, x) -> float:
    """Normalized maximal descent of ``phi`` near ``x``: the largest
    ``max(0, phi(x) - phi(y)) / r`` over ``DEFAULT_SLOPE_DIRECTIONS`` probes
    ``y`` on the sphere of radius ``SLOPE_RADIUS`` around ``x``.

    The local slope is this quantity's limit as ``r -> 0``; one small
    radius stands in for it.  ``+inf`` means "outside the domain": the
    slope is ``+inf`` if ``phi(x)`` is, and ``+inf`` probes are skipped.
    A NaN or ``-inf`` value at ``x`` or at any probe raises
    ``NonFiniteValue``, a ``ValueError``.
    """
    x = as_vector(x)
    phix = _checked_value(phi, x)
    if phix == math.inf:
        return math.inf
    probes = x + SLOPE_RADIUS * unit_directions(x.size, DEFAULT_SLOPE_DIRECTIONS, seed=SLOPE_SEED)
    values = phi.evaluate_rows(probes)
    _check_values(values, probes, phi.descriptor)
    # division by r > 0 is monotone, so the largest gain gives the max
    gains = phix - values[values != math.inf]
    return max(0.0, float(gains.max())) / SLOPE_RADIUS if gains.size else 0.0


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of a nonlinear-perturbation stability probe."""

    passed: bool
    bound: float
    worst_distance: float
    witness: np.ndarray
    perturbation_size: float


def _check_probe_constants(lam: float, kappa: float) -> None:
    """Refuse a ``lam`` not finite and positive or a ``kappa`` not finite
    and nonnegative: the bound ``kappa * size**lam`` needs both."""
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError(f"lam must be finite and positive, got {lam}")
    if not (kappa >= 0.0 and math.isfinite(kappa)):
        raise ValueError(f"kappa must be finite and nonnegative, got {kappa}")


def _probe(
    f: FunctionOracle,
    perturbation: FunctionOracle,
    region: BallRegion,
    size: float,
    lam: float,
    kappa: float,
    cfg: SolverConfig,
) -> ProbeResult:
    """Solve ``f + perturbation`` and check its minimizer farthest from the
    center of ``region`` (the first, on ties) against ``kappa * size**lam``,
    which is ``inf`` where the power overflows and 0 at ``kappa = 0``."""
    result = argmin_perturbed(f, perturbation, region, cfg)
    witness = max(result.minimizers, key=lambda x: _norm(x - region.center))
    worst = _norm(witness - region.center)
    bound = kappa * _power(size, lam) if kappa else 0.0
    return ProbeResult(worst <= bound + PROBE_DISTANCE_SLACK, bound, worst, witness, size)


def lipschitz_probe(
    f: FunctionOracle,
    xbar,
    region: BallRegion,
    zeta: FunctionOracle,
    lam: float,
    kappa: float,
    cfg: SolverConfig,
) -> ProbeResult:
    """Check that minimizers of ``f + zeta`` stay within
    ``kappa * Lip(zeta)^lam`` of the base point.

    The Lipschitz constant is analytic metadata carried by ``zeta`` under
    ``known_constants["lip"]``; it is not estimated here.  A ``lip`` or
    ``kappa`` that is negative or not finite, or a ``lam`` that is not
    finite and positive, raises ``ValueError`` before any solve.
    """
    _require_centered(xbar, region)
    if zeta.known_constants is None or "lip" not in zeta.known_constants:
        raise ValueError("zeta must carry known_constants['lip']")
    lip = float(zeta.known_constants["lip"])
    if not (lip >= 0.0 and math.isfinite(lip)):
        raise ValueError(f"known_constants['lip'] must be finite and nonnegative, got {lip}")
    _check_probe_constants(lam, kappa)
    return _probe(f, zeta, region, lip, lam, kappa, cfg)


def convex_probe(
    f: FunctionOracle,
    xbar,
    region: BallRegion,
    phi: FunctionOracle,
    lam: float,
    kappa: float,
    cfg: SolverConfig,
) -> ProbeResult:
    """Check that minimizers of ``f + phi`` (``phi`` convex by declaration)
    stay within ``kappa * slope^lam`` of the base point, where ``slope`` is
    the local descent slope of ``phi`` there.  A ``kappa`` that is negative
    or not finite, or a ``lam`` that is not finite and positive, raises
    ``ValueError`` before ``phi`` is evaluated."""
    _require_centered(xbar, region)
    _check_probe_constants(lam, kappa)
    slope = metric_slope(phi, region.center)
    if math.isinf(slope):
        raise SlopeInfinite(
            f"base point is outside the domain of '{phi.descriptor}'"
        )
    return _probe(f, phi, region, slope, lam, kappa, cfg)


def sample_subdifferential_graph(
    f: FunctionOracle,
    domain_region: BallRegion,
    tilt_grid: Sequence,
    cfg: SolverConfig,
) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
    """Sample the subdifferential graph of ``f`` by tilting.

    For each tilt in ``tilt_grid``, globally minimizes the tilted objective
    over ``domain_region`` and emits one ``(point, tilt)`` pair per reported
    minimizer.  Requires ``f`` to be ``+inf`` outside a bounded set inside
    the region, so the ball constraint is never active and each pair is a
    genuine graph sample.  ``tilt_grid`` is a ``(T, d)`` array-like, such as
    a list of ``(d,)`` tilts; ``argmin_tilted`` checks it once, as one stack.
    """
    tilts = np.array(tilt_grid, dtype=float)
    return tuple(zip(*_tilted_pairs(f, tilts, domain_region, cfg)))


@dataclass(frozen=True)
class GraphCheck:
    """Result of a pointwise inequality check over sampled graph pairs.

    ``vacuous`` flags a pass that rests on no usable evidence.
    """

    passed: bool
    vacuous: bool
    worst_ratio: Optional[float]
    witness_point: Optional[np.ndarray]
    witness_tilt_norm: Optional[float]


def _graph_pairs(pairs: Sequence[Pair], dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """The points and the tilts of ``pairs`` as two ``(n, dim)`` arrays;
    refuses a pair that is not finite or whose tilt's squared norm overflows."""
    try:
        stack = np.array(list(pairs), dtype=float)
    except ValueError:  # points or tilts of unequal shapes
        stack = None
    if stack is None or (len(stack) and stack.shape[1:] != (2, dim)):
        raise ValueError(f"graph pairs must hold points and tilts of shape ({dim},)")
    if not np.all(np.isfinite(stack)):
        raise ValueError("graph pairs must be finite (no NaN/inf)")
    stack = stack.reshape(-1, 2, dim)
    nrm = _overflowing_norm(stack[:, 1])
    if nrm is not None:
        raise ValueError(f"graph pair tilt norm {nrm} is too large: its square overflows")
    return stack[:, 0], stack[:, 1]


def _graph_check(
    keep: np.ndarray, ratios: np.ndarray, tilt_norms: np.ndarray, points: np.ndarray, bound: float
) -> GraphCheck:
    """The verdict on the first pair in ``keep`` with the strictly largest
    ratio; a NaN ratio of the first such pair is never beaten."""
    if ratios.size == 0:
        return GraphCheck(True, True, None, None, None)
    i = _first_largest(ratios, ratios[0]) or 0
    ratio = float(ratios[i])
    return GraphCheck(ratio <= bound, False, ratio, points[keep][i], float(tilt_norms[i]))


def check_subregularity(
    pairs: Sequence[Pair], xbar, pq: ExponentPair, kappa: float
) -> GraphCheck:
    """Check ``|x - xbar| <= kappa * |xi|^(q/p)`` over sampled graph pairs
    ``(x, xi)``; a point's worst pair has its smallest sampled tilt norm,
    which approximates the distance from zero to its subdifferential.
    Pairs within ``BASE_POINT_EXCLUSION`` of ``xbar`` carry no evidence
    and are skipped.  A NaN or infinite entry in a point or a tilt raises
    ``ValueError``."""
    xbar = as_vector(xbar)
    points, tilts = _graph_pairs(pairs, xbar.size)
    return _graph_check(*_distance_ratios(points, tilts, xbar, pq), points, kappa)


def check_global_loja(
    pairs: Sequence[Pair], f: FunctionOracle, xbar, pq: ExponentPair, mu: float
) -> GraphCheck:
    """Check ``f(x) - f(xbar) <= mu * |xi|^q`` over sampled graph pairs ``(x, xi)``.

    Pairs within ``BASE_POINT_EXCLUSION`` of ``xbar``, and pairs whose tilt
    norm is zero or at rounding level next to the largest tilt norm sampled,
    carry no evidence and are skipped; the other pairs of the same point
    still count.  A NaN or infinite entry in a point or a tilt raises
    ``ValueError``, and a NaN or ``-inf`` value of ``f`` at ``xbar``, or at
    a pair that counts, raises ``NonFiniteValue``.  A ``+inf`` value gives a
    ratio of ``+inf``, which fails the check.
    """
    xbar = as_vector(xbar)
    points, tilts = _graph_pairs(pairs, xbar.size)
    return _graph_check(*_gap_ratios(points, tilts, f, xbar, pq), points, mu)
