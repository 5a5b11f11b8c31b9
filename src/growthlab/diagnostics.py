"""Estimators and audits for the three growth-related constants.

Estimates the polynomial growth modulus, the tilt sub-stability constant,
and the Łojasiewicz-type constant of an objective at a strict local
minimizer, audits the algebraic relations that tie the three together, and
runs the nonlinear-perturbation and subdifferential-graph checks.

All estimators are sampling-based and one-sided: the growth modulus is
over-estimated (a finite grid can only miss bad points), the other two are
under-estimated (a finite tilt sample can only miss bad witnesses).  Audits
therefore carry a configurable multiplicative slack factor.

Tilted problems are solved one after another in a fixed order and reduced
deterministically; ``run_diagnostics`` solves each sampled tilt once and
hands the solves to both tilt-based estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    BallRegion,
    ExponentPair,
    FunctionOracle,
    GrowthLabError,
    as_vector,
)
from .minimize import (
    SolverConfig,
    TiltedSolveResult,
    argmin_perturbed,
    argmin_tilted,
    ball_grid,
)

__all__ = [
    "NoFiniteSamples",
    "NegativeGap",
    "SlopeInfinite",
    "GrowthEstimate",
    "TiltEstimate",
    "LojaEstimate",
    "RelationCheck",
    "EquivalenceAudit",
    "DiagnosticsReport",
    "SlopeEstimate",
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

DEFAULT_SLACK_FACTOR = 1.10

DEFAULT_SLOPE_RADII = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
DEFAULT_SLOPE_DIRECTIONS = 64

# Probe inequalities are quantified over exact minimizers; numerical ones
# carry solver wobble, absorbed by this absolute distance allowance.
PROBE_DISTANCE_SLACK = 1e-9

# Graph checks treat a tilt norm at or below this fraction of the sample's
# largest tilt norm as zero: it is rounding left in a tilt meant to be zero,
# such as the middle point of np.linspace(-a, a, 2k + 1).
TILT_ROUNDING_RTOL = 64 * np.finfo(float).eps


class NoFiniteSamples(GrowthLabError):
    """No sampled point of the region had a finite objective value."""


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
    """Worst distance-to-tilt-norm ratio over all sampled tilted problems
    and all of their reported minimizers (under-estimate)."""

    kappa_hat: float
    worst_tilt: np.ndarray
    worst_minimizer: np.ndarray


@dataclass(frozen=True)
class LojaEstimate:
    """Worst value-gap-to-tilt-norm ratio over all sampled tilted problems
    (under-estimate)."""

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

    Relations, each up to the multiplicative slack factor ``tau``:
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

    def to_json_dict(self) -> dict:
        def rel(c: RelationCheck) -> dict:
            return {"checked": c.checked, "passed": c.passed, "slack": c.slack}

        return {
            "exponents": {"p": self.exponents.p, "q": self.exponents.q},
            "region": {
                "center": self.region.center.tolist(),
                "radius": self.region.radius,
            },
            "growth": {
                "gamma_hat": self.growth.gamma_hat,
                "witness": self.growth.witness.tolist(),
                "samples_used": self.growth.samples_used,
            },
            "tilt": {
                "kappa_hat": self.tilt.kappa_hat,
                "worst_tilt": self.tilt.worst_tilt.tolist(),
                "worst_minimizer": self.tilt.worst_minimizer.tolist(),
            },
            "loja": {
                "mu_hat": self.loja.mu_hat,
                "worst_tilt": self.loja.worst_tilt.tolist(),
            },
            "audit": {
                "tau": self.audit.tau,
                "kappa_vs_gamma": rel(self.audit.kappa_vs_gamma),
                "mu_vs_kappa": rel(self.audit.mu_vs_kappa),
                "gamma_vs_mu": rel(self.audit.gamma_vs_mu),
                "degenerate": list(self.audit.degenerate),
                "all_pass": self.audit.all_pass,
            },
        }

    def csv_rows(self) -> Tuple[List[str], List[List[str]]]:
        """One flat row per estimator with witness coordinates."""
        header = ["estimator", "value", "witness", "tilt", "samples"]

        def coords(v: np.ndarray) -> str:
            return ";".join(repr(float(c)) for c in v)

        rows = [
            ["growth", repr(self.growth.gamma_hat), coords(self.growth.witness),
             "", str(self.growth.samples_used)],
            ["tilt", repr(self.tilt.kappa_hat), coords(self.tilt.worst_minimizer),
             coords(self.tilt.worst_tilt), ""],
            ["loja", repr(self.loja.mu_hat), "", coords(self.loja.worst_tilt), ""],
        ]
        return header, rows


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
    rng = np.random.default_rng(seed)
    out = np.empty((count, dim))
    for i in range(count):
        v = rng.standard_normal(dim)
        while np.linalg.norm(v) < 1e-12:
            v = rng.standard_normal(dim)
        out[i] = v / np.linalg.norm(v)
    return out


def _require_centered(xbar: np.ndarray, region: BallRegion) -> np.ndarray:
    xbar = as_vector(xbar, region.dim)
    if np.max(np.abs(xbar - region.center)) > 1e-12:
        raise ValueError("base point must coincide with the region center")
    return xbar


def estimate_growth(
    f: FunctionOracle,
    xbar,
    region: BallRegion,
    pq: ExponentPair,
    cfg: SolverConfig,
) -> GrowthEstimate:
    """Infimum of ``(f(x) - f(xbar)) / |x - xbar|^p`` over grid samples.

    Over-estimates the true growth modulus: a finite grid can only miss
    bad points.  Raises ``NegativeGap`` if a sample lies strictly below
    the base value, which means ``xbar`` is not a minimizer on the region.
    """
    xbar = _require_centered(xbar, region)
    fbar = f(xbar)
    if not math.isfinite(fbar):
        raise ValueError("objective must be finite at the base point")

    pts = ball_grid(region, cfg.grid_points_per_axis)
    dist = np.linalg.norm(pts - xbar, axis=1)
    keep = dist > BASE_POINT_EXCLUSION
    pts, dist = pts[keep], dist[keep]

    values = f.evaluate_rows(pts)
    nan = np.isnan(values)
    if np.any(nan):
        x = pts[np.flatnonzero(nan)[0]]
        raise ValueError(f"oracle '{f.descriptor}' returned NaN at {x}")
    finite = np.isfinite(values)
    if not np.any(finite):
        raise NoFiniteSamples(
            f"oracle '{f.descriptor}' has no finite samples on the region"
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


def _tilted_solves(
    f: FunctionOracle,
    region: BallRegion,
    tilts: Sequence[np.ndarray],
    cfg: SolverConfig,
    solves: Optional[Sequence[TiltedSolveResult]],
) -> Sequence[TiltedSolveResult]:
    if solves is None:
        return [argmin_tilted(f, xi, region, cfg) for xi in tilts]
    if len(solves) != len(tilts):
        raise ValueError(
            f"got {len(solves)} tilted solves for a sample of {len(tilts)} tilts"
        )
    return solves


def _tilt_samples(
    dim: int,
    tilt_norms: Sequence[float],
    directions_per_norm: int,
    seed: int,
) -> List[np.ndarray]:
    """Deterministic tilt sample: each norm times a fresh direction set."""
    if directions_per_norm < 1:
        raise ValueError("directions_per_norm must be >= 1")
    tilts: List[np.ndarray] = []
    for j, nrm in enumerate(tilt_norms):
        if not (nrm > 0.0 and math.isfinite(nrm)):
            raise ValueError(f"tilt norms must be positive and finite, got {nrm}")
        dirs = unit_directions(dim, directions_per_norm, seed=[seed, j])
        tilts.extend(nrm * u for u in dirs)
    return tilts


def estimate_tilt_constant(
    f: FunctionOracle,
    xbar,
    region: BallRegion,
    pq: ExponentPair,
    tilt_norms: Sequence[float],
    directions_per_norm: int,
    cfg: SolverConfig,
    seed: int = 0,
    *,
    solves: Optional[Sequence[TiltedSolveResult]] = None,
) -> TiltEstimate:
    """Worst ``|x - xbar| / |xi|^(q/p)`` over sampled tilted problems.

    Every reported minimizer of every tilted problem contributes; the
    estimate is a lower bound on the true constant.  ``solves``, when
    given, holds the ``argmin_tilted`` results for the tilt sample the
    other arguments define, in sample order, and replaces solving it.
    """
    xbar = _require_centered(xbar, region)
    tilts = _tilt_samples(region.dim, tilt_norms, directions_per_norm, seed)
    solves = _tilted_solves(f, region, tilts, cfg, solves)
    kappa_hat = 0.0
    worst_tilt = np.zeros(region.dim)
    worst_min = xbar.copy()
    for xi, result in zip(tilts, solves):
        denom = float(np.linalg.norm(xi)) ** (pq.q / pq.p)
        for x in result.minimizers:
            ratio = float(np.linalg.norm(x - xbar)) / denom
            if ratio > kappa_hat:
                kappa_hat, worst_tilt, worst_min = ratio, xi, x
    return TiltEstimate(kappa_hat, worst_tilt, worst_min)


def estimate_loja_constant(
    f: FunctionOracle,
    xbar,
    region: BallRegion,
    pq: ExponentPair,
    tilt_norms: Sequence[float],
    directions_per_norm: int,
    cfg: SolverConfig,
    seed: int = 0,
    *,
    solves: Optional[Sequence[TiltedSolveResult]] = None,
) -> LojaEstimate:
    """Worst ``(f(x) - f(xbar)) / |xi|^q`` over sampled tilted problems.

    ``solves`` is as in ``estimate_tilt_constant``.
    """
    xbar = _require_centered(xbar, region)
    fbar = f(xbar)
    if not math.isfinite(fbar):
        raise ValueError("objective must be finite at the base point")
    tilts = _tilt_samples(region.dim, tilt_norms, directions_per_norm, seed)
    solves = _tilted_solves(f, region, tilts, cfg, solves)
    mu_hat = 0.0
    worst_tilt = np.zeros(region.dim)
    for xi, result in zip(tilts, solves):
        denom = float(np.linalg.norm(xi)) ** pq.q
        for x in result.minimizers:
            ratio = (f(x) - fbar) / denom
            if ratio > mu_hat:
                mu_hat, worst_tilt = ratio, xi
    return LojaEstimate(mu_hat, worst_tilt)


def check_equivalence(
    growth: GrowthEstimate,
    tilt: TiltEstimate,
    loja: LojaEstimate,
    pq: ExponentPair,
    tau: float = DEFAULT_SLACK_FACTOR,
) -> EquivalenceAudit:
    """Audit the constant relations with multiplicative slack ``tau``.

    All three estimates must come from the same objective, base point,
    region, and exponents.
    """
    if not (tau >= 1.0 and math.isfinite(tau)):
        raise ValueError(f"slack factor tau must be finite and >= 1, got {tau}")
    g, k, m = growth.gamma_hat, tilt.kappa_hat, loja.mu_hat
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


def run_diagnostics(
    f: FunctionOracle,
    region: BallRegion,
    pq: ExponentPair,
    cfg: SolverConfig,
    tilt_norms: Sequence[float],
    directions_per_norm: int,
    seed: int = 0,
    tau: float = DEFAULT_SLACK_FACTOR,
) -> DiagnosticsReport:
    """Run the three estimators at the region center and audit the relations.

    Each sampled tilt is solved once; both tilt-based estimators reduce
    over the same solves.
    """
    xbar = region.center
    growth = estimate_growth(f, xbar, region, pq, cfg)
    tilts = _tilt_samples(region.dim, tilt_norms, directions_per_norm, seed)
    solves = _tilted_solves(f, region, tilts, cfg, None)
    tilt = estimate_tilt_constant(
        f, xbar, region, pq, tilt_norms, directions_per_norm, cfg, seed=seed,
        solves=solves,
    )
    loja = estimate_loja_constant(
        f, xbar, region, pq, tilt_norms, directions_per_norm, cfg, seed=seed,
        solves=solves,
    )
    audit = check_equivalence(growth, tilt, loja, pq, tau=tau)
    return DiagnosticsReport(growth, tilt, loja, audit, pq, region)


@dataclass(frozen=True)
class SlopeEstimate:
    """Local descent slope with its per-radius refinement sequence."""

    value: float
    per_radius: Tuple[Tuple[float, float], ...]


def metric_slope(
    phi: FunctionOracle,
    x,
    probe_radii: Sequence[float] = DEFAULT_SLOPE_RADII,
    directions: int = DEFAULT_SLOPE_DIRECTIONS,
    seed: int = 0,
) -> SlopeEstimate:
    """Normalized maximal descent of ``phi`` near ``x``, probed on shrinking
    spheres.

    Returns the estimate at the smallest radius together with the whole
    per-radius sequence so callers can inspect convergence.  If ``x`` is
    outside the domain of ``phi`` the slope is ``+inf``.
    """
    x = as_vector(x)
    phix = phi(x)
    if math.isinf(phix):
        return SlopeEstimate(math.inf, ())
    radii = [float(r) for r in probe_radii]
    if not radii or any(r <= 0 or not math.isfinite(r) for r in radii):
        raise ValueError("probe_radii must be positive and finite")
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("probe_radii must be strictly decreasing")

    dirs = unit_directions(x.size, directions, seed=seed)
    per_radius: List[Tuple[float, float]] = []
    for r in radii:
        best = 0.0
        for u in dirs:
            val = phi(x + r * u)
            if math.isnan(val):
                raise ValueError(f"oracle '{phi.descriptor}' returned NaN")
            if math.isinf(val):
                continue
            best = max(best, max(0.0, phix - val) / r)
        per_radius.append((r, best))
    return SlopeEstimate(per_radius[-1][1], tuple(per_radius))


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of a nonlinear-perturbation stability probe."""

    passed: bool
    bound: float
    worst_distance: float
    witness: np.ndarray
    perturbation_size: float


def _probe_distances(
    f: FunctionOracle,
    perturbation: FunctionOracle,
    xbar: np.ndarray,
    region: BallRegion,
    cfg: SolverConfig,
) -> Tuple[float, np.ndarray]:
    result = argmin_perturbed(f, perturbation, region, cfg)
    worst, witness = -1.0, xbar
    for x in result.minimizers:
        d = float(np.linalg.norm(x - xbar))
        if d > worst:
            worst, witness = d, x
    return worst, witness


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
    ``known_constants["lip"]``; it is not estimated here.
    """
    xbar = _require_centered(xbar, region)
    if zeta.known_constants is None or "lip" not in zeta.known_constants:
        raise ValueError("zeta must carry known_constants['lip']")
    lip = float(zeta.known_constants["lip"])
    worst, witness = _probe_distances(f, zeta, xbar, region, cfg)
    bound = kappa * lip**lam
    passed = worst <= bound + PROBE_DISTANCE_SLACK
    return ProbeResult(passed, bound, worst, witness, lip)


def convex_probe(
    f: FunctionOracle,
    xbar,
    region: BallRegion,
    phi: FunctionOracle,
    lam: float,
    kappa: float,
    cfg: SolverConfig,
    slope_radii: Sequence[float] = DEFAULT_SLOPE_RADII,
    slope_directions: int = DEFAULT_SLOPE_DIRECTIONS,
) -> ProbeResult:
    """Check that minimizers of ``f + phi`` (``phi`` convex by declaration)
    stay within ``kappa * slope^lam`` of the base point, where ``slope`` is
    the local descent slope of ``phi`` there."""
    xbar = _require_centered(xbar, region)
    slope = metric_slope(phi, xbar, slope_radii, slope_directions).value
    if math.isinf(slope):
        raise SlopeInfinite(
            f"base point is outside the domain of '{phi.descriptor}'"
        )
    worst, witness = _probe_distances(f, phi, xbar, region, cfg)
    bound = kappa * slope**lam
    passed = worst <= bound + PROBE_DISTANCE_SLACK
    return ProbeResult(passed, bound, worst, witness, slope)


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
    genuine graph sample.
    """
    pairs: List[Tuple[np.ndarray, np.ndarray]] = []
    for xi in tilt_grid:
        xi = as_vector(xi, domain_region.dim)
        result = argmin_tilted(f, xi, domain_region, cfg)
        pairs.extend((x, xi) for x in result.minimizers)
    return tuple(pairs)


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


def _group_min_tilt_norm(
    pairs: Sequence[Tuple[np.ndarray, np.ndarray]],
) -> List[Tuple[np.ndarray, float]]:
    """Distinct sampled points with the minimal tilt norm attached to each."""
    grouped: dict = {}
    for x, xi in pairs:
        key = tuple(np.round(np.asarray(x, dtype=float), 10))
        nrm = float(np.linalg.norm(xi))
        if key not in grouped or nrm < grouped[key][1]:
            grouped[key] = (np.asarray(x, dtype=float), nrm)
    return list(grouped.values())


def check_subregularity(
    pairs: Sequence[Tuple[np.ndarray, np.ndarray]],
    xbar,
    pq: ExponentPair,
    kappa: float,
) -> GraphCheck:
    """Check ``|x - xbar| <= kappa * d^(q/p)`` over the sampled graph, where
    ``d`` approximates the distance from zero to the subdifferential at
    ``x`` by the minimal sampled tilt norm there."""
    xbar = as_vector(xbar)
    worst: Optional[float] = None
    wit_pt, wit_nrm = None, None
    for x, d in _group_min_tilt_norm(pairs):
        lhs = float(np.linalg.norm(x - xbar))
        if lhs <= BASE_POINT_EXCLUSION:
            continue
        ratio = lhs / d ** (pq.q / pq.p) if d > 0.0 else math.inf
        if worst is None or ratio > worst:
            worst, wit_pt, wit_nrm = ratio, x, d
    if worst is None:
        return GraphCheck(True, True, None, None, None)
    return GraphCheck(worst <= kappa, False, worst, wit_pt, wit_nrm)


def check_global_loja(
    pairs: Sequence[Tuple[np.ndarray, np.ndarray]],
    f: FunctionOracle,
    xbar,
    pq: ExponentPair,
    mu: float,
) -> GraphCheck:
    """Check ``f(x) - f(xbar) <= mu * d^q`` over the sampled graph.

    Points whose tilt norm ``d`` is zero, or at rounding level next to the
    largest tilt norm sampled, carry no evidence and are skipped.
    """
    xbar = as_vector(xbar)
    fbar = f(xbar)
    if not math.isfinite(fbar):
        raise ValueError("objective must be finite at the base point")
    zero_norm = TILT_ROUNDING_RTOL * max(
        (float(np.linalg.norm(xi)) for _, xi in pairs), default=0.0
    )
    worst: Optional[float] = None
    wit_pt, wit_nrm = None, None
    for x, d in _group_min_tilt_norm(pairs):
        if d <= zero_norm:
            continue
        ratio = (f(x) - fbar) / d**pq.q
        if worst is None or ratio > worst:
            worst, wit_pt, wit_nrm = ratio, x, d
    if worst is None:
        return GraphCheck(True, True, None, None, None)
    return GraphCheck(worst <= mu, False, worst, wit_pt, wit_nrm)
