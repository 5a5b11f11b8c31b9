"""Differential tests: the batched solver path against the scalar path it
replaced.

The reference below is a frozen copy of the scalar grid scan and
coordinate-descent polish (one oracle call per point, one start after
another) and of the per-point tilted and perturbed objectives.  Where the
arithmetic is unchanged, which is every 1-D oracle given by ``evaluate``
alone, the batched path must reproduce it bitwise.  Where the batched
projection's row norms replace the reference's per-point
``np.linalg.norm`` (a BLAS dot product), or a batched formula replaces a
scalar one, results may differ in the last ulp, so the comparison is by
value tolerance and by near-optimality of each path's minimizers under the
other's cut.

A stack of tilts is solved in one call; each of its results must be bitwise
equal to solving that tilt alone, whatever the stack's order and whatever
other tilts share it.  That holds because every tilt term, on the grid and
in the polish, is an elementwise pairing, which rounds a row alike wherever
it sits in the batch."""

import math
import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from growthlab import minimize
from growthlab.catalog import boxquad_oracle, halfpower_oracle, maxsq2d_oracle, power_oracle
from growthlab.core import BallRegion, ExponentPair, FunctionOracle, pairing
from growthlab.diagnostics import (
    _tilt_samples,
    check_global_loja,
    convex_probe,
    estimate_growth,
    estimate_loja_constant,
    estimate_tilt_constant,
    lipschitz_probe,
    metric_slope,
    run_diagnostics,
    sample_subdifferential_graph,
)
from growthlab.minimize import (
    POLISH_MAX_ITERS,
    POLISH_STEP_TOLERANCE,
    AllInfinite,
    NonFiniteValue,
    SolverConfig,
    argmin_ball,
    argmin_perturbed,
    argmin_tilted,
    ball_grid,
)
from growthlab.prox import ProxConfig, prox_step, run_prox

# ---------------------------------------------------------------------------
# Frozen scalar reference


def _ref_project(region, x):
    offset = x - region.center
    nrm = float(np.linalg.norm(offset))
    if nrm <= region.radius:
        return x
    return region.center + offset * (region.radius / nrm)


def _ref_polish(evaluate, start, start_value, region, step0):
    x = start.copy()
    fx = start_value
    step = step0
    evals = 0
    for _ in range(POLISH_MAX_ITERS):
        improved = False
        for i in range(x.size):
            best_cand, best_val = None, fx
            for sign in (1.0, -1.0):
                cand = x.copy()
                cand[i] += sign * step
                cand = _ref_project(region, cand)
                val = float(evaluate(cand))
                evals += 1
                if math.isnan(val) or val == -math.inf:
                    raise NonFiniteValue(f"oracle returned {val} at {cand}")
                if val < best_val:
                    best_cand, best_val = cand, val
            if best_cand is not None:
                x, fx = best_cand, best_val
                improved = True
        if not improved:
            step *= 0.5
            if step < POLISH_STEP_TOLERANCE:
                break
    return x, fx, evals


def ref_argmin_ball(evaluate, region, cfg):
    """(minimizers, min_value, evaluations) of the scalar solver."""
    pts = ball_grid(region, cfg.grid_points_per_axis)
    values = np.asarray([float(evaluate(row)) for row in pts])
    evaluations = len(pts)
    if np.any(np.isnan(values) | np.isneginf(values)):
        raise NonFiniteValue("grid")
    finite = np.isfinite(values)
    pool_pts = [p for p in pts[finite]]
    pool_vals = [float(v) for v in values[finite]]
    n_starts = min(minimize.MULTISTART_COUNT, len(pool_pts))
    if n_starts > 0:
        order = np.argsort(pool_vals, kind="stable")[:n_starts]
        spacing = 2.0 * region.radius / (cfg.grid_points_per_axis - 1)
        for idx in order:
            x, fx, used = _ref_polish(
                evaluate, pool_pts[idx], pool_vals[idx], region, spacing
            )
            evaluations += used
            pool_pts.append(x)
            pool_vals.append(fx)
    vals = np.asarray(pool_vals)
    min_value = float(vals.min())
    cut = min_value + cfg.minimizer_value_tolerance * (1.0 + abs(min_value))
    stacked = np.asarray([pool_pts[i] for i in np.flatnonzero(vals <= cut)])
    minimizers = []
    for i in np.lexsort(stacked.T[::-1]):
        if minimizers and np.max(np.abs(stacked[i] - minimizers[-1])) <= 1e-12:
            continue
        minimizers.append(stacked[i])
    return minimizers, min_value, evaluations


def ref_tilted(f, xi):
    xi = np.asarray(xi, dtype=float)

    def tilted(y):
        fy = float(f.evaluate(y))
        if math.isinf(fy) and fy > 0:
            return fy
        return fy - pairing(xi, y)

    return tilted


def ref_perturbed(f, g):
    def perturbed(y):
        fy = float(f.evaluate(y))
        if math.isinf(fy) and fy > 0:
            return fy
        gy = float(g.evaluate(y))
        if math.isinf(gy) and gy > 0:
            return gy
        return fy + gy

    return perturbed


# ---------------------------------------------------------------------------
# Cases


def _scalar_only(fn, name):
    return FunctionOracle(fn, name)


SCALAR_1D = {
    "square": _scalar_only(lambda x: float(x[0] ** 2), "square"),
    "kink": _scalar_only(lambda x: float(abs(x[0] - 0.3) ** 1.5), "kink"),
    "wiggle": _scalar_only(lambda x: float(np.cos(5 * x[0]) + x[0] ** 2), "wiggle"),
    "quartic": _scalar_only(lambda x: float(x[0] ** 4 + x[0] ** 2), "quartic"),
    "halfcube": _scalar_only(lambda x: float(max(x[0], 0.0) ** 3), "halfcube"),
    "box": _scalar_only(
        lambda x: math.inf if abs(x[0]) > 0.8 else float(x[0] ** 2), "box"
    ),
}

PERTURBATIONS_1D = {
    "kink": _scalar_only(lambda y: float(0.2 * abs(y[0] - 1.0)), "kink"),
    "linear": _scalar_only(lambda y: float(0.3 * y[0]), "linear"),
    "slab": _scalar_only(
        lambda y: 0.0 if 0.5 <= y[0] <= 1.0 else math.inf, "slab"
    ),
    "penalty": _scalar_only(lambda y: float(0.25 * (y[0] - 1.0) ** 2), "penalty"),
}

# (radius, solver config, multistart count)
CONFIGS = {
    "r1-g101": (1.0, SolverConfig(grid_points_per_axis=101), minimize.MULTISTART_COUNT),
    "r2-g201-s3": (2.0, SolverConfig(grid_points_per_axis=201), 3),
}

TILTS_1D = (-2.0, -0.7, 0.0, 0.45, 1.5)


def _assert_bitwise(new, ref):
    minimizers, min_value, evaluations = ref
    assert new.min_value == min_value
    assert new.evaluations == evaluations
    assert len(new.minimizers) == len(minimizers)
    for a, b in zip(new.minimizers, minimizers):
        np.testing.assert_array_equal(a, b)


def _assert_equivalent(new, ref, objective, cfg):
    """Values agree to 1e-12 relative, and each path's minimizers lie
    inside the other path's near-optimality cut under ``objective``."""
    minimizers, min_value, _ = ref
    assert abs(new.min_value - min_value) <= 1e-12 * (1.0 + abs(min_value))
    tol = cfg.minimizer_value_tolerance
    for points, best in ((new.minimizers, min_value), (minimizers, new.min_value)):
        cut = best + tol * (1.0 + abs(best))
        for x in points:
            assert float(objective(x)) <= cut


class TestScalarOracles1D:
    """1-D oracles with ``evaluate`` only: bitwise equal to the reference."""

    @pytest.mark.parametrize("cfg_id", sorted(CONFIGS))
    @pytest.mark.parametrize("name", sorted(SCALAR_1D))
    def test_tilted_bitwise(self, name, cfg_id, monkeypatch):
        f = SCALAR_1D[name]
        radius, cfg, starts = CONFIGS[cfg_id]
        monkeypatch.setattr(minimize, "MULTISTART_COUNT", starts)
        region = BallRegion(np.zeros(1), radius)
        stacked = argmin_tilted(f, [[t] for t in TILTS_1D], region, cfg)
        assert len(stacked) == len(TILTS_1D)
        for t, in_stack in zip(TILTS_1D, stacked):
            ref = ref_argmin_ball(ref_tilted(f, [t]), region, cfg)
            _assert_bitwise(argmin_tilted(f, [[t]], region, cfg)[0], ref)
            _assert_bitwise(in_stack, ref)

    @pytest.mark.parametrize("cfg_id", sorted(CONFIGS))
    @pytest.mark.parametrize("gname", sorted(PERTURBATIONS_1D))
    @pytest.mark.parametrize("fname", ("square", "wiggle", "box"))
    def test_perturbed_bitwise(self, fname, gname, cfg_id, monkeypatch):
        f, g = SCALAR_1D[fname], PERTURBATIONS_1D[gname]
        radius, cfg, starts = CONFIGS[cfg_id]
        monkeypatch.setattr(minimize, "MULTISTART_COUNT", starts)
        region = BallRegion(np.zeros(1), radius)
        new = argmin_perturbed(f, g, region, cfg)
        _assert_bitwise(new, ref_argmin_ball(ref_perturbed(f, g), region, cfg))


BATCHED_1D = {
    "power1.5": power_oracle(1.5),
    "power3": power_oracle(3.0),
    "halfpower2": halfpower_oracle(2.0),
    "boxquad": boxquad_oracle(0.8),
}


class TestBatchedOracles1D:
    """Catalog oracles with ``evaluate_batch``: equal up to rounding."""

    @pytest.mark.parametrize("name", sorted(BATCHED_1D))
    def test_tilted_equivalent(self, name):
        f = BATCHED_1D[name]
        region = BallRegion(np.zeros(1), 1.0)
        cfg = SolverConfig(grid_points_per_axis=201)
        stacked = argmin_tilted(f, [[t] for t in TILTS_1D], region, cfg)
        for t, in_stack in zip(TILTS_1D, stacked):
            objective = ref_tilted(f, [t])
            ref = ref_argmin_ball(objective, region, cfg)
            _assert_equivalent(argmin_tilted(f, [[t]], region, cfg)[0], ref, objective, cfg)
            _assert_equivalent(in_stack, ref, objective, cfg)

    @pytest.mark.parametrize("gname", sorted(PERTURBATIONS_1D))
    def test_perturbed_equivalent(self, gname):
        f, g = power_oracle(3.0), PERTURBATIONS_1D[gname]
        region = BallRegion(np.zeros(1), 2.0)
        cfg = SolverConfig(grid_points_per_axis=201)
        objective = ref_perturbed(f, g)
        new = argmin_perturbed(f, g, region, cfg)
        _assert_equivalent(new, ref_argmin_ball(objective, region, cfg), objective, cfg)


ORACLES_2D = {
    "maxsq2d": maxsq2d_oracle(),
    "maxsq2d-scalar": _scalar_only(
        lambda x: float(max(x[0], 0.0) ** 2 + x[1] ** 2), "maxsq2d-scalar"
    ),
    "bowl": _scalar_only(
        lambda x: float((x[0] - 0.3) ** 2 + abs(x[1]) ** 1.5 + 0.1 * np.sin(4 * x[0])),
        "bowl",
    ),
}

# angles include pi/2, where the flat segment of maxsq2d meets a tilt whose
# first component is ~6e-17 instead of 0
ANGLES_2D = tuple(np.pi * k / 4 for k in range(8))


class TestOracles2D:
    @pytest.mark.parametrize("name", sorted(ORACLES_2D))
    def test_tilted_equivalent(self, name):
        f = ORACLES_2D[name]
        region = BallRegion(np.zeros(2), 1.0)
        cfg = SolverConfig(grid_points_per_axis=41)
        tilts = [nrm * np.array([np.cos(a), np.sin(a)]) for nrm in (0.5, 2.0) for a in ANGLES_2D]
        stacked = argmin_tilted(f, np.array(tilts), region, cfg)
        for xi, in_stack in zip(tilts, stacked):
            objective = ref_tilted(f, xi)
            ref = ref_argmin_ball(objective, region, cfg)
            _assert_equivalent(argmin_tilted(f, xi[None], region, cfg)[0], ref, objective, cfg)
            _assert_equivalent(in_stack, ref, objective, cfg)

    def test_perturbed_equivalent_at_radius_ten(self):
        f = maxsq2d_oracle()
        g = _scalar_only(lambda y: float(0.4 * abs(y[0] - 1.0) + 0.2 * y[1]), "kink2")
        region = BallRegion(np.zeros(2), 10.0)
        cfg = SolverConfig(grid_points_per_axis=61)
        objective = ref_perturbed(f, g)
        new = argmin_perturbed(f, g, region, cfg)
        _assert_equivalent(new, ref_argmin_ball(objective, region, cfg), objective, cfg)


def _ref_constants(f, region, pq, cfg, norms, dirs):
    """gamma, kappa, mu from the scalar growth loop and reference solves."""
    xbar = region.center
    fbar = f(xbar)
    gamma = math.inf
    for x in ball_grid(region, cfg.grid_points_per_axis):
        r = float(np.linalg.norm(x - xbar))
        fx = float(f.evaluate(x))
        if r > 1e-9 and math.isfinite(fx):
            gamma = min(gamma, (fx - fbar) / r**pq.p)
    kappa = mu = 0.0
    for xi in _tilt_samples(region.dim, norms, dirs, 0):
        minimizers, _, _ = ref_argmin_ball(ref_tilted(f, xi), region, cfg)
        nrm = float(np.linalg.norm(xi))
        for x in minimizers:
            kappa = max(kappa, float(np.linalg.norm(x - xbar)) / nrm ** (pq.q / pq.p))
            mu = max(mu, (f(x) - fbar) / nrm**pq.q)
    return max(gamma, 0.0), kappa, mu


@pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
def test_power_family_constants_agree(p):
    f, pq = power_oracle(p), ExponentPair.from_p(p)
    region = BallRegion(np.zeros(1), 10.0)
    cfg = SolverConfig(grid_points_per_axis=2001)
    norms = (0.5, 1.0, 2.0, 4.0)
    report = run_diagnostics(f, region, pq, cfg, norms, 2)
    ref = _ref_constants(f, region, pq, cfg, norms, 2)
    new = (report.growth.gamma_hat, report.tilt.kappa_hat, report.loja.mu_hat)
    for a, b in zip(new, ref):
        assert a == pytest.approx(b, rel=1e-6)


# Improper oracles on the ball of radius 1 around the base point 0, as (the
# improper value, the batch formula).  41-point grids hold the base point.
IMPROPER = {
    "nan": (math.nan, lambda x: np.where(x[:, 0] > 0.0, math.nan, x[:, 0] ** 2)),
    "-inf": (-math.inf, lambda x: np.where(x[:, 0] > 0.0, -math.inf, x[:, 0] ** 2)),
    "nan-at-base": (math.nan, lambda x: np.where(x[:, 0] == 0.0, math.nan, x[:, 0] ** 2)),
    "inf-off-base": (math.inf, lambda x: np.where(x[:, 0] == 0.0, 0.0, math.inf)),
}
BASE, BALL = np.zeros(1), BallRegion(np.zeros(1), 1.0)
CFG41 = SolverConfig(grid_points_per_axis=41)
P2 = ExponentPair.from_p(2.0)
PROX41 = ProxConfig(0.5, P2, 2, BALL, CFG41)
SQUARE = power_oracle(2.0)
HALF_ABS = FunctionOracle.from_batch(
    lambda x: 0.5 * np.abs(x[:, 0]), "half-abs", known_constants={"lip": 0.5}
)
LOJA_PAIRS = ((np.array([0.75]), np.array([1.0])), (np.array([-0.5]), np.array([1.0])))


def _base_only(result):
    return [x.tolist() for x in result.minimizers] == [[0.0]] and result.min_value == 0.0


def _probe_passes(result):
    return result.passed and result.worst_distance == 0.0


# Each public entry point that reads an oracle, as (call with the improper
# oracle, what it gives when the oracle is +inf everywhere but at the base
# point: an error class or a check of its result).
ORACLE_READERS = {
    "argmin_ball": (lambda f: argmin_ball(f, BALL, CFG41), _base_only),
    "argmin_tilted": (lambda f: argmin_tilted(f, [[0.3]], BALL, CFG41)[0], _base_only),
    "argmin_tilted-stack": (
        lambda f: argmin_tilted(f, [[0.3], [-0.2]], BALL, CFG41),
        lambda results: all(map(_base_only, results)),
    ),
    "argmin_perturbed-f": (lambda f: argmin_perturbed(f, SQUARE, BALL, CFG41), _base_only),
    "argmin_perturbed-g": (lambda g: argmin_perturbed(SQUARE, g, BALL, CFG41), _base_only),
    "prox_step": (lambda f: prox_step(f, BASE, PROX41), _base_only),
    "run_prox": (lambda f: run_prox(f, BASE, PROX41), lambda t: t.values == (0.0, 0.0, 0.0)),
    "estimate_growth": (lambda f: estimate_growth(f, BALL, P2, CFG41), AllInfinite),
    "estimate_tilt_constant": (
        lambda f: estimate_tilt_constant(f, BALL, P2, (0.5, 1.0), 2, CFG41),
        lambda est: est.kappa_hat == 0.0,
    ),
    "estimate_loja_constant": (
        lambda f: estimate_loja_constant(f, BALL, P2, (0.5, 1.0), 2, CFG41),
        lambda est: est.mu_hat == 0.0,
    ),
    "run_diagnostics": (lambda f: run_diagnostics(f, BALL, P2, CFG41, (0.5, 1.0), 2), AllInfinite),
    "metric_slope": (lambda phi: metric_slope(phi, BASE), lambda slope: slope == 0.0),
    "lipschitz_probe-f": (
        lambda f: lipschitz_probe(f, BASE, BALL, HALF_ABS, 1.0, 1.0, CFG41), _probe_passes
    ),
    "lipschitz_probe-zeta": (
        lambda zeta: lipschitz_probe(SQUARE, BASE, BALL, zeta, 1.0, 1.0, CFG41), _probe_passes
    ),
    "convex_probe-f": (
        lambda f: convex_probe(f, BASE, BALL, HALF_ABS, 1.0, 1.0, CFG41), _probe_passes
    ),
    "convex_probe-phi": (
        lambda phi: convex_probe(SQUARE, BASE, BALL, phi, 1.0, 1.0, CFG41), _probe_passes
    ),
    "sample_subdifferential_graph": (
        lambda f: sample_subdifferential_graph(f, BALL, [[-0.5], [0.5]], CFG41),
        lambda pairs: [x.tolist() for x, _ in pairs] == [[0.0], [0.0]],
    ),
    "check_global_loja": (
        lambda f: check_global_loja(LOJA_PAIRS, f, BASE, P2, 1.0),
        lambda check: not check.passed and check.worst_ratio == math.inf,
    ),
}


class TestErrorContract:
    """NaN and -inf are refused wherever an oracle is read, on the lockstep
    polish as on the scan."""

    @pytest.mark.parametrize("kind", sorted(IMPROPER))
    @pytest.mark.parametrize("entry", sorted(ORACLE_READERS))
    def test_every_oracle_reader_keeps_the_rule(self, entry, kind):
        """NaN or -inf raises NonFiniteValue naming the value and the
        oracle; +inf at every sample that counts raises AllInfinite, and
        +inf elsewhere gives the result the docstring promises."""
        value, batch = IMPROPER[kind]
        # the Lipschitz constant lets the oracle serve as lipschitz_probe's zeta
        f = FunctionOracle.from_batch(batch, kind, known_constants={"lip": 1.0})
        call, when_inf = ORACLE_READERS[entry]
        if value != math.inf:
            with pytest.raises(NonFiniteValue, match=f"returned {value} at") as info:
                call(f)
            descriptor = str(info.value).split("'")[1]  # the oracle's, or its sum's
            assert kind in descriptor.split()
        elif isinstance(when_inf, type):
            with pytest.raises(when_inf):
                call(f)
        else:
            assert when_inf(call(f))

    def test_run_prox_checks_its_start(self):
        # NaN only at x0 = 0.01, which no grid point or polish candidate hits
        f = FunctionOracle.from_batch(
            lambda x: np.where(x[:, 0] == 0.01, math.nan, x[:, 0] ** 2), "hole"
        )
        prox_step(f, [0.01], PROX41)
        with pytest.raises(NonFiniteValue, match=r"'hole' returned nan at \[0\.01\]"):
            run_prox(f, [0.01], PROX41)

    @staticmethod
    def _off_grid(bad):
        # finite on the 101-point grid of [-1, 1] (spacing 0.02), ``bad``
        # once the polish halves its step below the spacing
        def value(x):
            on_grid = abs(x[0] * 50.0 - round(x[0] * 50.0)) <= 1e-9
            return float(x[0] ** 2) if on_grid else bad

        return value

    @pytest.mark.parametrize("bad", (math.nan, -math.inf))
    def test_polish_rejects(self, bad):
        f = FunctionOracle(self._off_grid(bad), "offgrid")
        region = BallRegion(np.zeros(1), 1.0)
        cfg = SolverConfig(grid_points_per_axis=101)
        with pytest.raises(NonFiniteValue):
            argmin_tilted(f, [[0.3]], region, cfg)

    @pytest.mark.parametrize("bad", (math.nan, -math.inf))
    def test_scan_rejects_batched(self, bad):
        f = FunctionOracle.from_batch(
            lambda x: np.where(x[:, 0] > 0.5, bad, x[:, 0] ** 2), "bad-batch"
        )
        with pytest.raises(NonFiniteValue):
            argmin_tilted(f, [[0.1]], BallRegion(np.zeros(1), 1.0), SolverConfig(grid_points_per_axis=101))

    def test_batch_of_wrong_shape_rejected(self):
        f = FunctionOracle(
            lambda x: float(x[0] ** 2), "short", evaluate_batch=lambda x: x[:-1, 0] ** 2
        )
        with pytest.raises(ValueError):
            argmin_tilted(f, [[0.1]], BallRegion(np.zeros(1), 1.0), SolverConfig(grid_points_per_axis=11))

    @pytest.mark.parametrize("bad", (math.nan, -math.inf))
    def test_stack_names_the_value(self, bad):
        region = BallRegion(np.zeros(1), 1.0)
        cfg = SolverConfig(grid_points_per_axis=101)
        tilts = [[0.3], [-0.2], [0.0]]
        f = FunctionOracle.from_batch(
            lambda x: np.where(x[:, 0] > 0.5, bad, x[:, 0] ** 2), "bad-batch"
        )
        with pytest.raises(NonFiniteValue, match=str(bad)):
            argmin_tilted(f, tilts, region, cfg)
        with pytest.raises(NonFiniteValue, match=str(bad)):
            argmin_tilted(FunctionOracle(self._off_grid(bad), "offgrid"), tilts, region, cfg)

    def test_stack_all_infinite(self):
        f = FunctionOracle.from_batch(lambda x: np.full(len(x), math.inf), "nowhere")
        with pytest.raises(AllInfinite):
            argmin_tilted(f, [[0.5], [1.0]], BallRegion(np.zeros(1), 1.0), SolverConfig(grid_points_per_axis=11))

    @pytest.mark.parametrize(
        "tilts",
        (
            np.zeros((2, 2)),  # wrong dimension
            np.array([[0.5], [math.nan]]),
            np.array([[0.5], [math.inf]]),
            np.zeros((2, 1, 1)),
        ),
    )
    def test_bad_stack_rejected(self, tilts):
        with pytest.raises(ValueError):
            argmin_tilted(power_oracle(2.0), tilts, BallRegion(np.zeros(1), 1.0), SolverConfig(grid_points_per_axis=11))

    # tilts refused on the ball of radius 1 around the origin of R^2: bad
    # stacks, and a single tilt in a 0-D or 1-D form, which is not a stack
    BAD_TILTS = {
        "nan": [[0.5, 0.5], [math.nan, 0.0]],
        "+inf": [[0.5, 0.5], [math.inf, 0.0]],
        "-inf": [[0.5, 0.5], [0.0, -math.inf]],
        "wrong length": [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]],
        "empty": [[]],
        "3-D": np.zeros((2, 1, 2)),
        "ragged": [[0.1, 0.2], [0.3]],
        "0-D": 0.3,
        "1-D": [0.3, -0.2],
        "1-D empty": [],
        "1-D nan": [math.nan, 0.0],
        "square overflows": [[0.5, 0.5], [1e200, 1e200]],
        # on the ball around (1e300, 0): |<xi, y>| reaches 1e310
        "pairing overflows": [[0.5, 0.5], [1e10, 0.0]],
    }
    # the start of each overflow refusal's message, which names the norm
    OVERFLOW_MESSAGES = {
        "square overflows": "tilt norm 1.414213562373095e+200 is too large",
        "pairing overflows": "tilt norm 10000000000.0 is too large",
    }

    @pytest.mark.parametrize("case", sorted(BAD_TILTS))
    def test_every_tilt_form_checked_before_evaluation(self, case):
        def never(x):
            raise AssertionError("the oracle was evaluated")

        center = np.array([1e300, 0.0]) if case == "pairing overflows" else np.zeros(2)
        message = "^" + re.escape(self.OVERFLOW_MESSAGES.get(case, ""))
        with pytest.raises(ValueError, match=message):
            argmin_tilted(FunctionOracle(never, "never"), self.BAD_TILTS[case],
                          BallRegion(center, 1.0), SolverConfig(grid_points_per_axis=11))

    def test_empty_stack(self):
        def never(x):
            raise AssertionError("an empty stack evaluates nothing")

        f, region = FunctionOracle(never, "never"), BallRegion(np.zeros(1), 1.0)
        cfg = SolverConfig(grid_points_per_axis=11)
        assert argmin_tilted(f, np.zeros((0, 1)), region, cfg) == ()
        assert sample_subdifferential_graph(f, region, np.zeros((0, 1)), cfg) == ()

    def test_no_multistarts(self, monkeypatch):
        monkeypatch.setattr(minimize, "MULTISTART_COUNT", 0)
        f, region = maxsq2d_oracle(), BallRegion(np.zeros(2), 1.0)
        cfg = SolverConfig(grid_points_per_axis=21)
        tilts = np.array([[0.5, 0.0], [0.0, -1.0], [0.3, 0.3]])
        for xi, new in zip(tilts, argmin_tilted(f, tilts, region, cfg)):
            _assert_same(new, argmin_tilted(f, xi[None], region, cfg)[0])
            assert new.evaluations == len(ball_grid(region, 21))


# ---------------------------------------------------------------------------
# Stacked tilts against one tilt at a time


def _assert_same(new, alone):
    _assert_bitwise(new, (alone.minimizers, alone.min_value, alone.evaluations))


STACK_ORACLES = {
    1: {
        "power1.5": power_oracle(1.5),
        "halfpower3": halfpower_oracle(3.0),
        "boxquad": boxquad_oracle(0.8),
        "wiggle": SCALAR_1D["wiggle"],
    },
    2: {"maxsq2d": maxsq2d_oracle(), "bowl": ORACLES_2D["bowl"]},
}
STACK_CFG = {
    1: SolverConfig(grid_points_per_axis=101),
    2: SolverConfig(grid_points_per_axis=21),
}


@st.composite
def tilt_stacks(draw):
    """(dim, oracle name, stack, permutation): a stack of 1-12 tilts that
    holds a zero tilt and a repeated tilt."""
    dim = draw(st.sampled_from((1, 2)))
    name = draw(st.sampled_from(sorted(STACK_ORACLES[dim])))
    tilt = st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=dim, max_size=dim)
    tilts = draw(st.lists(tilt, min_size=0, max_size=10))
    tilts.insert(draw(st.integers(0, len(tilts))), [0.0] * dim)
    tilts.insert(draw(st.integers(0, len(tilts))), tilts[draw(st.integers(0, len(tilts) - 1))])
    order = draw(st.permutations(range(len(tilts))))
    return dim, name, np.array(tilts), np.array(order)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tilt_stacks())
def test_stack_equals_one_tilt_at_a_time(case):
    dim, name, tilts, order = case
    f, cfg = STACK_ORACLES[dim][name], STACK_CFG[dim]
    region = BallRegion(np.zeros(dim), 1.0)
    with patch.object(minimize, "MULTISTART_COUNT", 3):
        alone = [argmin_tilted(f, xi[None], region, cfg)[0] for xi in tilts]
        stacked = argmin_tilted(f, tilts, region, cfg)
        assert len(stacked) == len(tilts)
        for a, b in zip(stacked, alone):
            _assert_same(a, b)
        # another order, and the stack split in two: other company, same results
        for k, a in zip(order, argmin_tilted(f, tilts[order], region, cfg)):
            _assert_same(a, alone[k])
        half = len(tilts) // 2
        for a, b in zip(argmin_tilted(f, tilts[order[:half]], region, cfg), order[:half]):
            _assert_same(a, alone[b])
