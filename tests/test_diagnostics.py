"""Tests for the constant estimators, relation audit, slope, probes, and
subdifferential-graph checks."""

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import _reference as reference
from growthlab import diagnostics
from growthlab.catalog import boxquad_oracle, halfpower_oracle, maxsq2d_oracle, power_oracle
from growthlab.core import (
    BallRegion,
    ExponentPair,
    FunctionOracle,
    _norm,
    _row_norms,
    pairing,
)
from growthlab.diagnostics import (
    BASE_POINT_EXCLUSION,
    TILT_ROUNDING_RTOL,
    NegativeGap,
    SlopeInfinite,
    check_equivalence,
    check_global_loja,
    check_subregularity,
    convex_probe,
    estimate_growth,
    estimate_loja_constant,
    estimate_tilt_constant,
    lipschitz_probe,
    metric_slope,
    run_diagnostics,
    sample_subdifferential_graph,
    unit_directions,
)
from growthlab.minimize import (
    AllInfinite,
    NonFiniteValue,
    SolverConfig,
    argmin_ball,
    argmin_perturbed,
    argmin_tilted,
)

P2 = ExponentPair.from_p(2.0)
P3 = ExponentPair.from_p(3.0)
CFG = SolverConfig(grid_points_per_axis=2001)
CFG_SMALL = SolverConfig(grid_points_per_axis=201)
ORIGIN = np.zeros(1)
NORMS = (0.5, 1.0, 2.0, 4.0)


def region(radius, dim=1):
    return BallRegion(np.zeros(dim), radius)


class TestEstimateGrowth:
    def test_pure_quadratic_ratio_is_one(self):
        est = estimate_growth(power_oracle(2.0), region(1.0), P2, CFG)
        assert est.gamma_hat == pytest.approx(1.0, rel=1e-12)
        assert est.samples_used > 1000

    def test_one_sided_flat_function_gives_zero(self):
        est = estimate_growth(halfpower_oracle(3.0), region(1.0), P3, CFG)
        assert est.gamma_hat == 0.0
        assert est.witness[0] < 0.0

    def test_infimum_approached_at_base_point(self):
        f = FunctionOracle(lambda x: float(x[0] ** 2 + abs(x[0]) ** 3), "mix")
        est = estimate_growth(f, region(1.0), P2, CFG)
        assert 1.0 <= est.gamma_hat <= 1.05

    def test_restricted_oracle_recovers_one_sided_growth(self):
        base = halfpower_oracle(3.0)
        restricted = FunctionOracle(
            lambda x: float(base.evaluate(x)) if x[0] >= 0.0 else math.inf,
            "halfpower|x>=0",
        )
        est = estimate_growth(restricted, region(1.0), P3, CFG)
        assert est.gamma_hat == pytest.approx(1.0, rel=0.05)

    def test_negative_gap_raises(self):
        f = FunctionOracle(lambda x: float((x[0] - 0.5) ** 2), "offcenter")
        with pytest.raises(NegativeGap) as info:
            estimate_growth(f, region(1.0), P2, CFG_SMALL)
        # the reported witness indeed lies below the base value
        assert f(info.value.point) < f(ORIGIN)

    def test_no_finite_samples(self):
        f = FunctionOracle(
            lambda x: 0.0 if abs(x[0]) <= 1e-10 else math.inf, "point"
        )
        with pytest.raises(AllInfinite, match="other than the base point"):
            estimate_growth(f, region(1.0), P2, CFG_SMALL)

    @pytest.mark.parametrize("radius, dim", ((1e-10, 1), (1e-9, 1), (1e-10, 2)))
    def test_ball_inside_the_exclusion_is_refused_before_the_scan(self, radius, dim):
        # every grid point lies within BASE_POINT_EXCLUSION of the base
        # point, so no sample is left; the oracle is finite there, so this
        # is no AllInfinite, and only the base value is read
        seen = []

        def square(x):
            seen.append(x)
            return float(np.sum(x * x))

        f = FunctionOracle(square, "square")
        with pytest.raises(ValueError, match=f"radius {radius} .* than {BASE_POINT_EXCLUSION}"):
            estimate_growth(f, region(radius, dim), P2, CFG_SMALL)
        assert len(seen) == 1

    def test_minus_infinity_is_refused_not_skipped(self):
        # -inf is not "outside the domain": argmin_ball refuses it, and so
        # must the growth scan
        f = FunctionOracle.from_batch(
            lambda pts: np.where(pts[:, 0] < -0.5, -math.inf, pts[:, 0] ** 2), "sink"
        )
        with pytest.raises(NonFiniteValue, match="-inf"):
            estimate_growth(f, region(1.0), P2, CFG_SMALL)
        with pytest.raises(NonFiniteValue):
            argmin_ball(f, region(1.0), CFG_SMALL)

    def test_nan_is_refused(self):
        f = FunctionOracle(lambda x: math.nan if x[0] > 0.5 else float(x[0] ** 2), "hole")
        with pytest.raises(NonFiniteValue, match="nan"):
            estimate_growth(f, region(1.0), P2, CFG_SMALL)

    def test_refined_grid_never_increases_estimate(self):
        f = FunctionOracle(lambda x: float(x[0] ** 2 + abs(x[0]) ** 3), "mix")
        coarse = estimate_growth(f, region(1.0), P2, SolverConfig(grid_points_per_axis=101))
        fine = estimate_growth(f, region(1.0), P2, SolverConfig(grid_points_per_axis=201))
        assert fine.gamma_hat <= coarse.gamma_hat + 1e-12


class TestTiltAndLojaEstimates:
    def test_quadratic_constants(self):
        f = power_oracle(2.0)
        tilt = estimate_tilt_constant(f, region(10.0), P2, NORMS, 2, CFG)
        loja = estimate_loja_constant(f, region(10.0), P2, NORMS, 2, CFG)
        assert tilt.kappa_hat == pytest.approx(0.5, rel=1e-6)
        assert loja.mu_hat == pytest.approx(0.25, rel=1e-6)

    def test_cubic_constants(self):
        f = power_oracle(3.0)
        tilt = estimate_tilt_constant(f, region(10.0), P3, NORMS, 2, CFG)
        loja = estimate_loja_constant(f, region(10.0), P3, NORMS, 2, CFG)
        assert tilt.kappa_hat == pytest.approx(3.0 ** (-0.5), rel=1e-6)
        assert loja.mu_hat == pytest.approx(3.0 ** (-1.5), rel=1e-6)

    def test_overflowing_tilt_power_gives_zero_ratios(self):
        # at p = 1.001, q = 1001 and 4 ** 1000 overflow a float: each
        # ratio takes its limit, 0
        pq = ExponentPair.from_p(1.001)
        f = power_oracle(1.001)
        tilt = estimate_tilt_constant(f, region(10.0), pq, (4.0,), 2, CFG_SMALL)
        loja = estimate_loja_constant(f, region(10.0), pq, (4.0,), 2, CFG_SMALL)
        assert (tilt.kappa_hat, loja.mu_hat) == (0.0, 0.0)

    def test_numpy_exponent_overflows_to_inf(self):
        # the pair holds Python floats, so the power overflows as the
        # OverflowError it catches, not as numpy's RuntimeWarning
        pq = ExponentPair(np.float64(1.001))
        assert diagnostics._power(4.0, pq.q) == math.inf
        assert diagnostics._powers(np.array([0.5, 4.0]), pq.q / pq.p)[1] == math.inf

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(-5.0, -1.0),
        st.sampled_from((1.0, 10.0)),
        st.sampled_from((201, 2001)),
    )
    def test_one_sided_near_p_one(self, log_excess, radius, points):
        # p - 1 from 1e-5 to 0.1, log-uniform.  Below p = 1 + 2e-6 the tilted
        # objective is flatter than the minimizer value tolerance over a
        # segment, and the farthest minimizer of that segment overshoots kappa.
        pq = ExponentPair(1.0 + 10.0**log_excess)
        report = run_diagnostics(
            power_oracle(pq.p), region(radius), pq,
            SolverConfig(grid_points_per_axis=points), NORMS, 2,
        )
        assert report.tilt.kappa_hat / pq.p ** (-pq.q / pq.p) == pytest.approx(1.0, rel=0.05)
        assert report.loja.mu_hat / pq.p ** (-pq.q) == pytest.approx(1.0, rel=0.05)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_one_sided_bounds_against_growth(self, p):
        pq = ExponentPair.from_p(p)
        f = power_oracle(p)
        growth = estimate_growth(f, region(10.0), pq, CFG)
        tilt = estimate_tilt_constant(f, region(10.0), pq, NORMS, 2, CFG)
        loja = estimate_loja_constant(f, region(10.0), pq, NORMS, 2, CFG)
        assert tilt.kappa_hat <= growth.gamma_hat ** (-pq.q / pq.p) * (1 + 1e-9)
        assert loja.mu_hat <= tilt.kappa_hat * (1 + 1e-9)

    def test_enlarging_samples_never_decreases_estimates(self):
        f = FunctionOracle(lambda x: float(x[0] ** 2 + 0.3 * np.sin(x[0]) ** 2), "bumpy")
        kw = dict(cfg=CFG_SMALL)
        base_t = estimate_tilt_constant(f, region(5.0), P2, NORMS, 2, **kw)
        more_dirs = estimate_tilt_constant(f, region(5.0), P2, NORMS, 4, **kw)
        more_norms = estimate_tilt_constant(f, region(5.0), P2, NORMS + (8.0,), 2, **kw)
        assert more_dirs.kappa_hat >= base_t.kappa_hat
        assert more_norms.kappa_hat >= base_t.kappa_hat
        base_l = estimate_loja_constant(f, region(5.0), P2, NORMS, 2, **kw)
        more_l = estimate_loja_constant(f, region(5.0), P2, NORMS + (8.0,), 2, **kw)
        assert more_l.mu_hat >= base_l.mu_hat

    def test_minimizer_value_inequality_along_probes(self):
        # every tilted minimizer x satisfies f(x) - f(0) <= <xi, x - 0>
        f = power_oracle(2.0)
        for xi in (np.array([0.5]), np.array([-1.0]), np.array([2.0])):
            (result,) = argmin_tilted(f, xi[None], region(10.0), CFG_SMALL)
            for x in result.minimizers:
                assert f(x) - f(ORIGIN) <= pairing(xi, x - ORIGIN) + 1e-8

    def test_rejects_bad_sampling_parameters(self):
        f = power_oracle(2.0)
        with pytest.raises(ValueError):
            estimate_tilt_constant(f, region(1.0), P2, (0.0,), 2, CFG_SMALL)
        with pytest.raises(ValueError):
            estimate_tilt_constant(f, region(1.0), P2, NORMS, 0, CFG_SMALL)


class TestSharedTiltedSolves:
    @pytest.mark.parametrize("dim", (1, 2))
    def test_each_tilt_solved_once_with_standalone_results(self, monkeypatch, dim):
        if dim == 1:
            f, pq, cfg, dirs = power_oracle(3.0), P3, CFG_SMALL, 2
        else:
            f, pq, cfg, dirs = maxsq2d_oracle(), P2, SolverConfig(grid_points_per_axis=41), 8
        reg = region(2.0, dim)
        growth = estimate_growth(f, reg, pq, cfg)
        tilt = estimate_tilt_constant(f, reg, pq, NORMS, dirs, cfg, seed=3)
        loja = estimate_loja_constant(f, reg, pq, NORMS, dirs, cfg, seed=3)

        calls = []

        def counting(f_, xi, region_, cfg_):
            # one stacked call: each row of the stack is one tilted solve
            calls.extend(row.tobytes() for row in np.asarray(xi, dtype=float))
            return argmin_tilted(f_, xi, region_, cfg_)

        monkeypatch.setattr(diagnostics, "argmin_tilted", counting)
        report = run_diagnostics(f, reg, pq, cfg, NORMS, dirs, seed=3)
        assert len(calls) == len(NORMS) * dirs
        assert len(set(calls)) == len(calls)

        assert report.growth.gamma_hat == growth.gamma_hat
        assert report.growth.samples_used == growth.samples_used
        np.testing.assert_array_equal(report.growth.witness, growth.witness)
        assert report.tilt.kappa_hat == tilt.kappa_hat
        np.testing.assert_array_equal(report.tilt.worst_tilt, tilt.worst_tilt)
        np.testing.assert_array_equal(report.tilt.worst_minimizer, tilt.worst_minimizer)
        assert report.loja.mu_hat == loja.mu_hat
        np.testing.assert_array_equal(report.loja.worst_tilt, loja.worst_tilt)


class TestSharedPairReduction:
    """The tilt estimators and the graph checks take the same worst ratio
    over the pairs of one tilt sample."""

    CASES = {
        "power-1.01": (power_oracle(1.01), ExponentPair.from_p(1.01), 1),
        "power-1.5": (power_oracle(1.5), ExponentPair.from_p(1.5), 1),
        "power-2": (power_oracle(2.0), P2, 1),
        "power-3": (power_oracle(3.0), P3, 1),
        "halfpower": (halfpower_oracle(2.0), P2, 1),
        "boxquad": (boxquad_oracle(1.0), P2, 1),
        "maxsq2d": (maxsq2d_oracle(), P2, 2),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_estimates_equal_graph_check_worst_ratios(self, case):
        f, pq, dim = self.CASES[case]
        dirs, cfg = (2, CFG_SMALL) if dim == 1 else (8, SolverConfig(grid_points_per_axis=41))
        reg = region(2.0, dim)
        xbar = reg.center
        tilts = diagnostics._tilt_samples(dim, NORMS, dirs, 0)
        pairs = sample_subdifferential_graph(f, reg, tilts, cfg)

        tilt = estimate_tilt_constant(f, reg, pq, NORMS, dirs, cfg)
        sub = check_subregularity(pairs, xbar, pq, tilt.kappa_hat)
        assert tilt.kappa_hat > 0.0
        assert sub.passed and sub.worst_ratio == tilt.kappa_hat
        np.testing.assert_array_equal(sub.witness_point, tilt.worst_minimizer)
        assert sub.witness_tilt_norm == _norm(tilt.worst_tilt)

        loja = estimate_loja_constant(f, reg, pq, NORMS, dirs, cfg)
        glo = check_global_loja(pairs, f, xbar, pq, loja.mu_hat)
        assert loja.mu_hat > 0.0
        assert glo.passed and glo.worst_ratio == loja.mu_hat
        assert glo.witness_tilt_norm == _norm(loja.worst_tilt)


def _assert_same(new, old):
    """Equal values of the same type, arrays and floats bit for bit."""
    assert type(new) is type(old)
    if isinstance(old, np.ndarray):
        assert (new.dtype, new.shape) == (old.dtype, old.shape)
        assert new.tobytes() == old.tobytes()
    elif isinstance(old, float):
        assert np.float64(new).tobytes() == np.float64(old).tobytes()
    else:
        assert new == old


def _assert_same_fields(new, old):
    for name in new.__dataclass_fields__:
        _assert_same(getattr(new, name), getattr(old, name))


# Pools that repeat pairs (ties at the maximum) and hold base-point,
# zero and rounding-level entries; other coordinates are drawn uniformly.
POINT_POOL = (0.0, 1e-10, -0.5, 0.5, 1.0, -1.25, 2.0)
TILT_POOL = (0.0, 2.220446049250313e-16, -1e-17, 0.5, -0.5, 1.0, 2.0)


def _bowl(pts):
    return np.sum(np.abs(pts) ** 3, axis=1) + pts[:, -1]


def _walled(pts):
    # +inf beyond x_0 = 1.5 and NaN below x_0 = -1.75: both reach the ratios
    v = np.sum(pts * pts, axis=1) - 0.25 * pts[:, 0]
    v = np.where(pts[:, 0] > 1.5, math.inf, v)
    return np.where(pts[:, 0] < -1.75, math.nan, v)


LOJA_ORACLES = {
    "batch-bowl": FunctionOracle.from_batch(_bowl, "bowl"),
    "evaluate-bowl": FunctionOracle(lambda x: float(_bowl(x[None, :])[0]), "bowl"),
    "batch-walled": FunctionOracle.from_batch(_walled, "walled"),
    "evaluate-walled": FunctionOracle(lambda x: float(_walled(x[None, :])[0]), "walled"),
    "constant": FunctionOracle(lambda x: 1.0, "constant"),
    "linear": FunctionOracle.from_batch(lambda pts: pts[:, 0], "linear"),
}


@st.composite
def pair_samples(draw):
    dim = draw(st.sampled_from((1, 2)))
    pq = ExponentPair.from_p(draw(st.floats(1.5, 4.0)))
    n = draw(st.integers(0, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def entries(pool, share):
        pooled = rng.choice(pool, size=(n, dim))
        drawn = rng.uniform(-2.0, 2.0, size=(n, dim))
        return np.where(rng.random((n, 1)) < share, pooled, drawn)

    xbar = np.zeros(dim) if draw(st.booleans()) else np.full(dim, 0.5)
    points = entries(POINT_POOL, draw(st.sampled_from((0.0, 0.5, 1.0))))
    tilts = entries(TILT_POOL, draw(st.sampled_from((0.0, 0.5, 1.0))))
    if n and draw(st.booleans()):
        # pairs at the base point and just inside its exclusion radius
        points[rng.random(n) < 0.2] = xbar
        points[rng.random(n) < 0.1] = xbar + BASE_POINT_EXCLUSION / 2
    if n and draw(st.booleans()):
        # rounding-level tilts beside the sample's largest one
        tilts[rng.random(n) < 0.2] *= TILT_ROUNDING_RTOL
    f = LOJA_ORACLES[draw(st.sampled_from(sorted(LOJA_ORACLES)))]
    return xbar, pq, f, points, tilts, draw(st.sampled_from(("worst", 0.5, 2.0)))


def _evidence_masks(xbar, points, tilts):
    """The pairs farther than the exclusion from ``xbar``, and the pairs
    whose tilt is at rounding level next to the sample's largest tilt."""
    norms = _row_norms(tilts)
    far = _row_norms(points - xbar) > BASE_POINT_EXCLUSION
    return far, norms <= TILT_ROUNDING_RTOL * np.max(norms, initial=0.0)


class TestPairReductionMatchesLoop:
    """The whole-array reductions equal the frozen per-pair loops bitwise:
    the loops under the evidence rule on every sample, and the loops from
    before it wherever the rule skips no pair they count."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(pair_samples())
    def test_graph_checks(self, sample):
        xbar, pq, f, points, tilts, bound = sample
        pairs = tuple(zip(points, tilts))
        far, rounding = _evidence_masks(xbar, points, tilts)
        # the value-gap check refuses f = NaN at a pair it keeps
        kept = points[far & ~rounding]
        nan_kept = len(kept) and np.isnan(f.evaluate_rows(kept)).any()
        cases = [
            (check_subregularity, reference.check_subregularity, (xbar, pq)),
            (check_global_loja, reference.check_global_loja_skipping, (f, xbar, pq)),
        ]
        if far.all():  # the old loop skipped rounding-level tilts too
            cases.append((check_global_loja, reference.check_global_loja, (f, xbar, pq)))
        for check, old_check, args in cases:
            if check is check_global_loja and nan_kept:
                with pytest.raises(NonFiniteValue, match="nan"):
                    check(pairs, *args, 1.0)
                continue
            b = bound
            if b == "worst":  # the ratio ties its bound
                b = old_check(pairs, *args, 1.0).worst_ratio
                b = 1.0 if b is None else b
            _assert_same_fields(check(pairs, *args, b), old_check(pairs, *args, b))

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(pair_samples())
    def test_estimators(self, sample):
        xbar, pq, f, points, tilts, _ = sample
        pairs = tuple(zip(points, tilts))
        far, rounding = _evidence_masks(xbar, points, tilts)
        tilt = diagnostics._tilt_estimate(points, tilts, xbar, pq)
        _assert_same_fields(tilt, reference.tilt_estimate_skipping(pairs, xbar, pq))
        if far.all():
            _assert_same_fields(tilt, reference.tilt_estimate(pairs, xbar, pq))

        kept = points[far & ~rounding]
        if len(kept) and np.isnan(f.evaluate_rows(kept)).any():
            with pytest.raises(NonFiniteValue, match="nan"):
                diagnostics._loja_estimate(points, tilts, f, xbar, pq)
            return
        loja = diagnostics._loja_estimate(points, tilts, f, xbar, pq)
        _assert_same_fields(loja, reference.loja_estimate_skipping(pairs, f, xbar, pq))
        # the old loop divided by every tilt, zero tilts included
        if far.all() and not rounding.any():
            _assert_same_fields(loja, reference.loja_estimate(pairs, f, f(xbar), xbar, pq))

    def test_skips_ties_and_non_finite_values(self):
        pq, xbar = P2, np.zeros(1)
        points = np.array([[0.0], [0.5], [-0.5], [0.5], [1.6], [-1.8]])
        tilts = np.array([[1.0], [2.220446049250313e-16], [1.0], [-1.0], [0.5], [2.0]])
        pairs = tuple(zip(points, tilts))
        # the base-point pair is skipped; the rounding-level tilt wins
        sub = check_subregularity(pairs, xbar, pq, 1.0)
        assert sub.witness_tilt_norm == tilts[1, 0]
        _assert_same_fields(sub, reference.check_subregularity(pairs, xbar, pq, 1.0))
        # the rounding-level tilt is skipped; f = +inf at x = 1.6 wins
        f = LOJA_ORACLES["batch-walled"]
        glo = check_global_loja(pairs[:5], f, xbar, pq, 1.0)
        assert glo.worst_ratio == math.inf and glo.witness_point[0] == 1.6
        _assert_same_fields(glo, reference.check_global_loja(pairs[:5], f, xbar, pq, 1.0))
        # of two equal ratios the first pair wins
        tied = check_subregularity(pairs[2:4], xbar, pq, 1.0)
        assert tied.worst_ratio == 0.5 and tied.witness_point[0] == -0.5
        # f = NaN at x = -1.8 is refused whatever the pair order
        for nan_pairs in (pairs[2:], pairs[5:] + pairs[:4]):
            with pytest.raises(NonFiniteValue, match=r"nan at \[-1\.8\]"):
                check_global_loja(nan_pairs, f, xbar, pq, 1.0)


ESTIMATE = st.one_of(st.just(0.0), st.floats(0.0, 10.0, exclude_min=True))


# Estimates from 0 and the smallest subnormal up to 1e300, so that
# slacks underflow and overflow.
EXTREME_ESTIMATE = st.one_of(
    st.just(0.0), st.just(5e-324), st.just(1e300), st.floats(5e-324, 1e300),
    st.builds(lambda e: 10.0**e, st.floats(-323.0, 300.0)),
)


def _assert_matches_frozen_audit(g, k, m, pq):
    """``check_equivalence`` equals the frozen copy bitwise where the copy
    returns.  Where the copy raises, that relation takes the IEEE limit:
    ``gamma_vs_mu`` fails at slack ``inf`` when ``mu_hat * gamma_hat``
    underflows to 0; ``kappa_vs_gamma`` fails at ``inf`` when
    ``gamma_hat ** (q/p)`` overflows, or passes at 0 when ``kappa_hat = 0``."""
    new = check_equivalence(g, k, m, pq)
    assert new.tau == diagnostics.SLACK_FACTOR
    try:
        old = reference.check_equivalence(g, k, m, pq)
    except ZeroDivisionError:
        assert g > 0.0 and m > 0.0 and m * g == 0.0
        assert (new.gamma_vs_mu.slack, new.gamma_vs_mu.passed) == (math.inf, False)
        return
    except OverflowError:
        expected = (0.0, True) if k == 0.0 else (math.inf, False)
        assert (new.kappa_vs_gamma.slack, new.kappa_vs_gamma.passed) == expected
        return
    _assert_same_fields(new, old)
    for name in ("kappa_vs_gamma", "mu_vs_kappa", "gamma_vs_mu"):
        _assert_same_fields(getattr(new, name), getattr(old, name))


class TestCheckEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(ESTIMATE, ESTIMATE, ESTIMATE, st.floats(1.5, 4.0))
    def test_matches_frozen_reference(self, g, k, m, p):
        _assert_matches_frozen_audit(g, k, m, ExponentPair.from_p(p))

    @settings(max_examples=300, deadline=None)
    @given(EXTREME_ESTIMATE, EXTREME_ESTIMATE, EXTREME_ESTIMATE, st.floats(1.001, 4.0))
    def test_total_on_extreme_magnitudes(self, g, k, m, p):
        _assert_matches_frozen_audit(g, k, m, ExponentPair.from_p(p))

    @pytest.mark.parametrize(
        "estimates, p, slacks, passed",
        [((5e-324, 1.0, 5e-324), 2.0, (5e-324, 5e-324, math.inf), False),
         ((1e300, 1.0, 1.0), 1.5, (math.inf, 1.0, 2.9629629629629625e-301), False),
         ((1e300, 0.0, 1.0), 1.5, (0.0, None, 2.9629629629629625e-301), True)],
    )
    def test_underflow_and_overflow_take_the_ieee_limits(self, estimates, p, slacks, passed):
        audit = check_equivalence(*estimates, ExponentPair.from_p(p))
        checks = (audit.kappa_vs_gamma, audit.mu_vs_kappa, audit.gamma_vs_mu)
        assert tuple(c.slack for c in checks) == slacks
        assert audit.all_pass is passed

    def test_quadratic_chain_is_tight(self):
        audit = check_equivalence(1.0, 0.5, 0.25, P2)
        assert audit.all_pass
        assert audit.kappa_vs_gamma.slack == pytest.approx(0.5)
        assert audit.mu_vs_kappa.slack == pytest.approx(0.5)
        assert audit.gamma_vs_mu.slack == pytest.approx(1.0)
        assert not audit.degenerate

    def test_cubic_chain_is_tight(self):
        audit = check_equivalence(1.0, 3.0 ** (-0.5), 3.0 ** (-1.5), P3)
        assert audit.all_pass
        assert audit.gamma_vs_mu.slack == pytest.approx(1.0)

    def test_degenerate_growth_reported_not_failed(self):
        audit = check_equivalence(0.0, 1.4, 0.19, P3)
        assert audit.all_pass
        assert not audit.kappa_vs_gamma.checked
        assert not audit.gamma_vs_mu.checked
        assert any("gamma_hat=0" in note for note in audit.degenerate)

    def test_violated_relation_fails(self):
        audit = check_equivalence(1.0, 2.0, 0.25, P2)  # kappa way above gamma^(-1)
        assert not audit.all_pass
        assert audit.kappa_vs_gamma.passed is False

    @pytest.mark.parametrize(
        "norms, dirs, match",
        [((), 2, "tilt_norms"), ((0.0,), 2, "tilt norms"), (NORMS, 0, "directions_per_norm")],
    )
    def test_run_diagnostics_refuses_before_any_evaluation(self, norms, dirs, match):
        def untouchable(y):
            raise AssertionError("the oracle was evaluated")

        f = FunctionOracle(untouchable, "untouchable")
        with pytest.raises(ValueError, match=match):
            run_diagnostics(f, region(1.0), P2, CFG_SMALL, norms, dirs)


class TestMetricSlope:
    def test_linear_slope_is_coefficient_norm(self):
        phi = FunctionOracle(lambda y: float(1.3 * y[0]), "linear")
        # accuracy limited by cancellation in phi(x) - phi(y) at radius 1e-6
        assert metric_slope(phi, [0.7]) == pytest.approx(1.3, rel=1e-6)

    def test_linear_slope_2d_with_equispaced_directions(self):
        c = np.array([0.6, -0.8])
        phi = FunctionOracle(lambda y: float(c @ y), "linear2")
        assert metric_slope(phi, np.zeros(2)) == pytest.approx(1.0, rel=5e-3)

    def test_no_descent_at_minimum(self):
        phi = FunctionOracle(lambda y: float(abs(y[0])), "abs")
        assert metric_slope(phi, [0.0]) == 0.0

    def test_quadratic_slope_at_one(self):
        phi = FunctionOracle(lambda y: float(y[0] ** 2), "sq")
        assert metric_slope(phi, [1.0]) == pytest.approx(2.0, abs=1e-5)

    def test_outside_domain_is_infinite(self):
        phi = FunctionOracle(lambda y: 0.0 if y[0] >= 1.0 else math.inf, "shifted")
        assert math.isinf(metric_slope(phi, [0.0]))

    def test_matches_direction_by_direction_probe(self):
        # a hinge cut off by an indicator: some probes are +inf and skipped
        phi = FunctionOracle(
            lambda y: float(0.7 * max(y[0], 0.0) - 0.2 * y[1]) if y[1] < 1.0000005 else math.inf,
            "hinge-slab",
        )
        x = np.array([0.0, 1.0])
        r = diagnostics.SLOPE_RADIUS
        dirs = unit_directions(2, diagnostics.DEFAULT_SLOPE_DIRECTIONS)
        expected = 0.0
        for u in dirs:
            val = phi(x + r * u)
            if math.isfinite(val):
                expected = max(expected, max(0.0, phi(x) - val) / r)
        assert metric_slope(phi, x) == expected
        assert any(math.isinf(phi(x + r * u)) for u in dirs)

    @pytest.mark.parametrize(
        "value",
        (
            # NaN or -inf at a probe right of 0
            lambda y: math.nan if y[0] > 0.0 else 0.0,
            lambda y: -math.inf if y[0] > 0.0 else 0.0,
            # NaN or -inf at the base point, |y| elsewhere
            lambda y: math.nan if y[0] == 0.0 else abs(y[0]),
            lambda y: -math.inf if y[0] == 0.0 else abs(y[0]),
        ),
        ids=("nan-probe", "neginf-probe", "nan-base", "neginf-base"),
    )
    def test_nan_or_negative_infinity_is_an_error(self, value):
        # only +inf means "outside the domain"; no slope is read off the rest
        phi = FunctionOracle(value, "improper")
        with pytest.raises(ValueError, match="improper"):
            metric_slope(phi, [0.0])

    def test_negative_infinity_at_base_is_not_outside_the_domain(self):
        phi = FunctionOracle(lambda y: -math.inf if y[0] == 0.0 else 0.0, "improper")
        with pytest.raises(ValueError, match="returned -inf"):
            convex_probe(power_oracle(2.0), ORIGIN, region(1.0), phi, 2.0, 1.0, CFG_SMALL)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((1, 2)),
    st.sampled_from(("finite", "walled", "hinge")),
    st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=5, max_size=5),
)
def test_metric_slope_matches_frozen_reference_bitwise(dim, kind, coefs):
    """The slope probes only the radius whose estimate the frozen
    per-radius sequence reported, and equals that estimate bitwise."""
    a, b, c = coefs[:3]

    def finite(y):
        return float(a * abs(y[0]) + b * y[-1] + c * y[0] ** 2)

    value = {
        # the wall cuts the probe sphere, or leaves the base point outside
        "walled": lambda y: finite(y) if y[0] <= 1e-6 * c else math.inf,
        "hinge": lambda y: float(a * max(y[0], 0.0) - b * y[-1]),
    }.get(kind, finite)
    phi = FunctionOracle(value, kind)
    x = 1e-6 * np.array(coefs[3:3 + dim])
    old, _ = reference.metric_slope(phi, x)
    assert np.float64(metric_slope(phi, x)).tobytes() == np.float64(old).tobytes()


class TestProbes:
    def test_constant_perturbation_passes_any_kappa(self):
        f = power_oracle(2.0)
        zeta = FunctionOracle(lambda y: 3.0, "const", known_constants={"lip": 0.0})
        probe = lipschitz_probe(f, ORIGIN, region(1.0), zeta, 1.0, 0.0, CFG_SMALL)
        assert probe.passed
        assert probe.worst_distance <= 1e-9

    def test_kink_perturbation_pass_and_fail(self):
        f = power_oracle(2.0)
        zeta = FunctionOracle(
            lambda y: float(0.2 * abs(y[0] - 1.0)), "kink", known_constants={"lip": 0.2}
        )
        ok = lipschitz_probe(f, ORIGIN, region(1.0), zeta, 1.0, 0.55, CFG_SMALL)
        assert ok.passed
        assert ok.worst_distance == pytest.approx(0.1, abs=1e-8)
        bad = lipschitz_probe(f, ORIGIN, region(1.0), zeta, 1.0, 0.4, CFG_SMALL)
        assert not bad.passed
        assert bad.witness[0] == pytest.approx(0.1, abs=1e-8)

    def test_missing_lipschitz_metadata(self):
        f = power_oracle(2.0)
        zeta = FunctionOracle(lambda y: 0.0, "bare")
        with pytest.raises(ValueError):
            lipschitz_probe(f, ORIGIN, region(1.0), zeta, 1.0, 1.0, CFG_SMALL)

    def test_linear_convex_perturbation_matches_tilt(self):
        f = power_oracle(2.0)
        c = 0.3
        phi = FunctionOracle(lambda y: float(c * y[0]), "linear")
        probe = convex_probe(f, ORIGIN, region(1.0), phi, 1.0, 0.55, CFG_SMALL)
        assert probe.passed
        assert probe.perturbation_size == pytest.approx(c, rel=1e-12)
        (tilted,) = argmin_tilted(f, [[-c]], region(1.0), CFG_SMALL)
        assert probe.witness[0] == pytest.approx(tilted.representative[0], abs=1e-9)

    def test_indicator_excluding_base_point(self):
        f = power_oracle(2.0)
        phi = FunctionOracle(lambda y: 0.0 if -1.0 <= y[0] <= -0.3 else math.inf, "slab")
        with pytest.raises(SlopeInfinite):
            convex_probe(f, ORIGIN, region(1.0), phi, 1.0, 1.0, CFG_SMALL)

    def test_hinge_with_zero_slope_passes(self):
        f = power_oracle(2.0)
        phi = FunctionOracle(lambda y: float(0.2 * max(-y[0], 0.0)), "hinge")
        probe = convex_probe(f, ORIGIN, region(1.0), phi, 1.0, 0.0, CFG_SMALL)
        assert probe.perturbation_size == 0.0
        assert probe.passed

    @pytest.mark.parametrize("kappa", (1.0, 0.0))
    def test_overflowing_power_bound(self, kappa):
        # 1e200**2 and 1e300**2 overflow a float: the bound is inf, which
        # every minimizer lies within, except at kappa = 0, where it is 0
        f = power_oracle(2.0)
        zeta = FunctionOracle(lambda y: 3.0, "const", known_constants={"lip": 1e200})
        phi = FunctionOracle(lambda y: float(1e300 * y[0]), "steep")
        lip = lipschitz_probe(f, ORIGIN, region(1.0), zeta, 2.0, kappa, CFG_SMALL)
        cvx = convex_probe(f, ORIGIN, region(1.0), phi, 2.0, kappa, CFG_SMALL)
        bound = math.inf if kappa else 0.0
        assert (lip.bound, cvx.bound) == (bound, bound)
        # the constant leaves the minimizer at the center, the slope pushes
        # it to the sphere
        assert lip.passed and cvx.worst_distance == 1.0
        assert cvx.passed is (bound == math.inf)

    @pytest.fixture
    def no_solve(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a refused probe must not solve")

        monkeypatch.setattr(diagnostics, "argmin_perturbed", refuse)

    @pytest.mark.parametrize("lip", (-1.0, math.nan, math.inf))
    def test_lip_not_finite_and_nonnegative_is_refused(self, lip, no_solve):
        # at lip = -1 the bound was a complex power, at nan a nan bound
        zeta = FunctionOracle(lambda y: 3.0, "const", known_constants={"lip": lip})
        with pytest.raises(ValueError, match="lip"):
            lipschitz_probe(power_oracle(2.0), ORIGIN, region(1.0), zeta, 0.5, 1.0, CFG_SMALL)

    @pytest.mark.parametrize("probe", (lipschitz_probe, convex_probe))
    @pytest.mark.parametrize("kappa", (-1.0, math.nan, math.inf))
    def test_kappa_not_finite_and_nonnegative_is_refused(self, probe, kappa, no_solve):
        # at kappa = -1 the bound was negative
        zeta = FunctionOracle(lambda y: 0.2 * y[0], "linear", known_constants={"lip": 0.2})
        with pytest.raises(ValueError, match="kappa"):
            probe(power_oracle(2.0), ORIGIN, region(1.0), zeta, 0.5, kappa, CFG_SMALL)

    @pytest.mark.parametrize("probe", (lipschitz_probe, convex_probe))
    @pytest.mark.parametrize("lam", (0.0, -1.0, math.nan, math.inf))
    def test_lam_not_finite_and_positive_is_refused(self, probe, lam, no_solve):
        zeta = FunctionOracle(lambda y: 0.2 * y[0], "linear", known_constants={"lip": 0.2})
        with pytest.raises(ValueError, match="lam"):
            probe(power_oracle(2.0), ORIGIN, region(1.0), zeta, lam, 1.0, CFG_SMALL)

    @pytest.mark.parametrize("probe", (lipschitz_probe, convex_probe))
    def test_base_point_must_be_center(self, probe):
        zeta = FunctionOracle(lambda y: 3.0, "const", known_constants={"lip": 0.0})
        with pytest.raises(ValueError, match="^base point must coincide with the region center$"):
            probe(power_oracle(2.0), np.array([0.5]), region(1.0), zeta, 1.0, 1.0, CFG_SMALL)


def _probe_by_loop(f, perturbation, xbar, region, size, lam, kappa, cfg):
    """The probes' check as a loop over the minimizers: the first strictly
    farthest one from ``xbar`` is the witness."""
    result = argmin_perturbed(f, perturbation, region, cfg)
    worst, witness = -1.0, xbar
    for x in result.minimizers:
        d = _norm(x - xbar)
        if d > worst:
            worst, witness = d, x
    bound = kappa * size**lam
    passed = worst <= bound + diagnostics.PROBE_DISTANCE_SLACK
    return diagnostics.ProbeResult(passed, bound, worst, witness, size), result.minimizers


def _linear(c):
    c = np.asarray(c, dtype=float)
    return FunctionOracle(lambda y: float(c @ y), f"linear{c.tolist()}")


CFG_2D = SolverConfig(grid_points_per_axis=41)
# (f, perturbation, region, kappa, solver config) per probe
LIPSCHITZ_CASES = [
    (power_oracle(2.0), FunctionOracle(lambda y: 3.0, "const", known_constants={"lip": 0.0}),
     region(1.0), 0.0, CFG_SMALL),
    (power_oracle(2.0), FunctionOracle(lambda y: float(0.2 * abs(y[0] - 1.0)), "kink",
                                       known_constants={"lip": 0.2}), region(1.0), 0.4, CFG_SMALL),
    # minimizers -0.2 and 0.2 at the same distance: the first one is the witness
    (power_oracle(2.0), FunctionOracle(lambda y: float(-0.4 * abs(y[0])), "vee",
                                       known_constants={"lip": 0.4}), region(1.0), 0.5, CFG_SMALL),
    (halfpower_oracle(2.0), FunctionOracle(lambda y: float(0.1 * abs(y[0] + 0.5)), "shifted-vee",
                                           known_constants={"lip": 0.1}), region(1.0), 1.0, CFG_SMALL),
]
CONVEX_CASES = [
    (power_oracle(2.0), _linear([0.3]), region(1.0), 0.55, CFG_SMALL),
    (power_oracle(2.0), FunctionOracle(lambda y: float(0.2 * max(-y[0], 0.0)), "hinge"),
     region(1.0), 0.0, CFG_SMALL),
    # 20 minimizers on a segment, the farthest first
    (maxsq2d_oracle(), _linear([0.0, 0.4]), region(1.0, 2), 7.0, CFG_2D),
    # 28 minimizers, the farthest second
    (maxsq2d_oracle(), _linear([0.0, -0.3]), region(1.0, 2), 1.0, CFG_2D),
    # 5 minimizers on the sphere, four of them at distance 1.0
    (maxsq2d_oracle(), _linear([0.3, -0.2]), region(1.0, 2), 3.0, CFG_2D),
]


class TestProbeMatchesLoop:
    """Each probe equals the minimizer loop it replaced, field by field, with
    the witness compared bitwise."""

    @staticmethod
    def assert_same(probe, expected):
        assert probe.passed is expected.passed
        assert probe.bound == expected.bound
        assert probe.worst_distance == expected.worst_distance
        assert probe.perturbation_size == expected.perturbation_size
        assert probe.witness.dtype == expected.witness.dtype
        assert probe.witness.tobytes() == expected.witness.tobytes()

    @pytest.mark.parametrize("case", range(len(LIPSCHITZ_CASES)))
    def test_lipschitz_probe(self, case):
        f, zeta, reg, kappa, cfg = LIPSCHITZ_CASES[case]
        xbar = np.zeros(reg.dim)
        lip = zeta.known_constants["lip"]
        expected, _ = _probe_by_loop(f, zeta, xbar, reg, lip, 1.0, kappa, cfg)
        self.assert_same(lipschitz_probe(f, xbar, reg, zeta, 1.0, kappa, cfg), expected)

    @pytest.mark.parametrize("case", range(len(CONVEX_CASES)))
    def test_convex_probe(self, case):
        f, phi, reg, kappa, cfg = CONVEX_CASES[case]
        xbar = np.zeros(reg.dim)
        slope = metric_slope(phi, xbar)
        expected, _ = _probe_by_loop(f, phi, xbar, reg, slope, 2.0, kappa, cfg)
        self.assert_same(convex_probe(f, xbar, reg, phi, 2.0, kappa, cfg), expected)

    def test_cases_cover_ties_and_a_later_farthest_point(self):
        # the cases above are only telling if some minimizer sets have
        # several points, an exact tie, and a farthest point after the first
        witness_index, ties = [], []
        for f, g, reg, kappa, cfg in LIPSCHITZ_CASES + CONVEX_CASES:
            xbar = np.zeros(reg.dim)
            expected, minimizers = _probe_by_loop(f, g, xbar, reg, 1.0, 1.0, kappa, cfg)
            dists = [_norm(x - xbar) for x in minimizers]
            witness_index.append(next(i for i, x in enumerate(minimizers) if x is expected.witness))
            ties.append(dists.count(max(dists)) > 1)
        assert any(i > 0 for i in witness_index)
        assert any(ties)


class TestSubdifferentialGraph:
    def test_box_quadratic_pairs(self):
        f = boxquad_oracle(1.0)
        pairs = sample_subdifferential_graph(f, region(1.5), [np.array([1.0])], CFG_SMALL)
        assert len(pairs) >= 1
        x, xi = pairs[0]
        # value-based polish resolves the point to sqrt(eps) scale
        assert x[0] == pytest.approx(0.5, abs=1e-7)
        assert xi[0] == 1.0

    def test_abs_with_box_pairs(self):
        f = FunctionOracle(
            lambda x: float(abs(x[0])) if abs(x[0]) <= 1.0 else math.inf, "absbox"
        )
        pairs = sample_subdifferential_graph(f, region(1.5), [np.array([0.5])], CFG_SMALL)
        for x, xi in pairs:
            assert abs(x[0]) <= 1e-9

    @pytest.mark.parametrize("dim", (1, 2))
    def test_tilt_forms_give_the_pairs_of_one_checked_stack(self, dim):
        f = boxquad_oracle(1.0) if dim == 1 else maxsq2d_oracle()
        reg, cfg = region(1.5, dim), SolverConfig(grid_points_per_axis=101 if dim == 1 else 21)
        rows = [np.array(t[:dim]) for t in ((-1.0, 0.5), (0.0, 0.0), (0.5, -0.25), (0.0, 0.0))]
        stack = np.array(rows)
        expected = diagnostics._tilted_pairs(f, stack, reg, cfg)
        for form in (rows, stack, [list(row) for row in rows]):
            pairs = sample_subdifferential_graph(f, reg, form, cfg)
            assert np.array([x for x, _ in pairs]).tobytes() == expected[0].tobytes()
            assert np.array([xi for _, xi in pairs]).tobytes() == expected[1].tobytes()
        assert sample_subdifferential_graph(f, reg, np.zeros((0, dim)), cfg) == ()

    @pytest.mark.parametrize(
        "tilts",
        (
            [np.array([1.0, 2.0])],  # wrong length
            [np.array([1.0]), np.array([1.0, 2.0])],  # ragged
            [np.array([math.nan])],
            [np.array([0.5]), np.array([math.inf])],
            [np.array([1e200])],  # its square overflows
            [0.5, -0.5],  # scalars: not a stack of (1,) tilts
            [],
        ),
        ids=("wrong-length", "ragged", "nan", "inf", "square-overflows", "scalars", "no-stack"),
    )
    def test_bad_tilts_are_refused_before_any_evaluation(self, tilts):
        def never(x):
            raise AssertionError("the oracle was evaluated")

        with pytest.raises(ValueError):
            sample_subdifferential_graph(
                FunctionOracle(never, "never"), region(1.5), tilts, CFG_SMALL
            )

    def test_zero_tilt_returns_minimizers(self):
        f = boxquad_oracle(1.0)
        pairs = sample_subdifferential_graph(f, region(1.5), [np.zeros(1)], CFG_SMALL)
        for x, xi in pairs:
            assert abs(x[0]) <= 1e-6
            assert np.all(xi == 0.0)

    def test_subregularity_pass_fail_and_vacuous(self):
        f = boxquad_oracle(1.0)
        grid = [np.array([t]) for t in np.linspace(-2.0, 2.0, 41)]
        pairs = sample_subdifferential_graph(f, region(1.5), grid, CFG_SMALL)
        ok = check_subregularity(pairs, ORIGIN, P2, kappa=0.55)
        assert ok.passed and not ok.vacuous
        assert ok.worst_ratio == pytest.approx(0.5, abs=1e-6)
        bad = check_subregularity(pairs, ORIGIN, P2, kappa=0.25)
        assert not bad.passed
        empty = check_subregularity((), ORIGIN, P2, kappa=0.5)
        assert empty.passed and empty.vacuous

    def test_global_loja_pass_fail_and_vacuous(self):
        f = boxquad_oracle(1.0)
        grid = [np.array([t]) for t in np.linspace(-2.0, 2.0, 41)]
        pairs = sample_subdifferential_graph(f, region(1.5), grid, CFG_SMALL)
        ok = check_global_loja(pairs, f, ORIGIN, P2, mu=0.275)
        assert ok.passed and not ok.vacuous
        assert ok.worst_ratio == pytest.approx(0.25, abs=1e-6)
        bad = check_global_loja(pairs, f, ORIGIN, P2, mu=0.1)
        assert not bad.passed
        only_zero = sample_subdifferential_graph(f, region(1.5), [np.zeros(1)], CFG_SMALL)
        vac = check_global_loja(only_zero, f, ORIGIN, P2, mu=0.25)
        assert vac.passed and vac.vacuous

    def test_global_loja_skips_rounding_level_tilt(self):
        f = boxquad_oracle(1.0)
        # x = -2^-25 lies outside the base-point exclusion; 2^-50 is a
        # rounding-level tilt next to 1.5
        pairs = (
            (np.array([-(2.0**-25)]), np.array([2.0**-50])),
            (np.array([0.5]), np.array([1.0])),
            (np.array([-0.75]), np.array([-1.5])),
        )
        check = check_global_loja(pairs, f, ORIGIN, P2, mu=0.275)
        assert check.passed and not check.vacuous
        assert check.worst_ratio == pytest.approx(0.25, rel=1e-12)
        # with no larger tilt beside it, the same norm is evidence: 2^-50 / 2^-100
        alone = check_global_loja(pairs[:1], f, ORIGIN, P2, mu=0.275)
        assert not alone.passed and alone.worst_ratio == 2.0**50

    def test_global_loja_skips_only_the_rounding_level_pair(self):
        f = boxquad_oracle(1.0)
        x = np.array([0.5])
        pairs = ((x, np.array([2.220446049250313e-16])), (x, np.array([1.0])))
        check = check_global_loja(pairs, f, ORIGIN, P2, mu=0.275)
        assert check.passed and not check.vacuous
        assert check.worst_ratio == 0.25
        assert check.witness_tilt_norm == 1.0

    def test_graph_checks_reject_pairs_of_the_wrong_dimension(self):
        pairs = ((np.array([0.5, 0.0]), np.array([1.0, 0.0])),)
        with pytest.raises(ValueError):
            check_subregularity(pairs, [0.5], P2, 0.55)
        with pytest.raises(ValueError):
            check_global_loja(pairs, maxsq2d_oracle(), [0.5], P2, 0.275)
        short_tilt = ((np.array([0.5, 0.0]), np.array([1.0])),)
        with pytest.raises(ValueError):
            check_subregularity(short_tilt, np.zeros(2), P2, 0.55)
        with pytest.raises(ValueError):
            check_global_loja(short_tilt, maxsq2d_oracle(), np.zeros(2), P2, 0.275)

    @pytest.mark.parametrize("where", ("point", "tilt"))
    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_graph_checks_refuse_non_finite_pairs(self, where, bad):
        f = boxquad_oracle(1.0)
        good = (np.array([0.5]), np.array([1.0]))
        broken = (np.array([bad]), good[1]) if where == "point" else (good[0], np.array([bad]))
        # whatever its place in the sample, and however few good pairs surround it
        for pairs in ((broken, good), (good, broken), (good, broken, good)):
            with pytest.raises(ValueError, match="finite"):
                check_subregularity(pairs, ORIGIN, P2, 0.55)
            with pytest.raises(ValueError, match="finite"):
                check_global_loja(pairs, f, ORIGIN, P2, 0.275)

    @pytest.mark.parametrize("dim", (1, 2))
    def test_graph_checks_refuse_a_tilt_whose_square_overflows(self, dim):
        def never(x):
            raise AssertionError("the oracle was evaluated")

        f, xbar = FunctionOracle(never, "never"), np.zeros(dim)
        good = (np.full(dim, 0.5), np.full(dim, 1.0))
        # 1e200 in every coordinate: the norm is finite, its square is not
        broken = (good[0], np.full(dim, 1e200))
        nrm = math.hypot(*broken[1])
        assert math.isfinite(nrm)
        message = "^" + re.escape(f"graph pair tilt norm {nrm!r} is too large")
        for pairs in ((broken, good), (good, broken), (good, broken, good)):
            with pytest.raises(ValueError, match=message):
                check_subregularity(pairs, xbar, P2, 0.55)
            with pytest.raises(ValueError, match=message):
                check_global_loja(pairs, f, xbar, P2, 0.275)

    def test_global_loja_on_linspace_tilts(self):
        # the middle tilt of this linspace is 2.2e-16, not 0
        b = 0.75 + 3.5 / 59
        f = boxquad_oracle(b)
        grid = [np.array([t]) for t in np.linspace(-2 * b, 2 * b, 41)]
        pairs = sample_subdifferential_graph(
            f, region(1.5 * b), grid, SolverConfig(grid_points_per_axis=301)
        )
        assert check_global_loja(pairs, f, ORIGIN, P2, mu=0.25 * 1.10).passed
        assert not check_global_loja(pairs, f, ORIGIN, P2, mu=0.25 * 1.10 / 2).passed


class TestUnitDirections:
    def test_one_dimensional_alternation(self):
        np.testing.assert_array_equal(
            unit_directions(1, 4), [[1.0], [-1.0], [1.0], [-1.0]]
        )

    def test_two_dimensional_unit_norm_and_nesting(self):
        small = unit_directions(2, 8)
        large = unit_directions(2, 16)
        np.testing.assert_allclose(np.linalg.norm(large, axis=1), 1.0, rtol=1e-12)
        np.testing.assert_allclose(small, large[::2], atol=1e-15)

    def test_count_below_one_is_refused(self):
        with pytest.raises(ValueError, match="count must be >= 1"):
            unit_directions(2, 0)

    def test_seeded_high_dimensional_prefix(self):
        a = unit_directions(3, 4, seed=7)
        b = unit_directions(3, 8, seed=7)
        np.testing.assert_array_equal(a, b[:4])

    def test_one_block_draw_matches_frozen_loop_bitwise(self):
        for dim in range(3, 17):
            for count in (1, 2, 5, 64):
                for seed in (0, 1, 7, [3, 2], 2**32 - 1):
                    new = unit_directions(dim, count, seed=seed)
                    old = reference.unit_directions(dim, count, seed=seed)
                    assert new.shape == old.shape and new.tobytes() == old.tobytes()
