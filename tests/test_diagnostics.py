"""Tests for the constant estimators, relation audit, slope, probes, and
subdifferential-graph checks."""

import math

import numpy as np
import pytest

from growthlab import diagnostics
from growthlab.catalog import boxquad_oracle, halfpower_oracle, maxsq2d_oracle, power_oracle
from growthlab.core import BallRegion, ExponentPair, FunctionOracle, _norm, indicator, pairing
from growthlab.diagnostics import (
    GrowthEstimate,
    LojaEstimate,
    NegativeGap,
    NoFiniteSamples,
    SlopeInfinite,
    TiltEstimate,
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
from growthlab.minimize import NonFiniteValue, SolverConfig, argmin_ball, argmin_tilted

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
        est = estimate_growth(power_oracle(2.0), ORIGIN, region(1.0), P2, CFG)
        assert est.gamma_hat == pytest.approx(1.0, rel=1e-12)
        assert est.samples_used > 1000

    def test_one_sided_flat_function_gives_zero(self):
        est = estimate_growth(halfpower_oracle(3.0), ORIGIN, region(1.0), P3, CFG)
        assert est.gamma_hat == 0.0
        assert est.witness[0] < 0.0

    def test_infimum_approached_at_base_point(self):
        f = FunctionOracle(lambda x: float(x[0] ** 2 + abs(x[0]) ** 3), "mix")
        est = estimate_growth(f, ORIGIN, region(1.0), P2, CFG)
        assert 1.0 <= est.gamma_hat <= 1.05

    def test_restricted_oracle_recovers_one_sided_growth(self):
        base = halfpower_oracle(3.0)
        restricted = FunctionOracle(
            lambda x: float(base.evaluate(x)) if x[0] >= 0.0 else math.inf,
            "halfpower|x>=0",
        )
        est = estimate_growth(restricted, ORIGIN, region(1.0), P3, CFG)
        assert est.gamma_hat == pytest.approx(1.0, rel=0.05)

    def test_negative_gap_raises(self):
        f = FunctionOracle(lambda x: float((x[0] - 0.5) ** 2), "offcenter")
        with pytest.raises(NegativeGap) as info:
            estimate_growth(f, ORIGIN, region(1.0), P2, CFG_SMALL)
        # the reported witness indeed lies below the base value
        assert f(info.value.point) < f(ORIGIN)

    def test_no_finite_samples(self):
        f = FunctionOracle(
            lambda x: 0.0 if abs(x[0]) <= 1e-10 else math.inf, "point"
        )
        with pytest.raises(NoFiniteSamples):
            estimate_growth(f, ORIGIN, region(1.0), P2, CFG_SMALL)

    def test_minus_infinity_is_refused_not_skipped(self):
        # -inf is not "outside the domain": argmin_ball refuses it, and so
        # must the growth scan
        f = FunctionOracle.from_batch(
            lambda pts: np.where(pts[:, 0] < -0.5, -math.inf, pts[:, 0] ** 2), "sink"
        )
        with pytest.raises(NonFiniteValue, match="-inf"):
            estimate_growth(f, ORIGIN, region(1.0), P2, CFG_SMALL)
        with pytest.raises(NonFiniteValue):
            argmin_ball(f, region(1.0), CFG_SMALL)

    def test_nan_is_refused(self):
        f = FunctionOracle(lambda x: math.nan if x[0] > 0.5 else float(x[0] ** 2), "hole")
        with pytest.raises(NonFiniteValue, match="nan"):
            estimate_growth(f, ORIGIN, region(1.0), P2, CFG_SMALL)

    def test_base_point_must_be_center(self):
        with pytest.raises(ValueError):
            estimate_growth(power_oracle(2.0), np.array([0.5]), region(1.0), P2, CFG_SMALL)

    def test_refined_grid_never_increases_estimate(self):
        f = FunctionOracle(lambda x: float(x[0] ** 2 + abs(x[0]) ** 3), "mix")
        coarse = estimate_growth(f, ORIGIN, region(1.0), P2, SolverConfig(grid_points_per_axis=101))
        fine = estimate_growth(f, ORIGIN, region(1.0), P2, SolverConfig(grid_points_per_axis=201))
        assert fine.gamma_hat <= coarse.gamma_hat + 1e-12


class TestTiltAndLojaEstimates:
    def test_quadratic_constants(self):
        f = power_oracle(2.0)
        tilt = estimate_tilt_constant(f, ORIGIN, region(10.0), P2, NORMS, 2, CFG)
        loja = estimate_loja_constant(f, ORIGIN, region(10.0), P2, NORMS, 2, CFG)
        assert tilt.kappa_hat == pytest.approx(0.5, rel=1e-6)
        assert loja.mu_hat == pytest.approx(0.25, rel=1e-6)

    def test_cubic_constants(self):
        f = power_oracle(3.0)
        tilt = estimate_tilt_constant(f, ORIGIN, region(10.0), P3, NORMS, 2, CFG)
        loja = estimate_loja_constant(f, ORIGIN, region(10.0), P3, NORMS, 2, CFG)
        assert tilt.kappa_hat == pytest.approx(3.0 ** (-0.5), rel=1e-6)
        assert loja.mu_hat == pytest.approx(3.0 ** (-1.5), rel=1e-6)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_one_sided_bounds_against_growth(self, p):
        pq = ExponentPair.from_p(p)
        f = power_oracle(p)
        growth = estimate_growth(f, ORIGIN, region(10.0), pq, CFG)
        tilt = estimate_tilt_constant(f, ORIGIN, region(10.0), pq, NORMS, 2, CFG)
        loja = estimate_loja_constant(f, ORIGIN, region(10.0), pq, NORMS, 2, CFG)
        assert tilt.kappa_hat <= growth.gamma_hat ** (-pq.q / pq.p) * (1 + 1e-9)
        assert loja.mu_hat <= tilt.kappa_hat * (1 + 1e-9)

    def test_enlarging_samples_never_decreases_estimates(self):
        f = FunctionOracle(lambda x: float(x[0] ** 2 + 0.3 * np.sin(x[0]) ** 2), "bumpy")
        kw = dict(cfg=CFG_SMALL)
        base_t = estimate_tilt_constant(f, ORIGIN, region(5.0), P2, NORMS, 2, **kw)
        more_dirs = estimate_tilt_constant(f, ORIGIN, region(5.0), P2, NORMS, 4, **kw)
        more_norms = estimate_tilt_constant(f, ORIGIN, region(5.0), P2, NORMS + (8.0,), 2, **kw)
        assert more_dirs.kappa_hat >= base_t.kappa_hat
        assert more_norms.kappa_hat >= base_t.kappa_hat
        base_l = estimate_loja_constant(f, ORIGIN, region(5.0), P2, NORMS, 2, **kw)
        more_l = estimate_loja_constant(f, ORIGIN, region(5.0), P2, NORMS + (8.0,), 2, **kw)
        assert more_l.mu_hat >= base_l.mu_hat

    def test_minimizer_value_inequality_along_probes(self):
        # every tilted minimizer x satisfies f(x) - f(0) <= <xi, x - 0>
        f = power_oracle(2.0)
        for xi in (np.array([0.5]), np.array([-1.0]), np.array([2.0])):
            result = argmin_tilted(f, xi, region(10.0), CFG_SMALL)
            for x in result.minimizers:
                assert f(x) - f(ORIGIN) <= pairing(xi, x - ORIGIN) + 1e-8

    def test_rejects_bad_sampling_parameters(self):
        f = power_oracle(2.0)
        with pytest.raises(ValueError):
            estimate_tilt_constant(f, ORIGIN, region(1.0), P2, (0.0,), 2, CFG_SMALL)
        with pytest.raises(ValueError):
            estimate_tilt_constant(f, ORIGIN, region(1.0), P2, NORMS, 0, CFG_SMALL)


class TestSharedTiltedSolves:
    @pytest.mark.parametrize("dim", (1, 2))
    def test_each_tilt_solved_once_with_standalone_results(self, monkeypatch, dim):
        if dim == 1:
            f, pq, cfg, dirs = power_oracle(3.0), P3, CFG_SMALL, 2
        else:
            f, pq, cfg, dirs = maxsq2d_oracle(), P2, SolverConfig(grid_points_per_axis=41), 8
        reg = region(2.0, dim)
        xbar = reg.center
        growth = estimate_growth(f, xbar, reg, pq, cfg)
        tilt = estimate_tilt_constant(f, xbar, reg, pq, NORMS, dirs, cfg, seed=3)
        loja = estimate_loja_constant(f, xbar, reg, pq, NORMS, dirs, cfg, seed=3)

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

        tilt = estimate_tilt_constant(f, xbar, reg, pq, NORMS, dirs, cfg)
        sub = check_subregularity(pairs, xbar, pq, tilt.kappa_hat)
        assert tilt.kappa_hat > 0.0
        assert sub.passed and sub.worst_ratio == tilt.kappa_hat
        np.testing.assert_array_equal(sub.witness_point, tilt.worst_minimizer)
        assert sub.witness_tilt_norm == _norm(tilt.worst_tilt)

        loja = estimate_loja_constant(f, xbar, reg, pq, NORMS, dirs, cfg)
        glo = check_global_loja(pairs, f, xbar, pq, loja.mu_hat)
        assert loja.mu_hat > 0.0
        assert glo.passed and glo.worst_ratio == loja.mu_hat
        assert glo.witness_tilt_norm == _norm(loja.worst_tilt)


class TestCheckEquivalence:
    def test_quadratic_chain_is_tight(self):
        growth = GrowthEstimate(1.0, ORIGIN, 100)
        tilt = TiltEstimate(0.5, np.ones(1), np.array([0.5]))
        loja = LojaEstimate(0.25, np.ones(1))
        audit = check_equivalence(growth, tilt, loja, P2)
        assert audit.all_pass
        assert audit.kappa_vs_gamma.slack == pytest.approx(0.5)
        assert audit.mu_vs_kappa.slack == pytest.approx(0.5)
        assert audit.gamma_vs_mu.slack == pytest.approx(1.0)
        assert not audit.degenerate

    def test_cubic_chain_is_tight(self):
        growth = GrowthEstimate(1.0, ORIGIN, 100)
        tilt = TiltEstimate(3.0 ** (-0.5), np.ones(1), np.array([0.5]))
        loja = LojaEstimate(3.0 ** (-1.5), np.ones(1))
        audit = check_equivalence(growth, tilt, loja, P3)
        assert audit.all_pass
        assert audit.gamma_vs_mu.slack == pytest.approx(1.0)

    def test_degenerate_growth_reported_not_failed(self):
        growth = GrowthEstimate(0.0, np.array([-1.0]), 100)
        tilt = TiltEstimate(1.4, np.ones(1), np.array([-1.0]))
        loja = LojaEstimate(0.19, np.ones(1))
        audit = check_equivalence(growth, tilt, loja, P3)
        assert audit.all_pass
        assert not audit.kappa_vs_gamma.checked
        assert not audit.gamma_vs_mu.checked
        assert any("gamma_hat=0" in note for note in audit.degenerate)

    def test_violated_relation_fails(self):
        growth = GrowthEstimate(1.0, ORIGIN, 100)
        tilt = TiltEstimate(2.0, np.ones(1), np.array([2.0]))  # way above gamma^(-1)
        loja = LojaEstimate(0.25, np.ones(1))
        audit = check_equivalence(growth, tilt, loja, P2)
        assert not audit.all_pass
        assert audit.kappa_vs_gamma.passed is False

    def test_tau_validation(self):
        growth = GrowthEstimate(1.0, ORIGIN, 1)
        tilt = TiltEstimate(0.5, np.ones(1), ORIGIN)
        loja = LojaEstimate(0.25, np.ones(1))
        with pytest.raises(ValueError):
            check_equivalence(growth, tilt, loja, P2, tau=0.9)


class TestMetricSlope:
    def test_linear_slope_is_coefficient_norm(self):
        phi = FunctionOracle(lambda y: float(1.3 * y[0]), "linear")
        est = metric_slope(phi, [0.7])
        # accuracy limited by cancellation in phi(x) - phi(y) at radius 1e-6
        assert est.value == pytest.approx(1.3, rel=1e-6)

    def test_linear_slope_2d_with_equispaced_directions(self):
        c = np.array([0.6, -0.8])
        phi = FunctionOracle(lambda y: float(c @ y), "linear2")
        est = metric_slope(phi, np.zeros(2), directions=128)
        assert est.value == pytest.approx(1.0, rel=5e-3)

    def test_no_descent_at_minimum(self):
        phi = FunctionOracle(lambda y: float(abs(y[0])), "abs")
        assert metric_slope(phi, [0.0]).value == 0.0

    def test_quadratic_slope_at_one(self):
        phi = FunctionOracle(lambda y: float(y[0] ** 2), "sq")
        est = metric_slope(phi, [1.0])
        assert est.value == pytest.approx(2.0, abs=1e-5)
        # the per-radius sequence approaches the limit from below
        values = [s for _, s in est.per_radius]
        assert values == sorted(values)

    def test_outside_domain_is_infinite(self):
        phi = FunctionOracle(indicator(lambda y: y[0] >= 1.0), "shifted")
        est = metric_slope(phi, [0.0])
        assert math.isinf(est.value)
        assert est.per_radius == ()

    def test_matches_direction_by_direction_probe(self):
        # a hinge cut off by an indicator: some probes are +inf and skipped
        phi = FunctionOracle(
            lambda y: float(0.7 * max(y[0], 0.0) - 0.2 * y[1]) if y[1] < 1.00005 else math.inf,
            "hinge-slab",
        )
        x = np.array([0.0, 1.0])
        est = metric_slope(phi, x, directions=16)
        dirs = unit_directions(2, 16)
        expected = []
        for r in diagnostics.DEFAULT_SLOPE_RADII:
            best = 0.0
            for u in dirs:
                val = phi(x + r * u)
                if math.isfinite(val):
                    best = max(best, max(0.0, phi(x) - val) / r)
            expected.append((r, best))
        assert est.per_radius == tuple(expected)
        assert any(math.isinf(phi(x + 1e-2 * u)) for u in dirs)

    def test_nan_probe_is_an_error(self):
        phi = FunctionOracle(lambda y: math.nan if y[0] > 0.0 else 0.0, "nan-right")
        with pytest.raises(ValueError):
            metric_slope(phi, [0.0])

    def test_radii_must_decrease(self):
        phi = FunctionOracle(lambda y: float(y[0]), "lin")
        with pytest.raises(ValueError):
            metric_slope(phi, [0.0], probe_radii=(1e-3, 1e-2))


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
        tilted = argmin_tilted(f, [-c], region(1.0), CFG_SMALL)
        assert probe.witness[0] == pytest.approx(tilted.representative[0], abs=1e-9)

    def test_indicator_excluding_base_point(self):
        f = power_oracle(2.0)
        phi = FunctionOracle(indicator(lambda y: -1.0 <= y[0] <= -0.3), "slab")
        with pytest.raises(SlopeInfinite):
            convex_probe(f, ORIGIN, region(1.0), phi, 1.0, 1.0, CFG_SMALL)

    def test_hinge_with_zero_slope_passes(self):
        f = power_oracle(2.0)
        phi = FunctionOracle(lambda y: float(0.2 * max(-y[0], 0.0)), "hinge")
        probe = convex_probe(f, ORIGIN, region(1.0), phi, 1.0, 0.0, CFG_SMALL)
        assert probe.perturbation_size == 0.0
        assert probe.passed


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
        tiny = np.array([2.220446049250313e-16])
        pairs = (
            (-tiny, tiny),
            (np.array([0.5]), np.array([1.0])),
            (np.array([-0.75]), np.array([-1.5])),
        )
        check = check_global_loja(pairs, f, ORIGIN, P2, mu=0.275)
        assert check.passed and not check.vacuous
        assert check.worst_ratio == pytest.approx(0.25, rel=1e-12)
        # with no larger tilt beside it, the same norm is evidence (ratio 1)
        alone = check_global_loja(pairs[:1], f, ORIGIN, P2, mu=0.275)
        assert not alone.passed and alone.worst_ratio == pytest.approx(1.0)

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

    def test_seeded_high_dimensional_prefix(self):
        a = unit_directions(3, 4, seed=7)
        b = unit_directions(3, 8, seed=7)
        np.testing.assert_array_equal(a, b[:4])
