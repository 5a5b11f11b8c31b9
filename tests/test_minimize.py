"""Tests for the ball-constrained global solver."""

import math

import numpy as np
import pytest

from growthlab import minimize
from growthlab.core import BallRegion, FunctionOracle, indicator, pairing
from growthlab.minimize import (
    AllInfinite,
    NonFiniteValue,
    SolverConfig,
    argmin_ball,
    argmin_perturbed,
    argmin_tilted,
    ball_grid,
)

SQUARE = FunctionOracle(lambda x: float(x[0] ** 2), "square")
CFG = SolverConfig(grid_points_per_axis=101)


def unit_ball(dim=1, radius=1.0):
    return BallRegion(np.zeros(dim), radius)


class TestArgminBall:
    def test_strict_minimum_at_center(self):
        res = argmin_ball(SQUARE, unit_ball(), CFG)
        assert abs(res.min_value) <= 1e-12
        for m in res.minimizers:
            assert abs(m[0]) <= 1e-6

    def test_linear_objective_attains_boundary(self):
        f = FunctionOracle(lambda x: float(-x[0]), "neg")
        res = argmin_ball(f, unit_ball(), CFG)
        np.testing.assert_allclose(res.representative, [1.0], atol=1e-9)
        assert res.min_value == pytest.approx(-1.0, abs=1e-9)

    def test_flat_segment_reported_at_grid_resolution(self):
        f = FunctionOracle(
            lambda x: float(max(x[0], 0.0) ** 2 + x[1] ** 2), "maxsq"
        )
        res = argmin_ball(f, unit_ball(dim=2), SolverConfig(grid_points_per_axis=41))
        assert res.min_value == pytest.approx(0.0, abs=1e-12)
        on_segment = [m for m in res.minimizers if m[0] <= 1e-9 and abs(m[1]) <= 1e-9]
        # all 21 grid points with x1 <= 0, x2 = 0 are minimizers
        assert len(on_segment) >= 20

    def test_all_infinite(self):
        f = FunctionOracle(indicator(lambda x: x[0] > 5.0), "far")
        with pytest.raises(AllInfinite):
            argmin_ball(f, unit_ball(), CFG)

    def test_nan_rejected(self):
        f = FunctionOracle(lambda x: math.nan, "bad")
        with pytest.raises(NonFiniteValue):
            argmin_ball(f, unit_ball(), CFG)

    def test_dimension_cap(self):
        f = FunctionOracle(lambda x: float(np.sum(x**2)), "sumsq")
        with pytest.raises(ValueError):
            argmin_ball(f, unit_ball(dim=5), SolverConfig(grid_points_per_axis=3))

    def test_minimizers_lie_in_ball_and_within_value_tolerance(self):
        f = FunctionOracle(lambda x: float(np.cos(5 * x[0]) + x[0] ** 2), "wiggle")
        region = unit_ball(radius=2.0)
        res = argmin_ball(f, region, CFG)
        tol = CFG.minimizer_value_tolerance
        for m in res.minimizers:
            assert np.linalg.norm(m) <= region.radius + 1e-12
            assert f(m) <= res.min_value + tol * (1.0 + abs(res.min_value)) + 1e-15

    def test_near_optimality_against_grid_samples(self):
        f = FunctionOracle(lambda x: float(abs(x[0] - 0.3) ** 1.5), "kink")
        region = unit_ball()
        res = argmin_ball(f, region, CFG)
        best = res.representative
        tol = CFG.minimizer_value_tolerance
        for y in ball_grid(region, CFG.grid_points_per_axis):
            assert f(best) <= f(y) + tol * (1.0 + abs(f(best)))

    def test_monotone_refinement(self):
        f = FunctionOracle(lambda x: float((x[0] - 0.123) ** 2), "shifted")
        coarse = argmin_ball(f, unit_ball(), SolverConfig(grid_points_per_axis=101))
        fine = argmin_ball(f, unit_ball(), SolverConfig(grid_points_per_axis=201))
        tol = CFG.minimizer_value_tolerance
        assert fine.min_value <= coarse.min_value + tol * (1 + abs(coarse.min_value))


class TestArgminTilted:
    def test_quadratic_stationarity(self):
        res = argmin_tilted(SQUARE, [1.0], unit_ball(), CFG)
        np.testing.assert_allclose(res.representative, [0.5], atol=1e-9)
        assert res.min_value == pytest.approx(-0.25, abs=1e-9)

    def test_cubic_stationarity(self):
        f = FunctionOracle(lambda x: float(abs(x[0]) ** 3), "cube")
        res = argmin_tilted(f, [3.0], unit_ball(radius=2.0), CFG)
        np.testing.assert_allclose(res.representative, [1.0], atol=1e-7)

    def test_zero_tilt_matches_argmin_ball_bitwise(self):
        f = FunctionOracle(lambda x: float(np.sin(3 * x[0]) + x[0] ** 2), "mixed")
        tilted = argmin_tilted(f, [0.0], unit_ball(), CFG)
        plain = argmin_ball(f, unit_ball(), CFG)
        assert tilted.min_value == plain.min_value
        assert len(tilted.minimizers) == len(plain.minimizers)
        for a, b in zip(tilted.minimizers, plain.minimizers):
            np.testing.assert_array_equal(a, b)

    def test_tilt_shift_identity_is_structural(self):
        # same code path as minimizing the manually tilted oracle
        xi = np.array([0.7])
        f = FunctionOracle(lambda x: float(x[0] ** 4 + x[0] ** 2), "quartic")
        manual = FunctionOracle(
            lambda y: float(f.evaluate(y)) - pairing(xi, y), "manual"
        )
        via_tilt = argmin_tilted(f, xi, unit_ball(), CFG)
        via_ball = argmin_ball(manual, unit_ball(), CFG)
        assert via_tilt.min_value == via_ball.min_value
        for a, b in zip(via_tilt.minimizers, via_ball.minimizers):
            np.testing.assert_array_equal(a, b)


class TestArgminPerturbed:
    def test_zero_perturbation_is_identity(self):
        zero = FunctionOracle(lambda x: 0.0, "zero")
        perturbed = argmin_perturbed(SQUARE, zero, unit_ball(), CFG)
        plain = argmin_ball(SQUARE, unit_ball(), CFG)
        assert perturbed.min_value == plain.min_value
        for a, b in zip(perturbed.minimizers, plain.minimizers):
            np.testing.assert_array_equal(a, b)

    def test_quadratic_penalty_stationarity(self):
        g = FunctionOracle(lambda y: float(0.25 * (y[0] - 1.0) ** 2), "penalty")
        res = argmin_perturbed(SQUARE, g, unit_ball(), CFG)
        np.testing.assert_allclose(res.representative, [0.2], atol=1e-9)

    def test_convex_indicator_projects(self):
        g = FunctionOracle(indicator(lambda y: 0.5 <= y[0] <= 1.0), "box")
        res = argmin_perturbed(SQUARE, g, unit_ball(), CFG)
        np.testing.assert_allclose(res.representative, [0.5], atol=1e-9)


class TestBallGrid:
    def test_points_inside_ball_only(self):
        region = BallRegion(np.array([1.0, -1.0]), 0.7)
        pts = ball_grid(region, 21)
        assert len(pts) > 0
        dist = np.linalg.norm(pts - region.center, axis=1)
        assert np.all(dist <= region.radius + 1e-12)

    def test_public_grid_is_a_fresh_writable_copy(self):
        region = BallRegion(np.array([0.5, 0.25]), 1.0)
        first = ball_grid(region, 21)
        assert first.flags.writeable
        first[:] = 99.0
        second = ball_grid(region, 21)
        assert second is not first
        assert np.all(np.abs(second) <= 2.0)

    def test_memoized_grid_matches_fresh_build_bitwise(self):
        # frozen copy of the grid construction before memoization
        region = BallRegion(np.array([0.3, -0.7]), 1.3)
        axes = [np.linspace(c - 1.3, c + 1.3, 41) for c in region.center]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        keep = np.linalg.norm(pts - region.center, axis=1) <= 1.3 + 1e-12 * 1.3
        cached = minimize._ball_grid(tuple(region.center), region.radius, 41)
        assert not cached.flags.writeable
        np.testing.assert_array_equal(cached, pts[keep])
        np.testing.assert_array_equal(ball_grid(region, 41), pts[keep])

    def test_argmin_ball_unchanged_by_cached_grid(self):
        f = FunctionOracle(lambda x: float(np.cos(4 * x[0]) + x[1] ** 2), "wave")
        region = unit_ball(dim=2)
        cfg = SolverConfig(grid_points_per_axis=41)
        minimize._ball_grid.cache_clear()
        cold = argmin_ball(f, region, cfg)
        warm = argmin_ball(f, region, cfg)
        assert minimize._ball_grid.cache_info().hits >= 1
        assert warm.min_value == cold.min_value
        assert warm.evaluations == cold.evaluations
        assert len(warm.minimizers) == len(cold.minimizers)
        for a, b in zip(warm.minimizers, cold.minimizers):
            np.testing.assert_array_equal(a, b)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(grid_points_per_axis=2)
        with pytest.raises(ValueError):
            SolverConfig(multistart_count=-1)
        with pytest.raises(ValueError):
            SolverConfig(minimizer_value_tolerance=0.0)
