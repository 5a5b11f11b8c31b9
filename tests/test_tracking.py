"""Tests for the elliptic tracking problem: PDE solvers, optimality
structure, curvature estimate, and the target-perturbation sweep."""

import math

import numpy as np
import pytest

from _reference import neg_laplacian as _neg_laplacian
from growthlab import tracking as trk
from growthlab.tracking import (
    DescentConfig,
    Grid2D,
    LinearSolveFailure,
    NewtonDivergence,
    default_target,
    l2_inner,
    l2_norm,
    objective,
    perturbation_sweep,
    second_order_form,
    sine_combination,
    solve_adjoint,
    solve_linearized,
    solve_state,
    solve_tracking,
    ssc_estimate,
)

GRID = Grid2D(16)
ALPHA, BETA = 0.0, 8.0


def sinbump(grid):
    x1, x2 = grid.nodes()
    return np.sin(np.pi * x1) * np.sin(np.pi * x2)


@pytest.fixture(scope="module")
def default_solution():
    y_d = 0.6 * default_target(GRID)
    res = solve_tracking(y_d, GRID, ALPHA, BETA, DescentConfig(tol=1e-8))
    return y_d, res


class TestStateSolver:
    def test_zero_control_gives_zero_state(self):
        y = solve_state(np.zeros((16, 16)), GRID)
        np.testing.assert_array_equal(y, np.zeros((16, 16)))

    def test_manufactured_solution_second_order(self):
        errors = {}
        for n in (16, 32):
            grid = Grid2D(n)
            ystar = sinbump(grid)
            u = 2.0 * np.pi**2 * ystar + ystar**3
            y = solve_state(u, grid)
            errors[n] = l2_norm(y - ystar, grid)
        ratio = errors[16] / errors[32]
        assert 3.3 <= ratio <= 4.7

    def test_manufactured_solution_order_on_finer_grids(self):
        # same bounds as the acceptance order check, one octave further
        errors = {}
        for n in (32, 64, 128):
            grid = Grid2D(n)
            ystar = sinbump(grid)
            u = 2.0 * np.pi**2 * ystar + ystar**3
            y = solve_state(u, grid)
            residual = grid.h * np.linalg.norm(
                _neg_laplacian(n) @ y.ravel() + y.ravel() ** 3 - u.ravel()
            )
            assert residual <= 1e-10
            errors[n] = l2_norm(y - ystar, grid)
        assert 3.3 <= errors[32] / errors[64] <= 4.7
        assert 3.3 <= errors[64] / errors[128] <= 4.7

    def test_discrete_maximum_principle_positivity(self):
        y = solve_state(np.full((16, 16), 2.0), GRID)
        assert np.all(y > 0.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid2D(3)
        with pytest.raises(ValueError):
            solve_state(np.zeros((4, 4)), GRID)


class TestAdjointAndLinearized:
    def test_perfect_tracking_gives_zero_adjoint(self):
        u = np.full((16, 16), 1.5)
        y = solve_state(u, GRID)
        p = solve_adjoint(y, y, GRID)
        np.testing.assert_array_equal(p, np.zeros((16, 16)))

    def test_poisson_positivity(self):
        # rhs y - y_d = +1 with zero state: p solves -lap(p) = 1
        p = solve_adjoint(np.zeros((16, 16)), np.full((16, 16), -1.0), GRID)
        assert np.all(p > 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        y_d = 0.5 * sinbump(GRID)
        t = 1e-5
        for _ in range(5):
            u = rng.uniform(ALPHA, BETA, (16, 16))
            v = rng.standard_normal((16, 16))
            p = solve_adjoint(solve_state(u, GRID), y_d, GRID)
            fd = (objective(u + t * v, y_d, GRID) - objective(u - t * v, y_d, GRID)) / (2 * t)
            jval = objective(u, y_d, GRID)
            assert abs(l2_inner(p, v, GRID) - fd) <= 1e-6 * (1.0 + abs(jval))

    def test_linearized_zero_and_exact_scaling(self):
        y = solve_state(np.full((16, 16), 1.0), GRID)
        z0 = solve_linearized(np.zeros((16, 16)), y, GRID)
        np.testing.assert_array_equal(z0, np.zeros((16, 16)))
        v = sinbump(GRID)
        z1 = solve_linearized(v, y, GRID)
        z2 = solve_linearized(2.0 * v, y, GRID)
        np.testing.assert_array_equal(z2, 2.0 * z1)

    def test_linearized_is_tangent_to_state_map(self):
        rng = np.random.default_rng(5)
        u = np.full((16, 16), 1.0)
        y = solve_state(u, GRID, tol=1e-12)
        v = rng.standard_normal((16, 16))
        z = solve_linearized(v, y, GRID)
        errs = [
            l2_norm(solve_state(u + t * v, GRID, tol=1e-12) - y - t * z, GRID)
            for t in (2e-2, 1e-2)
        ]
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)

    def test_self_adjointness(self):
        rng = np.random.default_rng(2)
        y = solve_state(np.full((16, 16), 2.0), GRID)
        for _ in range(3):
            v = rng.standard_normal((16, 16))
            w = rng.standard_normal((16, 16))
            zv = solve_linearized(v, y, GRID)
            zw = solve_linearized(w, y, GRID)
            assert abs(l2_inner(zv, w, GRID) - l2_inner(v, zw, GRID)) <= 1e-10


class TestObjectiveAndCurvature:
    def test_perfect_tracking_objective_is_zero(self):
        u = np.full((16, 16), 1.0)
        y_d = solve_state(u, GRID)
        assert objective(u, y_d, GRID) == 0.0

    def test_constant_target_quadrature(self):
        c = 0.7
        val = objective(np.zeros((16, 16)), np.full((16, 16), c), GRID)
        assert val == pytest.approx(0.5 * c**2 * (16 * GRID.h) ** 2, rel=1e-12)
        assert val == pytest.approx(0.5 * c**2, rel=0.15)

    def test_weight_collapses_when_target_is_achieved(self):
        u = np.full((16, 16), 1.5)
        y_d = solve_state(u, GRID)
        v = sinbump(GRID)
        form = second_order_form(u, v, y_d, GRID)
        z = solve_linearized(v, solve_state(u, GRID), GRID)
        assert form == pytest.approx(l2_norm(z, GRID) ** 2, rel=1e-12)
        assert form > 0.0

    def test_zero_direction_gives_zero_form(self):
        u = np.full((16, 16), 1.5)
        assert second_order_form(u, np.zeros((16, 16)), 0.5 * sinbump(GRID), GRID) == 0.0

    def test_second_difference_oracle(self, default_solution):
        # tolerance frozen from the central-difference calibration run
        # (worst observed relative error 2.5e-7 at n=16, 7.6e-7 at n=32)
        y_d, res = default_solution
        rng = np.random.default_rng(3)
        t = 1e-3
        for _ in range(3):
            v = rng.standard_normal((16, 16))
            form = second_order_form(res.control, v, y_d, GRID)
            fd = (
                objective(res.control + t * v, y_d, GRID)
                - 2.0 * objective(res.control, y_d, GRID)
                + objective(res.control - t * v, y_d, GRID)
            ) / t**2
            assert abs(form - fd) <= 1e-5 * abs(form)


class TestSolveTracking:
    def test_attainable_target_recovered(self):
        x1, x2 = GRID.nodes()
        ustar = 1.0 + 0.5 * np.sin(np.pi * x1) * np.sin(np.pi * x2)
        y_d = solve_state(ustar, GRID)
        res = solve_tracking(y_d, GRID, ALPHA, BETA, DescentConfig(tol=1e-8))
        assert res.converged
        assert res.objective_value <= 1e-9

    def test_box_constraints_and_sign_structure(self, default_solution):
        _, res = default_solution
        u, p = res.control, res.adjoint
        assert res.converged
        assert np.all(u >= ALPHA - 1e-12) and np.all(u <= BETA + 1e-12)
        tol = 1e-6
        assert np.all(u[p > tol] <= ALPHA + 1e-8)
        assert np.all(u[p < -tol] >= BETA - 1e-8)
        # both bounds are genuinely active on this instance
        assert np.any(u <= ALPHA + 1e-10) and np.any(u >= BETA - 1e-10)

    def test_saturated_instance_is_bang_bang(self):
        res = solve_tracking(np.full((16, 16), 5.0), GRID, 0.0, 2.0, DescentConfig(tol=1e-8))
        assert np.all(res.control >= 2.0 - 1e-10)
        assert np.all(res.adjoint < 0.0)

    def test_first_order_condition_on_vertex_directions(self, default_solution):
        _, res = default_solution
        u, p = res.control, res.adjoint
        rng = np.random.default_rng(9)
        candidates = [np.full_like(u, ALPHA), np.full_like(u, BETA)]
        candidates += [
            np.where(rng.random(u.shape) < 0.5, ALPHA, BETA) for _ in range(4)
        ]
        for cand in candidates:
            assert l2_inner(p, cand - u, GRID) >= -1e-8

    def test_objective_history_is_monotone(self, default_solution):
        _, res = default_solution
        hist = res.objective_history
        assert len(hist) >= 2
        assert all(b <= a + 1e-30 for a, b in zip(hist, hist[1:]))

    def test_iteration_cap_flags_result(self):
        y_d = 0.6 * default_target(GRID)
        res = solve_tracking(y_d, GRID, ALPHA, BETA, DescentConfig(tol=1e-8, max_iters=3))
        assert not res.converged
        assert res.first_order_residual > 1e-8

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            solve_tracking(np.zeros((16, 16)), GRID, 1.0, 1.0)


class TestCurvatureEstimate:
    def test_weight_one_collapse_gives_half(self):
        u = np.full((16, 16), 1.5)
        y_d = solve_state(u, GRID)
        c = ssc_estimate(u, y_d, GRID, ALPHA, BETA, delta=0.1, sample_count=4, seed=1)
        assert c == pytest.approx(0.5, abs=1e-12)

    def test_positive_curvature_on_default_instance(self, default_solution):
        y_d, res = default_solution
        c = ssc_estimate(res.control, y_d, GRID, ALPHA, BETA, delta=0.1, sample_count=8, seed=0)
        assert c > 0.0

    def test_scaling_down_never_decreases_quotient(self, default_solution):
        # quotient(a v) = <p, v>/(a |z|^2) + half weighted ratio, a in (0, 1]
        y_d, res = default_solution
        y = res.state
        p = res.adjoint
        weight = 1.0 - 6.0 * y * p
        v_full = np.full_like(res.control, BETA) - res.control
        for a in (1.0, 0.5, 0.25):
            v = a * v_full
            z = solve_linearized(v, y, GRID)
            q = (l2_inner(p, v, GRID) + 0.5 * l2_inner(weight * z, z, GRID)) / l2_norm(z, GRID) ** 2
            if a == 1.0:
                q_full = q
            else:
                assert q >= q_full - 1e-12

    def test_growth_crosscheck_positive_where_curvature_positive(self, default_solution):
        y_d, res = default_solution
        c = ssc_estimate(res.control, y_d, GRID, ALPHA, BETA, delta=0.5, sample_count=8, seed=0)
        assert c > 0.0
        jbar = res.objective_value
        rng = np.random.default_rng(4)
        found = 0
        for _ in range(6):
            u = res.control + 0.3 * (rng.uniform(ALPHA, BETA, (16, 16)) - res.control)
            y_u = solve_state(u, GRID)
            dist = l2_norm(y_u - res.state, GRID)
            if dist <= 1e-12 or dist > 0.5:
                continue
            gap = 0.5 * l2_norm(y_u - y_d, GRID) ** 2 - jbar
            assert gap / dist**2 > 0.0
            found += 1
        assert found > 0


class TestPerturbationSweep:
    def test_small_sweep_ratios_finite_and_bounded(self, default_solution):
        y_d, res = default_solution
        report = perturbation_sweep(
            res, y_d, GRID, ALPHA, BETA, (1e-2, 1e-1), 2, DescentConfig(tol=1e-8), seed=0
        )
        ratios = report.ratios()
        assert len(ratios) == 4
        assert all(r > 0.0 for r in ratios)
        assert math.isfinite(report.kappa_hat)
        assert report.kappa_hat == pytest.approx(max(ratios))
        assert all(s.converged for s in report.samples)

    def test_zero_norm_skipped(self, default_solution):
        y_d, res = default_solution
        report = perturbation_sweep(
            res, y_d, GRID, ALPHA, BETA, (0.0,), 1, DescentConfig(tol=1e-8), seed=0
        )
        assert math.isnan(report.samples[0].ratio)
        assert "skipped" in report.samples[0].error

    def test_deterministic_given_seed(self, default_solution):
        y_d, res = default_solution
        kw = dict(cfg=DescentConfig(tol=1e-8), seed=123)
        a = perturbation_sweep(res, y_d, GRID, ALPHA, BETA, (1e-2,), 2, **kw)
        b = perturbation_sweep(res, y_d, GRID, ALPHA, BETA, (1e-2,), 2, **kw)
        assert [s.ratio for s in a.samples] == [s.ratio for s in b.samples]

    def test_perturbing_toward_achieved_state_decreases_objective(self, default_solution):
        y_d, res = default_solution
        eta = 0.5 * (res.state - y_d)
        shifted = 0.5 * l2_norm(res.state - (y_d + eta), GRID) ** 2
        assert shifted <= res.objective_value + 1e-15

    def test_low_frequency_field_builder(self):
        coeffs = np.zeros((4, 4))
        coeffs[0, 0] = 2.0
        field = sine_combination(GRID, coeffs)
        np.testing.assert_allclose(field, 2.0 * sinbump(GRID), atol=1e-12)


class TestErrorContract:
    """Solver failures are explicit errors, never quiet results."""

    def test_newton_iteration_cap_raises_with_history(self):
        with pytest.raises(NewtonDivergence, match="no convergence after 1 iterations") as info:
            solve_state(np.full((16, 16), 50.0), GRID, max_iters=1)
        history = info.value.residual_history
        assert len(history) == 2 and history[1] < history[0]

    def test_newton_stall_raises_with_history(self):
        # no iterate reaches a residual of 1e-300, and once rounding stops
        # every halved step from decreasing it, Newton reports a stall
        with pytest.raises(NewtonDivergence, match="stalled") as info:
            solve_state(np.full((16, 16), 50.0), GRID, tol=1e-300)
        history = info.value.residual_history
        assert history[-1] <= 1e-10
        assert all(b < a for a, b in zip(history, history[1:]))

    def test_capped_linear_solve_raises(self, monkeypatch):
        y = solve_state(np.full((16, 16), 2.0), GRID)
        v = np.random.default_rng(0).standard_normal((16, 16))
        monkeypatch.setattr(trk, "_cg_iteration_cap", lambda d, n: 1)
        with pytest.raises(LinearSolveFailure, match="cap of 1 iterations"):
            solve_linearized(v, y, GRID)
        with pytest.raises(LinearSolveFailure):
            solve_adjoint(y, np.zeros((16, 16)), GRID)

    def test_capped_newton_step_raises(self, monkeypatch):
        monkeypatch.setattr(trk, "_cg_iteration_cap", lambda d, n: 1)
        with pytest.raises(LinearSolveFailure):
            solve_state(np.full((16, 16), 2.0), GRID)

    def test_non_finite_linear_solve_raises(self):
        y = solve_state(np.full((16, 16), 2.0), GRID)
        with np.errstate(all="ignore"):
            with pytest.raises(LinearSolveFailure, match="non-finite"):
                solve_linearized(np.full((16, 16), 1e308), y, GRID)
            with pytest.raises(LinearSolveFailure, match="not finite"):
                solve_linearized(np.ones((16, 16)), np.full((16, 16), 1e200), GRID)
