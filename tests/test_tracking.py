"""Tests for the elliptic tracking problem: PDE solvers, optimality
structure, curvature estimate, and the target-perturbation sweep."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _reference as reference
from _reference import neg_laplacian as _neg_laplacian
from growthlab import tracking as trk
from growthlab.core import GrowthLabError
from growthlab.tracking import (
    DescentConfig,
    Grid2D,
    LinearSolveFailure,
    NewtonDivergence,
    NoSamplesInShell,
    TrackingResult,
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


def _count_cg_passes(monkeypatch):
    """A list that gains one entry per ``_pcg_solve`` call from now on."""
    passes, pcg = [], trk._pcg_solve

    def counting(*args):
        passes.append(args)
        return pcg(*args)

    monkeypatch.setattr(trk, "_pcg_solve", counting)
    return passes


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
        u = np.zeros((16, 16))
        u[3, 5] = np.nan
        with pytest.raises(ValueError, match="u has non-finite entries"):
            solve_state(u, GRID)


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

    def test_linearized_is_tangent_to_state_map(self, monkeypatch):
        monkeypatch.setattr(trk, "STATE_RESIDUAL_TOL", 1e-12)
        rng = np.random.default_rng(5)
        u = np.full((16, 16), 1.0)
        y = solve_state(u, GRID)
        v = rng.standard_normal((16, 16))
        z = solve_linearized(v, y, GRID)
        errs = [
            l2_norm(solve_state(u + t * v, GRID) - y - t * z, GRID)
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

    @pytest.mark.parametrize("n", (8, 16, 24, 32, 64))
    def test_column_major_fields_give_bitwise_equal_solves(self, n):
        # every field is made row-major on entry, so the preconditioner's
        # matrix products and the inner products never see the caller's
        # memory layout
        grid = Grid2D(n)
        rng = np.random.default_rng(n)
        u = rng.uniform(ALPHA, BETA, (n, n))
        v = rng.standard_normal((n, n))
        y_d = 0.64 * default_target(grid)
        y = solve_state(u, grid)
        f = np.asfortranarray
        assert _bits(solve_state(f(u), grid)) == _bits(y)
        assert _bits(solve_linearized(f(v), f(y), grid)) == _bits(solve_linearized(v, y, grid))
        assert _bits(solve_adjoint(f(y), f(y_d), grid)) == _bits(solve_adjoint(y, y_d, grid))

    def test_refinement_passes_reach_the_default_solve(self, monkeypatch):
        y = solve_state(np.full((16, 16), 50.0), GRID)
        v = np.random.default_rng(0).standard_normal((16, 16))
        default = solve_linearized(v, y, GRID)
        # CG stops at 1000x the residual check, so refinement passes must
        # close the gap
        monkeypatch.setattr(trk, "SPD_FRACTION", 1e3)
        passes = _count_cg_passes(monkeypatch)
        refined = solve_linearized(v, y, GRID)
        assert len(passes) > 1
        residual = v - trk._spd_matvec(3.0 * y**2, refined)
        assert l2_norm(residual, GRID) <= trk.LINEAR_RESIDUAL_TOL
        # both residuals are at most LINEAR_RESIDUAL_TOL, and the operator's
        # least eigenvalue is above that of -lap, 19.66 at n = 16
        assert l2_norm(refined - default, GRID) <= 2.0 * trk.LINEAR_RESIDUAL_TOL / 19.0


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

    def test_iteration_cap_flags_result(self, monkeypatch):
        monkeypatch.setattr(trk, "SPG_MAX_ITERS", 3)
        y_d = 0.6 * default_target(GRID)
        res = solve_tracking(y_d, GRID, ALPHA, BETA, DescentConfig(tol=1e-8))
        assert not res.converged
        assert res.first_order_residual > 1e-8

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            solve_tracking(np.zeros((16, 16)), GRID, 1.0, 1.0)


class TestCurvatureEstimate:
    def test_weight_one_collapse_gives_half(self):
        # the state of u is the target, so the adjoint is zero and the
        # weight 1 - 6 y p is one
        u = np.full((16, 16), 1.5)
        y_d = solve_state(u, GRID)
        result = TrackingResult(
            u, y_d, np.zeros((16, 16)), 0.0, 0.0, 0, True, (0.0,), y_d, GRID, ALPHA, BETA,
            DescentConfig(),
        )
        c = ssc_estimate(result, sample_count=4, seed=1)
        assert c == pytest.approx(0.5, abs=1e-12)

    def test_positive_curvature_on_default_instance(self, default_solution):
        _, res = default_solution
        c = ssc_estimate(res, sample_count=8, seed=0)
        assert c > 0.0

    def test_reuses_the_solved_state_and_adjoint(self, default_solution, monkeypatch):
        # no state solve, and one linearized solve per kept direction: the
        # two box vertices and the 8 random controls all differ from ubar
        _, res = default_solution
        calls = {"newton": 0, "cg": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(trk, "_newton", counting("newton", trk._newton))
        monkeypatch.setattr(trk, "_pcg_solve", counting("cg", trk._pcg_solve))
        ssc_estimate(res, sample_count=8, seed=0)
        assert calls == {"newton": 0, "cg": 2 + 8}

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
        c = ssc_estimate(res, sample_count=8, seed=0)
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
        _, res = default_solution
        report = perturbation_sweep(res, (1e-2, 1e-1), 2, seed=0)
        ratios = report.ratios()
        assert len(ratios) == 4
        assert all(r > 0.0 for r in ratios)
        assert math.isfinite(report.kappa_hat)
        assert report.kappa_hat == pytest.approx(max(ratios))
        assert all(s.converged for s in report.samples)

    def test_non_positive_or_non_finite_norm_rejected(self, default_solution):
        _, res = default_solution
        for bad in (0.0, -1e-2, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"positive and finite, got {bad}"):
                perturbation_sweep(res, (1e-2, bad), 1)

    def test_deterministic_given_seed(self, default_solution):
        _, res = default_solution
        a = perturbation_sweep(res, (1e-2,), 2, seed=123)
        b = perturbation_sweep(res, (1e-2,), 2, seed=123)
        assert [s.ratio for s in a.samples] == [s.ratio for s in b.samples]

    def test_samples_are_solved_with_the_result_config(self):
        # a sweep of a result solved at tol 1e-11 must re-solve at 1e-11,
        # not at the DescentConfig default 1e-8
        grid = Grid2D(8)
        y_d = 0.6 * default_target(grid)
        cfg = DescentConfig(tol=1e-11)
        result = solve_tracking(y_d, grid, ALPHA, BETA, cfg)
        assert result.config is cfg
        norms, seed = (1e-3, 1e-2), 5
        report = perturbation_sweep(result, norms, 2, seed=seed)
        assert len(report.samples) == 4
        for sample in report.samples:
            # the perturbation the docstring specifies for this sample
            rng = np.random.default_rng([seed, norms.index(sample.eta_norm), sample.index])
            eta = sine_combination(grid, rng.standard_normal((trk.SWEEP_MODES, trk.SWEEP_MODES)))
            eta = eta * (sample.eta_norm / l2_norm(eta, grid))
            direct = solve_tracking(y_d + eta, grid, ALPHA, BETA, result.config, u0=result.control)
            ratio = l2_norm(direct.state - result.state, grid) / sample.eta_norm
            assert direct.first_order_residual <= 1e-11
            assert _bits(sample.ratio) == _bits(ratio)
            assert (sample.converged, sample.iterations) == (direct.converged, direct.iterations)

    def test_failed_samples_are_recorded_and_fail_the_verdict(self, default_solution, monkeypatch):
        _, res = default_solution
        message = "solve failed, on purpose"

        def failing_at_the_larger_norm(y_d, grid, alpha, beta, cfg, u0=None):
            # only the warm-started sweep solves at eta norm 1e-1 fail
            if u0 is not None and l2_norm(y_d - res.target, grid) > 5e-2:
                raise GrowthLabError(message)
            return solve_tracking(y_d, grid, alpha, beta, cfg, u0=u0)

        monkeypatch.setattr(trk, "solve_tracking", failing_at_the_larger_norm)
        report = perturbation_sweep(res, (1e-2, 1e-1), 2, seed=0)
        failed = [s for s in report.samples if s.eta_norm == 1e-1]
        solved = [s for s in report.samples if s.eta_norm == 1e-2]
        assert len(failed) == len(solved) == 2
        for s in failed:
            assert math.isnan(s.ratio)
            assert (s.converged, s.iterations, s.error) == (False, 0, message)
        assert all(math.isfinite(s.ratio) and s.error == "" for s in solved)
        assert report.kappa_hat == max(s.ratio for s in solved)
        assert not report.consistent(0.5)
        assert report.consistent(0.0)

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


def _sweep(*ratios) -> trk.SweepReport:
    samples = tuple(
        trk.SweepSample(1e-2, i, r, math.isfinite(r), 3) for i, r in enumerate(ratios)
    )
    return trk.SweepReport(samples, max((r for r in ratios if math.isfinite(r)), default=math.nan))


class TestSweepConsistency:
    @pytest.mark.parametrize(
        "ratios",
        ((0.25, 1.0, 4.0), (0.5, 1.5, 2.5, 8.0), (2.0,), (1.0, 1.0, 1.0)),
    )
    def test_ratios_up_to_the_bounds_pass(self, ratios):
        # the median is 1.0, 2.0, 2.0 and 1.0: the extremes sit exactly at
        # a quarter and four times of it
        assert _sweep(*ratios).consistent(0.5)

    @pytest.mark.parametrize(
        "ratios",
        (
            (np.nextafter(0.25, 0.0), 1.0, 4.0),
            (0.25, 1.0, np.nextafter(4.0, np.inf)),
            (0.5, 1.5, 2.5, np.nextafter(8.0, np.inf)),
        ),
    )
    def test_a_ratio_just_beyond_a_bound_fails(self, ratios):
        assert not _sweep(*ratios).consistent(0.5)

    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_one_sample_without_a_finite_ratio_fails(self, bad):
        assert not _sweep(1.0, bad, 1.0).consistent(0.5)

    @pytest.mark.parametrize("ratios", ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0)))
    def test_a_zero_median_fails(self, ratios):
        assert not _sweep(*ratios).consistent(0.5)

    def test_an_empty_sweep_fails(self):
        assert not _sweep().consistent(0.5)

    @pytest.mark.parametrize("ssc", (0.0, -1.0, -math.inf, math.nan))
    @pytest.mark.parametrize("ratios", ((1e-3, 1.0, 1e3), (1.0, math.nan), (0.0, 0.0), ()))
    def test_a_curvature_estimate_that_is_not_positive_passes(self, ssc, ratios):
        assert _sweep(*ratios).consistent(ssc)

    def test_the_factor_is_four(self):
        # a fixed constant: a failing sweep is not to be met by widening it
        assert trk.CONSISTENCY_FACTOR == 4.0


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _assert_same_result(new: TrackingResult, old: TrackingResult) -> None:
    for field in dataclasses.fields(TrackingResult):
        a, b = getattr(new, field.name), getattr(old, field.name)
        assert type(a) is type(b), field.name
        if isinstance(a, (np.ndarray, float, tuple)):
            assert np.shape(a) == np.shape(b) and _bits(a) == _bits(b), field.name
        else:
            assert a == b, field.name


def _assert_same_sweep(new, old) -> None:
    assert _bits(new.kappa_hat) == _bits(old.kappa_hat)
    assert len(new.samples) == len(old.samples)
    for a, b in zip(new.samples, old.samples):
        assert _bits([a.eta_norm, a.ratio]) == _bits([b.eta_norm, b.ratio])
        assert (a.index, a.converged, a.iterations, a.error) == (
            b.index, b.converged, b.iterations, b.error
        )


class TestEarlyRejectMatchesFullSolve:
    """A line-search trial whose Newton solve stops early, because the
    state map's Lipschitz bound proves that it fails the Armijo test, must
    leave every result bitwise as the frozen full-solve loop gives it."""

    @staticmethod
    def _check_solve_and_sweep(n, amplitude, beta, monkeypatch):
        grid = Grid2D(n)
        y_d = amplitude * default_target(grid)
        cfg = DescentConfig(tol=1e-8)
        new = solve_tracking(y_d, grid, ALPHA, beta, cfg)
        old = reference.solve_tracking(y_d, grid, ALPHA, beta, cfg)
        _assert_same_result(new, old)
        new_sweep = perturbation_sweep(new, (1e-3,), 1)
        # the sweep's perturbed solves, each warm-started, through the frozen loop
        monkeypatch.setattr(trk, "solve_tracking", reference.solve_tracking)
        old_sweep = perturbation_sweep(old, (1e-3,), 1)
        _assert_same_sweep(new_sweep, old_sweep)

    @pytest.mark.parametrize("amplitude", (0.5, 0.64, 0.7))
    @pytest.mark.parametrize("n", (8, 16, 24))
    def test_solve_and_sweep_match(self, n, amplitude, monkeypatch):
        self._check_solve_and_sweep(n, amplitude, BETA, monkeypatch)

    def test_strongly_nonlinear_instance_matches(self, monkeypatch):
        # here one Newton step leaves trial states far enough from their
        # limits that a rule ignoring rho rejects trials the full solve accepts
        self._check_solve_and_sweep(8, 5.0, 400.0, monkeypatch)

    def test_warm_start_matches(self):
        y_d = 0.64 * default_target(GRID)
        u0 = np.random.default_rng(7).uniform(-1.0, 9.0, (16, 16))
        cfg = DescentConfig(tol=1e-8)
        _assert_same_result(
            solve_tracking(y_d, GRID, ALPHA, BETA, cfg, u0=u0),
            reference.solve_tracking(y_d, GRID, ALPHA, BETA, cfg, u0=u0),
        )

    def test_tight_tolerance_matches(self):
        grid = Grid2D(8)
        y_d = 0.6 * default_target(grid)
        cfg = DescentConfig(tol=1e-11)
        _assert_same_result(
            solve_tracking(y_d, grid, ALPHA, BETA, cfg),
            reference.solve_tracking(y_d, grid, ALPHA, BETA, cfg),
        )

    def test_stall_exit_matches(self):
        # the line search finds no step long before the tolerance is met:
        # one attempted step more than accepted ones (121 and 120 under the
        # default OpenBLAS kernel; the count moves with the BLAS kernel)
        grid = Grid2D(8)
        y_d = 0.6 * default_target(grid)
        cfg = DescentConfig(tol=1e-14)
        new = solve_tracking(y_d, grid, ALPHA, BETA, cfg)
        _assert_same_result(new, reference.solve_tracking(y_d, grid, ALPHA, BETA, cfg))
        assert not new.converged
        assert new.iterations == len(new.objective_history) < trk.SPG_MAX_ITERS

    def test_iteration_cap_exit_matches(self, monkeypatch):
        monkeypatch.setattr(trk, "SPG_MAX_ITERS", 3)
        y_d = 0.64 * default_target(GRID)
        cfg = DescentConfig(tol=1e-8)
        new = solve_tracking(y_d, GRID, ALPHA, BETA, cfg)
        _assert_same_result(new, reference.solve_tracking(y_d, GRID, ALPHA, BETA, cfg))
        assert not new.converged
        assert new.iterations == 3 and len(new.objective_history) == 4

    def test_rejected_trials_skip_linear_solves(self, monkeypatch):
        calls = []
        pcg = trk._pcg_solve

        def counted(d, b, atol=0.0):
            calls.append(b.shape[0])
            return pcg(d, b, atol)

        monkeypatch.setattr(trk, "_pcg_solve", counted)
        y_d = 0.64 * default_target(GRID)
        solve_tracking(y_d, GRID, ALPHA, BETA, DescentConfig(tol=1e-8))
        new_calls = len(calls)
        calls.clear()
        reference.solve_tracking(y_d, GRID, ALPHA, BETA, DescentConfig(tol=1e-8))
        assert 0 < new_calls < len(calls)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from((8, 16)),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("newton", "random", "lowest mode")),
    newton_steps=st.integers(1, 3),
    scale=st.floats(1e-6, 2.0),
)
def test_state_error_bound(n, seed, kind, newton_steps, scale):
    """``|y_u - y|_h <= (|F(y) - u|_h + STATE_RESIDUAL_TOL) / lam1`` for
    ``F(y) = -lap y + y^3``, whose modulus of strong monotonicity is the
    least eigenvalue ``lam1`` of the discrete ``-lap``: the bound on which
    line-search trials are rejected early.  ``y`` is a Newton iterate from
    zero, a random field, or ``y_u`` moved along the lowest eigenmode,
    where the bound is nearly attained (a larger ``lam1`` breaks it)."""
    grid = Grid2D(n)
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 8.0, (n, n))
    y_u = solve_state(u, grid)
    if kind == "newton":
        iterates = []

        def record(y_k, rnorm):
            iterates.append(y_k)
            return len(iterates) == newton_steps

        trk._newton(u, np.zeros_like(u), grid, record)
        y = iterates[-1]
    elif kind == "random":
        y = scale * rng.standard_normal((n, n))
    else:
        y = y_u + scale * default_target(grid)
    residual = l2_norm(trk._neg_lap_stencil(y) + y**3 - u, grid)
    bound = trk._state_error_bound(residual, n)
    assert l2_norm(y_u - y, grid) <= bound * (1.0 + 1e-12)


class TestInexactSolvesMatchExact:
    """CG solves that stop at the accuracy their callers check (trial
    Newton steps sized by the Armijo margin, adjoint and linearized solves
    at a fraction of ``LINEAR_RESIDUAL_TOL``) give the results of solves
    to ``CG_RTOL``, at a tolerance tight enough that the control solves
    stop near one point.  Measured differences on these instances:
    objective 4.9e-13 relative, curvature 7.0e-9, sweep ratios 7.2e-7."""

    @staticmethod
    def _solve_and_sweep(n, amplitude):
        grid = Grid2D(n)
        res = solve_tracking(
            amplitude * default_target(grid), grid, ALPHA, BETA, DescentConfig(tol=1e-11)
        )
        return res, ssc_estimate(res, 4), perturbation_sweep(res, (1e-3, 1e-2, 1e-1), 1)

    @pytest.mark.parametrize("n, amplitude", ((16, 0.6), (24, 0.64)))
    def test_tight_tolerance_results_agree(self, n, amplitude, monkeypatch):
        res, ssc, sweep = self._solve_and_sweep(n, amplitude)
        for name in ("TRIAL_STATE_FRACTION", "TRIAL_ARMIJO_FRACTION", "SPD_FRACTION"):
            monkeypatch.setattr(trk, name, 0.0)
        exact_res, exact_ssc, exact_sweep = self._solve_and_sweep(n, amplitude)
        assert res.converged and exact_res.converged
        assert all(s.converged for s in sweep.samples + exact_sweep.samples)
        assert abs(res.objective_value - exact_res.objective_value) <= (
            1e-10 * exact_res.objective_value
        )
        assert abs(ssc - exact_ssc) <= 1e-6
        assert abs(sweep.kappa_hat - exact_sweep.kappa_hat) <= 1e-4
        assert len(sweep.samples) == len(exact_sweep.samples) == 3
        for a, b in zip(sweep.samples, exact_sweep.samples):
            assert abs(a.ratio - b.ratio) <= 1e-4


class TestErrorContract:
    """Solver failures are explicit errors, never quiet results."""

    def test_newton_iteration_cap_raises_with_history(self, monkeypatch):
        monkeypatch.setattr(trk, "NEWTON_MAX_ITERS", 1)
        with pytest.raises(NewtonDivergence, match="no convergence after 1 iterations") as info:
            solve_state(np.full((16, 16), 50.0), GRID)
        history = info.value.residual_history
        assert len(history) == 2 and history[1] < history[0]

    def test_newton_stall_raises_with_history(self, monkeypatch):
        # no iterate reaches a residual of 1e-300, and once rounding stops
        # every halved step from decreasing it, Newton reports a stall
        monkeypatch.setattr(trk, "STATE_RESIDUAL_TOL", 1e-300)
        with pytest.raises(NewtonDivergence, match="stalled") as info:
            solve_state(np.full((16, 16), 50.0), GRID)
        history = info.value.residual_history
        assert history[-1] <= 1e-10
        assert all(b < a for a, b in zip(history, history[1:]))

    def test_capped_linear_solve_raises(self, monkeypatch):
        y = solve_state(np.full((16, 16), 2.0), GRID)
        v = np.random.default_rng(0).standard_normal((16, 16))
        monkeypatch.setattr(trk, "_cg_iteration_cap", lambda d: 1)
        with pytest.raises(LinearSolveFailure, match="cap of 1 iterations"):
            solve_linearized(v, y, GRID)
        with pytest.raises(LinearSolveFailure):
            solve_adjoint(y, np.zeros((16, 16)), GRID)

    def test_linear_residual_above_the_check_after_every_pass_raises(self, monkeypatch):
        y = solve_state(np.full((16, 16), 2.0), GRID)
        v = np.random.default_rng(0).standard_normal((16, 16))
        monkeypatch.setattr(trk, "LINEAR_RESIDUAL_TOL", 1e-300)
        passes = _count_cg_passes(monkeypatch)
        with pytest.raises(LinearSolveFailure, match=r"^linear residual .* above 1\.0e-300$"):
            solve_linearized(v, y, GRID)
        assert len(passes) == 4

    def test_capped_newton_step_raises(self, monkeypatch):
        monkeypatch.setattr(trk, "_cg_iteration_cap", lambda d: 1)
        with pytest.raises(LinearSolveFailure):
            solve_state(np.full((16, 16), 2.0), GRID)

    def test_box_too_narrow_for_the_shell_raises(self):
        # every control in a box of width 1e-20 moves the state by less
        # than the shell's cut-off, so no direction sample survives
        grid = Grid2D(8)
        result = solve_tracking(0.6 * default_target(grid), grid, 0.0, 1e-20)
        assert result.iterations == 0 and result.converged
        with pytest.raises(NoSamplesInShell, match="no feasible direction"):
            ssc_estimate(result, 4)

    def test_non_finite_linear_solve_raises(self):
        y = solve_state(np.full((16, 16), 2.0), GRID)
        with np.errstate(all="ignore"):
            with pytest.raises(LinearSolveFailure, match="non-finite"):
                solve_linearized(np.full((16, 16), 1e308), y, GRID)
            with pytest.raises(LinearSolveFailure, match="not finite"):
                solve_linearized(np.ones((16, 16)), np.full((16, 16), 1e200), GRID)
