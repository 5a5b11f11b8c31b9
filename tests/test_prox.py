"""Tests for the proximal point iteration and its rate audit."""

import numpy as np
import pytest

from growthlab.catalog import power_oracle
from growthlab.core import BallRegion, ExponentPair, FunctionOracle
from growthlab.minimize import SolverConfig
from growthlab.prox import (
    EpsilonNotBelowGamma,
    ProxConfig,
    audit_rates,
    prox_step,
    run_prox,
)

P2 = ExponentPair.from_p(2.0)
SOLVER = SolverConfig(grid_points_per_axis=201)


def make_config(epsilon=0.5, p=2.0, iterations=3, radius=2.0):
    return ProxConfig(
        epsilon=epsilon,
        exponents=ExponentPair.from_p(p),
        iterations=iterations,
        region=BallRegion(np.zeros(1), radius),
        solver=SOLVER,
    )


class TestProxStep:
    def test_quadratic_contraction(self):
        res = prox_step(power_oracle(2.0), [1.0], make_config())
        assert res.representative[0] == pytest.approx(0.2, abs=1e-8)

    def test_huge_epsilon_pins_anchor(self):
        res = prox_step(power_oracle(2.0), [0.7], make_config(epsilon=1e6))
        assert res.representative[0] == pytest.approx(0.7, abs=1e-5)

    def test_soft_threshold_collapse(self):
        f = FunctionOracle(lambda x: float(abs(x[0])), "abs")
        res = prox_step(f, [0.3], make_config())
        assert res.representative[0] == pytest.approx(0.0, abs=1e-7)

    def test_anchor_outside_region(self):
        with pytest.raises(ValueError):
            prox_step(power_oracle(2.0), [3.0], make_config())


class TestRunProx:
    def test_quadratic_trajectory(self):
        traj = run_prox(power_oracle(2.0), [1.0], make_config(iterations=3))
        expected = [1.0, 0.2, 0.04, 0.008]
        actual = [float(pt[0]) for pt in traj.points]
        np.testing.assert_allclose(actual, expected, atol=1e-6)

    def test_start_at_minimizer_is_fixed_point(self):
        traj = run_prox(power_oracle(2.0), [0.0], make_config(iterations=3))
        for pt in traj.points:
            assert abs(pt[0]) <= 1e-7

    def test_cubic_objective_descends(self):
        f = power_oracle(3.0)
        cfg = make_config(epsilon=0.1, p=3.0, iterations=4)
        traj = run_prox(f, [1.0], cfg)
        for earlier, later in zip(traj.values, traj.values[1:]):
            assert later <= earlier + 1e-12

    def test_proximal_descent_inequality(self):
        # f(x_{k+1}) + (eps/p)|x_{k+1} - x_k|^p <= f(x_k): x_k competes
        f = power_oracle(3.0)
        cfg = make_config(epsilon=0.25, p=3.0, iterations=4)
        traj = run_prox(f, [1.5], cfg)
        for k in range(cfg.iterations):
            move = float(np.linalg.norm(traj.points[k + 1] - traj.points[k]))
            lhs = traj.values[k + 1] + (cfg.epsilon / 3.0) * move**3
            assert lhs <= traj.values[k] + 1e-9

    def test_deep_trajectory_with_tight_value_tolerance(self):
        # a loose near-optimal tolerance would absorb the origin into the
        # minimizer set once value gaps fall below it; a tight one keeps
        # late iterates resolved
        cfg = ProxConfig(
            epsilon=0.5,
            exponents=P2,
            iterations=8,
            region=BallRegion(np.zeros(1), 2.0),
            solver=SolverConfig(
                grid_points_per_axis=201, minimizer_value_tolerance=1e-15
            ),
        )
        traj = run_prox(power_oracle(2.0), [1.0], cfg)
        for k, pt in enumerate(traj.points):
            assert pt[0] == pytest.approx(0.2**k, rel=1e-4, abs=1e-12)

    @pytest.mark.parametrize("radius", (1e5, 1e6))
    def test_iterates_on_a_large_sphere_stay_in_the_ball(self, radius):
        # every step lands on the sphere, up to a rounding beyond it: the
        # grid and the anchor check must admit it by the same slack
        f = FunctionOracle.from_batch(lambda x: -(x[:, 0] + x[:, 1]), "linear")
        cfg = ProxConfig(
            epsilon=0.5,
            exponents=P2,
            iterations=3,
            region=BallRegion(np.zeros(2), radius),
            solver=SolverConfig(grid_points_per_axis=41),
        )
        corner = radius * np.ones(2) / np.sqrt(2.0)
        traj = run_prox(f, (1.0 - 1e-6) * corner, cfg)
        assert all(cfg.region.contains(x) for x in traj.points)
        np.testing.assert_allclose(traj.points[-1], corner, rtol=1e-9)

    def test_records_per_step_metadata(self):
        traj = run_prox(power_oracle(2.0), [1.0], make_config(iterations=2))
        assert len(traj.steps) == 2
        assert all(step.evaluations > 0 for step in traj.steps)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            make_config(iterations=0)
        with pytest.raises(ValueError):
            make_config(epsilon=-1.0)
        with pytest.raises(ValueError):
            run_prox(power_oracle(2.0), [5.0], make_config())


class TestAuditRates:
    def test_quadratic_rates_pass_with_growing_margin(self):
        traj = run_prox(power_oracle(2.0), [1.0], make_config(iterations=5))
        audit = audit_rates(traj, 1.0, np.zeros(1), 0.0)
        assert audit.passed
        assert audit.rho == pytest.approx(0.5)
        # actual contraction 0.2 beats the 0.5 envelope more at larger k
        margins = [rec.margin_distance for rec in audit.records]
        assert all(m >= 0.0 for m in margins)
        assert margins[2] / audit.records[2].bound_distance >= 0.8

    def test_base_case_holds_with_equality(self):
        traj = run_prox(power_oracle(2.0), [1.0], make_config(iterations=1))
        audit = audit_rates(traj, 1.0, np.zeros(1), 0.0)
        assert audit.records[0].margin_distance == 0.0
        assert audit.records[0].margin_gap == 0.0

    def test_epsilon_above_gamma_refused(self):
        # the trajectory itself runs at epsilon 1.5, above gamma_ref 1
        traj = run_prox(power_oracle(2.0), [1.0], make_config(epsilon=1.5, iterations=1))
        with pytest.raises(EpsilonNotBelowGamma):
            audit_rates(traj, 1.0, np.zeros(1), 0.0)

    def test_gamma_must_be_positive(self):
        traj = run_prox(power_oracle(2.0), [1.0], make_config(iterations=1))
        with pytest.raises(ValueError):
            audit_rates(traj, 0.0, np.zeros(1), 0.0)

    @pytest.mark.parametrize("epsilon, p, gamma_ref", [(0.5, 2.0, 1.0), (0.1, 3.0, 0.7)])
    def test_rates_use_the_trajectory_settings(self, epsilon, p, gamma_ref):
        cfg = make_config(epsilon=epsilon, p=p, iterations=2)
        traj = run_prox(power_oracle(p), [1.0], cfg)
        assert traj.config is cfg
        audit = audit_rates(traj, gamma_ref, np.zeros(1), 0.0)
        assert audit.rho == traj.config.epsilon / gamma_ref
        d0 = audit.records[0].actual_distance
        for k, rec in enumerate(audit.records):
            assert rec.bound_distance == audit.rho ** (k * cfg.exponents.q / p) * d0