"""Tests for the ball-constrained global solver."""

import math
import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import _reference as reference
from growthlab import core, minimize
from growthlab.catalog import boxquad_oracle, halfpower_oracle, maxsq2d_oracle, power_oracle
from growthlab.core import BallRegion, FunctionOracle, _pair_rows, _project_rows, pairing
from growthlab.diagnostics import _tilt_samples, sample_subdifferential_graph
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
        f = FunctionOracle(lambda x: 0.0 if x[0] > 5.0 else math.inf, "far")
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
        (res,) = argmin_tilted(SQUARE, [[1.0]], unit_ball(), CFG)
        np.testing.assert_allclose(res.representative, [0.5], atol=1e-9)
        assert res.min_value == pytest.approx(-0.25, abs=1e-9)

    def test_cubic_stationarity(self):
        f = FunctionOracle(lambda x: float(abs(x[0]) ** 3), "cube")
        (res,) = argmin_tilted(f, [[3.0]], unit_ball(radius=2.0), CFG)
        np.testing.assert_allclose(res.representative, [1.0], atol=1e-7)

    def test_zero_tilt_matches_argmin_ball_bitwise(self):
        f = FunctionOracle(lambda x: float(np.sin(3 * x[0]) + x[0] ** 2), "mixed")
        (tilted,) = argmin_tilted(f, [[0.0]], unit_ball(), CFG)
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
        (via_tilt,) = argmin_tilted(f, xi[None], unit_ball(), CFG)
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
        g = FunctionOracle(lambda y: 0.0 if 0.5 <= y[0] <= 1.0 else math.inf, "box")
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "dim, radius", ((1, 1e200), (2, 1.35e154), (2, 1e155), (1, 1e308), (3, 1.7e308))
    )
    def test_radius_whose_grid_distances_overflow_is_refused(self, dim, radius):
        # the squared radius overflows: dropping the points whose distance
        # overflows would drop points of the ball; the ball itself refuses it
        with pytest.raises(ValueError, match=re.escape(f"ball of radius {radius} is too large")):
            ball_grid(BallRegion(np.zeros(dim), radius), 11)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dim", (1, 2, 3))
    @pytest.mark.parametrize("radius", (2.0**500, 1.3e154))
    def test_large_finite_radius_keeps_every_grid_point(self, dim, radius):
        # at 1.3e154 the cube corners' squared distances overflow in 2-D and
        # 3-D; they lie outside the ball and are dropped
        assert radius * (1.0 + core.BALL_SLACK) <= core.GRID_BOUND_LIMIT
        unit = ball_grid(BallRegion(np.zeros(dim), 1.0), 11)
        pts = ball_grid(BallRegion(np.zeros(dim), radius), 11)
        assert pts.shape == unit.shape
        np.testing.assert_allclose(pts / radius, unit, rtol=0.0, atol=1e-15)

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
        with pytest.raises(ValueError, match="points_per_axis must be >= 3"):
            ball_grid(unit_ball(dim=2), 2)
        with pytest.raises(ValueError):
            SolverConfig(minimizer_value_tolerance=0.0)

    @pytest.mark.parametrize("tol", (0.75, 2.0, math.inf, math.nan))
    def test_minimizer_value_tolerance_above_half_is_refused(self, tol):
        # a relative cut that wide does not describe a minimizer set
        assert SolverConfig(minimizer_value_tolerance=0.5).minimizer_value_tolerance == 0.5
        with pytest.raises(ValueError, match=r"must lie in \(0, 0.5\]"):
            SolverConfig(minimizer_value_tolerance=tol)


# ---------------------------------------------------------------------------
# Polish on the sphere


def _coordinate_polish(f, starts, start_values, tilts, region, step0, max_iters):
    """Frozen copy of the lockstep polish that steps along the coordinate
    axes everywhere, with the sweep cap as a parameter.

    Also returns which starts touched the sphere: sat at the radius, or
    took a candidate the projection moved.  Every other start never leaves
    the interior and must follow the same trajectory under the current
    polish."""
    x = np.array(starts, dtype=float)
    fx = np.array(start_values, dtype=float)
    step = np.full(len(x), float(step0))
    running = np.ones(len(x), dtype=bool)
    sweeps = np.full(len(x), max_iters)
    touched = np.linalg.norm(x - region.center, axis=1) >= region.radius
    for sweep in range(max_iters):
        idx = np.flatnonzero(running)
        if idx.size == 0:
            break
        cand_tilts = None if tilts is None else np.repeat(tilts[idx], 2, axis=0)
        improved = np.zeros(idx.size, dtype=bool)
        steps = step[idx]
        for i in range(x.shape[1]):
            cand = np.repeat(x[idx], 2, axis=0)
            cand[0::2, i] += steps
            cand[1::2, i] -= steps
            moved = np.linalg.norm(cand - region.center, axis=1) > region.radius
            cand = _project_rows(region, cand)[0]
            vals = f.evaluate_rows(cand)
            if cand_tilts is not None:
                live = vals != math.inf
                vals[live] -= _pair_rows(cand[live], cand_tilts[live])
            plus, minus = vals[0::2], vals[1::2]
            take_plus = plus < fx[idx]
            take_minus = minus < np.where(take_plus, plus, fx[idx])
            take = take_plus | take_minus
            if take.any():
                x[idx[take]] = np.where(take_minus[:, None], cand[1::2], cand[0::2])[take]
                fx[idx[take]] = np.where(take_minus, minus, plus)[take]
                touched[idx[take]] |= np.where(take_minus, moved[1::2], moved[0::2])[take]
                improved |= take
        stalled = idx[~improved]
        step[stalled] *= 0.5
        done = stalled[step[stalled] < minimize.POLISH_STEP_TOLERANCE]
        if done.size:
            running[done] = False
            sweeps[done] = sweep + 1
    return x, fx, 2 * x.shape[1] * sweeps, touched


def _anisotropic_bowl(d):
    weights = np.linspace(1.0, 3.0, d)
    return FunctionOracle.from_batch(
        lambda x: sum(weights[j] * x[:, j] ** 2 for j in range(d)), f"bowl{d}"
    )


def _off_center_ball(d):
    return BallRegion(np.linspace(0.5, -0.5, d), 2.5)


# (oracle, region, config, tilt stack): maxsq2d at every grid size the
# diagnose benchmark runs, on the balls of `diagnose --delta 1` and of the
# default delta 10, at the diagnose tilt sample; and tilted bowls whose
# minimizers sit on the sphere of an off-center ball of radius 2.5.  The
# bowls' tilt sample is seed 1, on which the coordinate polish converges
# within 10,000 sweeps; on seed 0 some of its starts still creep after
# 100,000.
MAXSQ2D_CASES = {
    f"maxsq2d-r{radius:g}-g{g}": (
        maxsq2d_oracle(), unit_ball(dim=2, radius=radius), SolverConfig(grid_points_per_axis=g),
        _tilt_samples(2, (0.5, 1.0), 8, 0),
    )
    for radius in (1.0, 10.0)
    for g in (41, 61, 101)
}
BOUNDARY_CASES = {
    f"bowl{d}-g{g}": (
        _anisotropic_bowl(d), _off_center_ball(d), SolverConfig(grid_points_per_axis=g),
        _tilt_samples(d, (8.0, 16.0), 6, 1),
    )
    for d, g in ((2, 41), (3, 15), (4, 9))
}


def _record_polish(monkeypatch, polish):
    """Route ``_solve``'s polish through ``polish`` and collect its outputs."""
    calls = []

    def recorded(*args):
        out = polish(*args)
        calls.append(out)
        return out[:3]

    monkeypatch.setattr(minimize, "_polish", recorded)
    return calls


class TestSpherePolish:
    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_sphere_basis_is_orthonormal_with_outward_normal_first(self, d):
        region = _off_center_ball(d)
        rng = np.random.default_rng(d)
        dirs = rng.standard_normal((64, d))
        dirs[:8, 0] = 0.0  # the sign choice at n_0 = 0
        dirs[8:16] = np.sign(dirs[8:16]) * np.eye(d)[0]  # n = +-e_0
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        points = region.center + region.radius * dirs
        basis = np.stack([minimize._sphere_axis(points, region, i) for i in range(d)], axis=1)
        np.testing.assert_allclose(basis[:, 0], dirs, atol=1e-15)
        gram = np.einsum("kij,klj->kil", basis, basis)
        np.testing.assert_allclose(gram, np.broadcast_to(np.eye(d), gram.shape), atol=1e-15)

    def test_sphere_flag_follows_the_projection(self):
        # center + (0.75, 1.0) lies on the sphere, exactly
        region = BallRegion(np.array([0.5, -0.5]), 1.25)

        def polish_batches(objective, start, step):
            """The level-0 rows of each candidate batch of one polished start:
            its first two, the candidates at the step; the rest of a batch
            holds the candidates at halved steps."""
            batches = []

            def logged(x):
                batches.append(x[:2].copy())
                return objective(x)

            f = FunctionOracle.from_batch(logged, "logged")
            start = np.array([start])
            minimize._polish(f, start, objective(start), None, region, step, "logged")
            return batches

        # a start at the radius steps along the normal (0.6, 0.8) first; the
        # inner candidate is taken, and the next step is along axis 1 again
        bowl = lambda x: (x[:, 0] - 0.5) ** 2 + (x[:, 1] + 0.5) ** 2
        first, second = polish_batches(bowl, [1.25, 0.5], 0.25)[:2]
        np.testing.assert_allclose(first, [[1.25, 0.5], [1.1, 0.3]], rtol=1e-15)
        inner = first[1]
        np.testing.assert_array_equal(second, [inner + [0.0, 0.25], inner - [0.0, 0.25]])

        # an inside start takes the projection of its +e_0 step; its next
        # step is along the tangent (-n_1, n_0) and stays on the sphere
        slope = lambda x: -(x[:, 0] + x[:, 1])
        first, second = polish_batches(slope, [1.5, 0.0], 0.25)[:2]
        on_sphere = first[0]
        assert np.linalg.norm(on_sphere - region.center) == pytest.approx(region.radius, rel=1e-15)
        n = (on_sphere - region.center) / region.radius
        tangent = np.array([-n[1], n[0]])
        steps = np.array([on_sphere + 0.25 * tangent, on_sphere - 0.25 * tangent])
        expected = _project_rows(region, steps)[0]
        np.testing.assert_allclose(second, expected, rtol=1e-14)
        np.testing.assert_allclose(np.linalg.norm(second - region.center, axis=1), region.radius, rtol=1e-15)

    @pytest.mark.parametrize("case", sorted(MAXSQ2D_CASES) + sorted(BOUNDARY_CASES))
    def test_no_start_reaches_the_sweep_cap(self, case, monkeypatch):
        f, region, cfg, tilts = MAXSQ2D_CASES.get(case) or BOUNDARY_CASES[case]
        calls = _record_polish(monkeypatch, minimize._polish)
        argmin_tilted(f, tilts, region, cfg)
        (used,) = [out[2] for out in calls]
        assert used.max() < 2 * region.dim * minimize.POLISH_MAX_ITERS

    @pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
    def test_agrees_with_converged_coordinate_polish(self, case, monkeypatch):
        f, region, cfg, tilts = BOUNDARY_CASES[case]
        new_calls = _record_polish(monkeypatch, minimize._polish)
        new = argmin_tilted(f, tilts, region, cfg)
        cap = 50 * minimize.POLISH_MAX_ITERS
        ref_calls = _record_polish(
            monkeypatch, lambda *args: _coordinate_polish(*args[:-1], max_iters=cap)
        )
        ref = argmin_tilted(f, tilts, region, cfg)
        (x, fx, used), (ref_x, ref_fx, ref_used, touched) = new_calls[0], ref_calls[0]
        assert ref_used.max() < 2 * region.dim * cap  # the reference converged
        # starts that stay inside the ball take the same steps bitwise
        assert 0 < np.count_nonzero(touched) < len(touched)
        np.testing.assert_array_equal(x[~touched], ref_x[~touched])
        np.testing.assert_array_equal(fx[~touched], ref_fx[~touched])
        np.testing.assert_array_equal(used[~touched], ref_used[~touched])
        tol = cfg.minimizer_value_tolerance
        for xi, a, b in zip(tilts, new, ref):
            assert a.min_value <= b.min_value + 1e-12 * (1.0 + abs(b.min_value))
            for points, best in ((a.minimizers, b.min_value), (b.minimizers, a.min_value)):
                cut = best + tol * (1.0 + abs(best))
                for point in points:
                    assert f(point) - pairing(xi, point) <= cut


# ---------------------------------------------------------------------------
# The stacked solve against its frozen reference


def _bowl(d):
    return FunctionOracle.from_batch(
        lambda x: sum((j + 1.0) * x[:, j] ** 2 for j in range(d)), f"bowl{d}"
    )


def _terraces(d):
    # a bowl rounded down to quarters: long runs of tied grid values, so
    # the k-th multistart falls inside a tie
    return FunctionOracle.from_batch(
        lambda x: np.floor(4.0 * sum(x[:, j] ** 2 for j in range(d))) / 4.0, f"terraces{d}"
    )


def _constant(d):
    return FunctionOracle.from_batch(lambda x: np.full(len(x), 0.5), "constant")


def _half_plane(d):
    # +inf off the half-plane x_0 + x_1 <= 0.3
    return FunctionOracle.from_batch(
        lambda x: np.where(x[:, 0] + x[:, 1] > 0.3, math.inf, (x[:, 0] - 1.0) ** 2 + x[:, 1] ** 2),
        "halfplane",
    )


def _nowhere(d):
    return FunctionOracle.from_batch(lambda x: np.full(len(x), math.inf), "nowhere")


def _bad_on_grid(bad):
    def make(d):
        return FunctionOracle.from_batch(
            lambda x: np.where(x[:, 0] > 0.4, bad, x[:, 0] ** 2), f"grid-{bad}"
        )

    return make


def _bad_off_grid(bad):
    # finite on the grid of the ball around 0 of radius 1 with 11 points per
    # axis (spacing 0.2), ``bad`` where the polish halves its step
    def make(d):
        def value(x):
            on_grid = np.all(np.abs(x * 5.0 - np.round(x * 5.0)) <= 1e-9, axis=1)
            return np.where(on_grid, sum(x[:, j] ** 2 for j in range(d)), bad)

        return FunctionOracle.from_batch(value, f"offgrid-{bad}")

    return make


# name -> (oracle factory, dimensions it runs in)
DIFFERENTIAL_ORACLES = {
    "bowl": (_bowl, (1, 2, 3)),
    "terraces": (_terraces, (1, 2, 3)),
    "constant": (_constant, (1, 2, 3)),
    "power1.5": (lambda d: power_oracle(1.5), (1,)),
    "halfpower3": (lambda d: halfpower_oracle(3.0), (1,)),
    "boxquad0.8": (lambda d: boxquad_oracle(0.8), (1,)),
    "maxsq2d": (lambda d: maxsq2d_oracle(), (2,)),
    "halfplane": (_half_plane, (2,)),
    "nowhere": (_nowhere, (1, 2)),
    "nan-on-grid": (_bad_on_grid(math.nan), (1, 2)),
    "-inf-on-grid": (_bad_on_grid(-math.inf), (1, 2)),
    "nan-off-grid": (_bad_off_grid(math.nan), (1, 2)),
    "-inf-off-grid": (_bad_off_grid(-math.inf), (1, 2)),
}
DIFFERENTIAL_GRIDS = {1: (11, 41, 101), 2: (5, 11, 21), 3: (5, 7, 9)}


def _evaluate_only(f):
    return FunctionOracle(lambda x: float(f.evaluate_batch(x[None, :])[0]), f.descriptor)


@st.composite
def solve_cases(draw):
    """(oracle, tilt stack or None, region, config, multistart count): a
    stack holds 2-16 tilts, among them a zero tilt and a repeated tilt;
    tilts drawn from a few small multiples of one axis give stacks whose
    minimizer sets coincide or overlap."""
    name = draw(st.sampled_from(sorted(DIFFERENTIAL_ORACLES)))
    make, dims = DIFFERENTIAL_ORACLES[name]
    d = draw(st.sampled_from(dims))
    f = make(d)
    if draw(st.booleans()):
        f = _evaluate_only(f)
    tilts = None
    if draw(st.integers(0, 3)):
        axis = [0.0] * (d - 1) + [1.0]
        tilt = st.one_of(
            st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=d, max_size=d),
            st.sampled_from((-1.0, -0.5, 0.5, 1.0)).map(lambda c: [c * a for a in axis]),
        )
        rows = draw(st.lists(tilt, min_size=0, max_size=14))
        rows.insert(draw(st.integers(0, len(rows))), [0.0] * d)
        rows.insert(draw(st.integers(0, len(rows))), rows[draw(st.integers(0, len(rows) - 1))])
        tilts = np.array(rows)
    if name.endswith("off-grid"):
        region, grid = BallRegion(np.zeros(d), 1.0), 11
    else:
        center = draw(st.sampled_from((np.zeros(d), np.linspace(0.3, -0.3, d))))
        region = BallRegion(center, draw(st.sampled_from((0.75, 1.0, 2.5))))
        grid = draw(st.sampled_from(DIFFERENTIAL_GRIDS[d]))
    cfg = SolverConfig(
        grid_points_per_axis=grid,
        minimizer_value_tolerance=draw(st.sampled_from((1e-9, 0.25, 0.5))),
    )
    return f, tilts, region, cfg, draw(st.sampled_from((0, 1, 3, 8)))


def _outcome(solve, case):
    """A solve's results as shapes, types and bytes, or its exception's type
    and message."""
    f, tilts, region, cfg = case
    try:
        results = solve(f, tilts, region, cfg, "f - <xi,.>")
    except Exception as exc:  # the reference's error is part of the contract
        return type(exc), str(exc)
    return [
        (
            [(m.shape, m.tobytes()) for m in r.minimizers],
            type(r.min_value), np.float64(r.min_value).tobytes(),
            type(r.evaluations), r.evaluations,
        )
        for r in results
    ]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(solve_cases())
# maxsq2d at xi = (0, 1): its minimizers are the segment x_2 = 1/2, x_1 <= 0,
# 44 grid points of the unit ball at 101 points per axis; stacked with its
# repeats, the zero tilt (the segment x_2 = 0, 51 points) and tilts with
# another segment or a single minimizer
@example((
    maxsq2d_oracle(),
    np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.5], [0.5, 1.0], [0.0, 1.0]]),
    unit_ball(2),
    SolverConfig(grid_points_per_axis=101),
    8,
))
def test_solve_matches_frozen_reference_bitwise(case):
    *case, multistarts = case
    with patch.object(minimize, "MULTISTART_COUNT", multistarts):
        assert _outcome(minimize._solve, case) == _outcome(reference.solve, case)


@pytest.mark.parametrize("bound, count", [(0.8, 31), (1.0, 41), (1.2, 51)])
def test_graph_sample_matches_frozen_reference_bitwise(bound, count):
    # the benchmark's graph job: boxquad, tilts at integer multiples of one
    # step with an exact zero in the middle, 301 grid points
    f = boxquad_oracle(bound)
    region = BallRegion(np.zeros(1), 1.5 * bound)
    half = count // 2
    tilts = [np.array([2.0 * bound * i / half]) for i in range(-half, half + 1)]
    cfg = SolverConfig(grid_points_per_axis=301)
    pairs = sample_subdifferential_graph(f, region, tilts, cfg)
    results = reference.solve(f, np.array(tilts), region, cfg, "f - <xi,.>")
    expected = [(x, xi) for xi, r in zip(tilts, results) for x in r.minimizers]
    assert len(pairs) > count  # some tilts have more than one minimizer
    assert [(x.shape, x.tobytes(), xi.tobytes()) for x, xi in pairs] == [
        (x.shape, x.tobytes(), xi.tobytes()) for x, xi in expected
    ]


def test_kept_rows_compares_with_the_last_kept_row():
    # b is within the spacing of a and c of b, but c is not of a: a pass
    # over consecutive differences would drop c too
    a, b, c = 0.0, 0.75 * minimize.MINIMIZER_SPACING, 1.5 * minimize.MINIMIZER_SPACING
    assert b - a <= minimize.MINIMIZER_SPACING and c - b <= minimize.MINIMIZER_SPACING < c - a
    assert minimize._kept_rows([0, 0, 0], [[a], [b], [c]]) == [0, 2]
    # every coordinate must be within the spacing, and each problem starts afresh
    assert minimize._kept_rows([0, 0], [[0.0, 0.0], [0.0, 2e-12]]) == [0, 1]
    assert minimize._kept_rows([0, 0, 1, 1], [[a], [b], [a], [b]]) == [0, 2]
    assert minimize._kept_rows([], []) == []


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from((0.0, 0.25, 1.0, 2.0, math.inf)), min_size=1, max_size=40),
    st.integers(0, 40),
)
def test_smallest_is_the_stable_argsort_prefix(values, k):
    values = np.array(values)
    k = min(k, len(values))
    expected = np.argsort(values, kind="stable")[:k]
    np.testing.assert_array_equal(minimize._smallest(values, k), expected)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_project_rows_matches_frozen_reference_bitwise(d, m, seed):
    rng = np.random.default_rng(seed)
    region = BallRegion(rng.uniform(-1.0, 1.0, d), float(rng.uniform(0.1, 2.0)))
    points = region.center + rng.uniform(-2.5, 2.5, (m, d)) * region.radius
    points[::3] = _project_rows(region, points[::3])[0]  # some rows on the sphere
    out, moved = _project_rows(region, points)
    ref_out, ref_moved = reference.project_rows(region, points)
    assert out.tobytes() == ref_out.tobytes()
    np.testing.assert_array_equal(moved, ref_moved)


# ---------------------------------------------------------------------------
# The speculative polish against the frozen sequential one


def _depth(n):
    """The polish's depth rule for ``n`` running starts."""
    return max(1, minimize.POLISH_ROW_BUDGET // (2 * n))


# the largest running-start count at which the depth rule picks each depth
DEPTH_COUNTS = {_depth(n): n for n in range(1, 65)}


def _sloped_bowl(d):
    # +inf beyond a half-space that cuts the off-center ball
    return FunctionOracle.from_batch(
        lambda x: np.where(x.sum(axis=1) > 0.3, math.inf, ((x - 0.7) ** 2).sum(axis=1)), "sloped"
    )


def _maxsq(d):
    return FunctionOracle.from_batch(
        lambda x: np.maximum(x[:, 0], 0.0) ** 2 + (x[:, 1:] ** 2).sum(axis=1), "maxsq"
    )


POLISH_ORACLES = (_anisotropic_bowl, _terraces, _sloped_bowl, _maxsq)


def _polish_case(f, d, n, seed, sphere, tilted):
    """Starts inside the off-center ball of dimension ``d``, half of them on
    its sphere if ``sphere``, their values and their tilts or None."""
    region = _off_center_ball(d)
    rng = np.random.default_rng(seed)
    starts = region.center + rng.uniform(-0.6, 0.6, (n, d)) * region.radius
    if sphere:
        starts[::2] = _project_rows(region, region.center + 9.0 * (starts[::2] - region.center))[0]
    tilts = rng.uniform(-8.0, 8.0, (n, d)) if tilted else None
    values = f.evaluate_rows(starts)
    if tilted:
        values -= _pair_rows(starts, tilts)
    return starts, values, tilts, region


def _same_polish(f, starts, values, tilts, region, step):
    """Run the polish and the frozen sequential one; assert they agree
    bitwise and return the candidates each start evaluated."""
    got = minimize._polish(f, starts, values, tilts, region, step, "f")
    expected = reference.polish(f, starts, values, tilts, region, step, "f")
    assert [a.tobytes() for a in got] == [b.tobytes() for b in expected]
    return got[2]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4), st.sampled_from(sorted(DEPTH_COUNTS.values())),
    st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.booleans(),
    st.sampled_from(POLISH_ORACLES), st.sampled_from((0.05, 0.3, 1.0)),
    st.sampled_from((None, 3, 8)),
)
def test_polish_matches_frozen_sequential_polish_bitwise(
    d, n, seed, sphere, tilted, evaluate_only, make, step, cap
):
    # a start count per depth of the depth rule; a small sweep cap stops starts there
    f = make(d)
    if evaluate_only:
        f = _evaluate_only(f)
    case = _polish_case(f, d, n, seed, sphere, tilted)
    with patch.object(minimize, "POLISH_MAX_ITERS", cap or minimize.POLISH_MAX_ITERS):
        _same_polish(f, *case, step)


def test_depth_rule_picks_every_depth_to_its_cap():
    assert sorted(DEPTH_COUNTS) == [1, 2, 3, 4, 5, 6, 8, 10, 16, 32]
    bowl, sizes = _anisotropic_bowl(2), []

    def logged(x):
        sizes.append(len(x))
        return bowl.evaluate_batch(x)

    for depth, n in DEPTH_COUNTS.items():
        sizes.clear()
        case = _polish_case(bowl, 2, n, 0, True, True)
        _same_polish(FunctionOracle.from_batch(logged, "f"), *case, 0.3)
        assert sizes[0] == 2 * n * depth  # each start's step and its halvings


@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_polish_matches_frozen_sequential_polish_at_the_sweep_cap(d):
    # a cap at the median sweep count: some starts stop there, the rest first
    f = _anisotropic_bowl(d)
    case = _polish_case(f, d, 8, d, True, True)
    cap = int(np.median(_same_polish(f, *case, 0.3))) // (2 * d)
    with patch.object(minimize, "POLISH_MAX_ITERS", cap):
        used = _same_polish(f, *case, 0.3)
    assert 0 < np.count_nonzero(used == 2 * d * cap) < len(used)


def test_polish_batches_come_in_runs_of_one_size_per_sweep():
    # each lockstep sweep is one batch per basis vector, all of one size:
    # a start that stalls needs no extra batch to finish a halved sweep
    bowl, sizes = _anisotropic_bowl(2), []

    def logged(x):
        sizes.append(len(x))
        return bowl.evaluate_batch(x)

    case = _polish_case(bowl, 2, 8, 0, True, True)
    _same_polish(FunctionOracle.from_batch(logged, "f"), *case, 0.3)
    assert len(sizes) % 2 == 0
    assert sizes[0::2] == sizes[1::2]


@pytest.mark.parametrize("poison", (math.nan, -math.inf))
@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_speculative_candidates_never_raise(d, poison):
    # a halved row takes its own candidates, so a -inf it meets is taken live
    bowl = _anisotropic_bowl(d)
    starts, values, tilts, region = _polish_case(bowl, d, 6, d, True, True)
    log = []

    def logged(x):
        log.extend(row.tobytes() for row in x)
        return bowl.evaluate_batch(x)

    expected = reference.polish(
        FunctionOracle.from_batch(logged, "f"), starts, values, tilts, region, 0.3, "f"
    )
    evaluated = set(log)
    unused = []

    def poisoned_unless_evaluated(x):
        known = np.array([row.tobytes() in evaluated for row in x])
        unused.extend(np.flatnonzero(~known))
        return np.where(known, bowl.evaluate_batch(x), poison)

    f = FunctionOracle.from_batch(poisoned_unless_evaluated, "f")
    got = minimize._polish(f, starts, values, tilts, region, 0.3, "f")
    assert unused  # the polish did evaluate points the sequential one never does
    assert [a.tobytes() for a in got] == [b.tobytes() for b in expected]
    # a poisoned value where the sequential polish evaluates raises, early or late
    for poisoned in (log[0], log[len(log) // 2], log[-1]):
        f = FunctionOracle.from_batch(
            lambda x: np.where(
                [row.tobytes() == poisoned for row in x], poison, bowl.evaluate_batch(x)
            ),
            "f",
        )
        with pytest.raises(NonFiniteValue):
            minimize._polish(f, starts, values, tilts, region, 0.3, "f")


class TestComposeOracle:
    """``f + term`` equals the frozen gather-and-scatter wrapper bitwise,
    whether or not some value of ``f`` is ``+inf``."""

    @staticmethod
    def _f(kind):
        def values(pts):
            v = np.sum(pts * pts, axis=1) - pts[:, 0]
            if kind == "inf":  # +inf outside the half-plane x_0 <= 0.5
                v = np.where(pts[:, 0] > 0.5, math.inf, v)
            if kind == "nan":  # NaN where x_0 < -0.5
                v = np.where(pts[:, 0] < -0.5, math.nan, v)
            return v

        return FunctionOracle.from_batch(values, kind)

    @staticmethod
    def _term(kind, seen):
        def term(pts):
            seen.append(np.array(pts))
            t = np.sqrt(np.add.reduce(pts * pts, axis=1)) ** 1.5
            if kind == "inf":  # +inf where x_0 < -0.5
                t = np.where(pts[:, 0] < -0.5, math.inf, t)
            return t

        return term

    @pytest.mark.parametrize("f_kind", ("finite", "inf", "nan"))
    @pytest.mark.parametrize("term_kind", ("finite", "inf"))
    @pytest.mark.parametrize("m", (0, 1, 7, 50))
    def test_matches_frozen_wrapper(self, f_kind, term_kind, m):
        pts = np.random.default_rng(m).uniform(-1.0, 1.0, (m, 2))
        f, seen, ref_seen = self._f(f_kind), [], []
        new = minimize.compose_oracle(f, self._term(term_kind, seen), "sum").evaluate_rows(pts)
        old = reference.compose_oracle(f, self._term(term_kind, ref_seen), "sum").evaluate_rows(pts)
        assert new.tobytes() == old.tobytes()
        assert [s.tobytes() for s in seen] == [s.tobytes() for s in ref_seen]
        if f_kind == "inf":  # the term never sees a point where f is +inf
            assert not any(np.any(s[:, 0] > 0.5) for s in seen)
            assert np.all(new[pts[:, 0] > 0.5] == math.inf)

    def test_nan_value_with_infinite_term_is_infinite(self):
        pts = np.array([[-0.75, 0.0], [-0.25, 0.0], [0.75, 0.0]])
        values = minimize.compose_oracle(self._f("nan"), self._term("inf", []), "sum")
        out = values.evaluate_rows(pts)
        assert out[0] == math.inf
        assert np.isfinite(out[1:]).all()
