"""Unit tests for the shared domain types and basic operations."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from growthlab.core import (
    BallRegion,
    ExponentPair,
    FunctionOracle,
    as_vector,
    duality_map,
    indicator,
    pairing,
    tilted_value,
)

SQUARE = FunctionOracle(lambda x: float(x[0] ** 2), "square")


def finite_vectors(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda d: st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=d,
            max_size=d,
        )
    )


class TestPairing:
    def test_dot_product(self):
        assert pairing([1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_zero_form(self):
        assert pairing([0.0, 0.0, 0.0], [5.0, -2.0, 7.0]) == 0.0

    def test_orthogonality(self):
        assert pairing([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pairing([1.0, 2.0], [1.0, 2.0, 3.0])

    @given(finite_vectors())
    def test_symmetric_in_coordinate_vectors(self, coords):
        other = list(reversed(coords))
        assert pairing(coords, other) == pairing(other, coords)

    def test_rows_pair_one_by_one(self):
        rows = np.array([[3.0, 4.0], [0.0, 1.0], [-2.0, 0.5]])
        np.testing.assert_array_equal(
            pairing([1.0, 2.0], rows), [pairing([1.0, 2.0], r) for r in rows]
        )
        with pytest.raises(ValueError):
            pairing([1.0, 2.0, 3.0], rows)
        with pytest.raises(ValueError):
            pairing([1.0, 2.0], np.array([[1.0, math.nan]]))


class TestTiltedValue:
    def test_quadratic_with_unit_tilt(self):
        assert tilted_value(SQUARE, [1.0], [1.0]) == 0.0

    def test_no_tilt(self):
        assert tilted_value(SQUARE, [0.0], [2.0]) == 4.0

    def test_indicator_propagates(self):
        f = FunctionOracle(indicator(lambda x: x[0] >= 0.0), "halfline")
        assert tilted_value(f, [3.0], [-1.0]) == math.inf

    @given(finite_vectors())
    def test_zero_tilt_is_identity(self, coords):
        f = FunctionOracle(lambda x: float(np.sum(x * x)), "sumsq")
        x = np.asarray(coords)
        assert tilted_value(f, np.zeros_like(x), x) == f(x)


class TestDualityMap:
    def test_identity_at_p_two(self):
        np.testing.assert_array_equal(duality_map([3.0, 4.0], 2.0), [3.0, 4.0])

    def test_p_three(self):
        np.testing.assert_allclose(duality_map([0.0, 2.0], 3.0), [0.0, 4.0])

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_zero_maps_to_zero(self, p):
        np.testing.assert_array_equal(duality_map([0.0, 0.0], p), [0.0, 0.0])

    @given(finite_vectors(), st.floats(1.01, 4.0))
    def test_norm_and_alignment_identities(self, coords, p):
        x = np.asarray(coords)
        nrm = np.linalg.norm(x)
        if nrm < 1e-6:
            return
        xi = duality_map(x, p)
        xi_norm = np.linalg.norm(xi)
        np.testing.assert_allclose(xi_norm, nrm ** (p - 1.0), rtol=1e-10)
        np.testing.assert_allclose(pairing(xi, x), xi_norm * nrm, rtol=1e-10)


class TestTypes:
    def test_conjugate_exponents(self):
        pq = ExponentPair.from_p(3.0)
        assert pq.q == pytest.approx(1.5)
        with pytest.raises(ValueError):
            ExponentPair(2.0, 3.0)
        with pytest.raises(ValueError):
            ExponentPair.from_p(1.0)

    def test_ball_region_validation(self):
        with pytest.raises(ValueError):
            BallRegion(np.zeros(2), -1.0)
        with pytest.raises(ValueError):
            BallRegion(np.array([np.nan]), 1.0)
        region = BallRegion(np.zeros(2), 2.0)
        assert region.contains([2.0, 0.0])
        assert not region.contains([2.0, 1.0])
        np.testing.assert_allclose(region.project([4.0, 0.0]), [2.0, 0.0])

    def test_vector_validation(self):
        with pytest.raises(ValueError):
            as_vector([1.0, math.inf])
        with pytest.raises(ValueError):
            as_vector([[1.0, 2.0]])

    def test_oracle_rejects_infinite_known_minimizer_value(self):
        with pytest.raises(ValueError):
            FunctionOracle(
                indicator(lambda x: x[0] > 0.5),
                "shifted",
                known_minimizer=np.zeros(1),
            )
