"""Unit tests for the shared domain types and basic operations."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from growthlab.core import (
    BallRegion,
    ExponentPair,
    FunctionOracle,
    _norm,
    as_vector,
    duality_map,
    indicator,
    pairing,
)


def finite_vectors(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda d: st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=d,
            max_size=d,
        )
    )


FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def tilt_and_rows(draw, max_dim=4):
    """A tilt, 1-40 rows of its dimension, and a slice of the rows."""
    d = draw(st.integers(1, max_dim))
    xi = draw(st.lists(FINITE, min_size=d, max_size=d))
    rows = draw(st.lists(st.lists(FINITE, min_size=d, max_size=d), min_size=1, max_size=40))
    lo = draw(st.integers(0, len(rows) - 1))
    hi = draw(st.integers(lo + 1, len(rows)))
    return np.array(xi), np.array(rows), slice(lo, hi)


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

    @given(tilt_and_rows())
    def test_rows_pair_one_by_one(self, case):
        # bitwise, whatever rows share the array: no BLAS product rounds a
        # row by its position
        xi, rows, part = case
        paired = pairing(xi, rows)
        np.testing.assert_array_equal(paired, [pairing(xi, r) for r in rows])
        np.testing.assert_array_equal(pairing(xi, rows[part]), paired[part])
        np.testing.assert_array_equal(
            [_norm(r) for r in rows], np.linalg.norm(rows, axis=1)
        )

    def test_rows_are_validated(self):
        rows = np.array([[3.0, 4.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            pairing([1.0, 2.0, 3.0], rows)
        with pytest.raises(ValueError):
            pairing([1.0, 2.0], np.array([[1.0, math.nan]]))


class TestDualityMap:
    def test_identity_at_p_two(self):
        np.testing.assert_array_equal(duality_map([3.0, 4.0], 2.0), [3.0, 4.0])

    def test_p_three(self):
        np.testing.assert_allclose(duality_map([0.0, 2.0], 3.0), [0.0, 4.0])

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_zero_maps_to_zero(self, p):
        np.testing.assert_array_equal(duality_map([0.0, 0.0], p), [0.0, 0.0])

    @pytest.mark.parametrize("p", [0.5, math.inf, math.nan])
    def test_p_below_one_or_not_finite_is_refused(self, p):
        with pytest.raises(ValueError, match="p must be finite and >= 1"):
            duality_map([1.0, 2.0], p)

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
            ExponentPair.from_p(1.0)
        with pytest.raises(ValueError, match="q = p / \\(p - 1\\) must be > 1"):
            ExponentPair(2.0**54)

    def test_ball_region_validation(self):
        with pytest.raises(ValueError):
            BallRegion(np.zeros(2), -1.0)
        with pytest.raises(ValueError):
            BallRegion(np.array([np.nan]), 1.0)
        region = BallRegion(np.zeros(2), 2.0)
        assert region.contains([2.0, 0.0])
        assert not region.contains([2.0, 1.0])
        # the slack on the radius is 1e-12, times the radius above 1
        assert BallRegion(np.zeros(1), 0.5).contains([0.5 + 1e-12])
        assert not BallRegion(np.zeros(1), 0.5).contains([0.5 + 2e-12])
        assert BallRegion(np.zeros(1), 1e6).contains([1e6 + 1e-6])
        assert not BallRegion(np.zeros(1), 1e6).contains([1e6 + 2e-6])
        np.testing.assert_allclose(region.project_rows(np.array([[4.0, 0.0]])), [[2.0, 0.0]])

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
