"""Shared domain types: finite vectors, conjugate exponents, closed balls,
and extended-real function oracles.

Everything lives in finite-dimensional Euclidean space with the 2-norm.
``+inf`` is the one and only encoding of "outside the domain"; oracles never
use large sentinel floats, so indicator functions compose safely with
comparisons.

Pairings and vector norms are summed coordinate by coordinate in
elementwise numpy operations, never in a BLAS product, so a value does not
depend on the BLAS kernel or on the rows that share its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "GrowthLabError",
    "ExponentPair",
    "BallRegion",
    "FunctionOracle",
    "as_vector",
    "pairing",
    "duality_map",
    "indicator",
]


# Slack on the radius in closed-ball membership, relative above radius 1.
BALL_SLACK = 1e-12
# Largest membership bound whose square is finite (about 1.34e154).
GRID_BOUND_LIMIT = math.sqrt(np.finfo(float).max)


class GrowthLabError(Exception):
    """Base class for all errors raised by this package."""


def as_vector(x, dim: Optional[int] = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float vector, optionally of dimension ``dim``."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-D vector, got shape {np.shape(x)}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite (no NaN/inf)")
    if dim is not None and v.size != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.size}")
    return v


def _check_norm_sample(kind: str, norms: Sequence[float], count_name: str, count: int) -> None:
    """Refuse ``count < 1`` draws per norm, no ``norms``, or a norm not
    positive and finite; ``kind`` and ``count_name`` name them in messages."""
    if count < 1:
        raise ValueError(f"{count_name} must be >= 1")
    if len(norms) == 0:
        raise ValueError(f"{kind}_norms must not be empty")
    for nrm in norms:
        if not (nrm > 0.0 and math.isfinite(nrm)):
            raise ValueError(f"{kind} norms must be positive and finite, got {nrm}")


@dataclass(frozen=True)
class ExponentPair:
    """Conjugate exponents ``p > 1`` and ``q = p / (p - 1)``: ``1/p + 1/q = 1``."""

    p: float
    q: float = field(init=False)

    def __post_init__(self) -> None:
        if not (self.p > 1.0 and math.isfinite(self.p)):
            raise ValueError(f"p must be finite and > 1, got {self.p}")
        q = self.p / (self.p - 1.0)
        # p / (p - 1) rounds to 1.0 for p above about 2**53
        if not q > 1.0:
            raise ValueError(f"q = p / (p - 1) must be > 1, got {q} at p = {self.p}")
        object.__setattr__(self, "q", q)

    @classmethod
    def from_p(cls, p: float) -> "ExponentPair":
        """The pair of ``p``: the same as ``ExponentPair(p)``."""
        return cls(p)


def _ball_bound(radius: float) -> float:
    """The largest distance from the center that membership admits."""
    return radius + BALL_SLACK * max(1.0, radius)


@dataclass(frozen=True)
class BallRegion:
    """Closed Euclidean ball of positive finite radius around ``center``; the
    one home of the membership slack and of the overflowing-radius refusal."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", as_vector(self.center))
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be finite and positive, got {self.radius}")
        if _ball_bound(self.radius) > GRID_BOUND_LIMIT:  # a distance could overflow
            msg = f"the ball of radius {self.radius} is too large for a grid scan"
            raise ValueError(msg + ": its squared radius overflows")

    @property
    def dim(self) -> int:
        return self.center.size

    def contains(self, x) -> bool:
        """Closed-ball membership, with ``BALL_SLACK * max(1, radius)`` on
        the radius."""
        x = as_vector(x, self.dim)
        return bool(_norm(x - self.center) <= _ball_bound(self.radius))

    def project_rows(self, points: np.ndarray) -> np.ndarray:
        """Radial projection of each row of a finite ``(m, d)`` array onto
        the closed ball; rows already inside are returned unchanged."""
        return _project_rows(self, points)[0]


@dataclass(frozen=True)
class FunctionOracle:
    """An extended-real-valued objective ``f: R^d -> R U {+inf}``.

    ``evaluate`` must be pure and deterministic and may return ``math.inf``
    to signal points outside the effective domain.  ``known_minimizer`` and
    ``known_constants`` are optional analytic metadata for test harnesses;
    estimators never read them.  ``evaluate_batch``, when given, maps an
    ``(m, d)`` array of points to their ``(m,)`` values at once and must
    agree with ``evaluate`` row by row; the solvers evaluate through
    ``evaluate_rows``, which falls back to ``evaluate`` on each row.
    """

    evaluate: Callable[[np.ndarray], float]
    descriptor: str = "f"
    known_minimizer: Optional[np.ndarray] = None
    known_constants: Optional[Mapping[str, float]] = None
    evaluate_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        if self.known_minimizer is not None:
            xbar = as_vector(self.known_minimizer)
            object.__setattr__(self, "known_minimizer", xbar)
            if not math.isfinite(float(self.evaluate(xbar))):
                raise ValueError(
                    f"oracle '{self.descriptor}': value at known_minimizer is not finite"
                )

    @classmethod
    def from_batch(
        cls, batch: Callable[[np.ndarray], np.ndarray], descriptor: str = "f", **metadata
    ) -> "FunctionOracle":
        """Oracle defined by one vectorized formula ``(m, d) -> (m,)``; its
        ``evaluate`` runs the same formula on a single row, so the two agree
        bitwise."""

        def value(x: np.ndarray) -> float:
            return float(batch(np.reshape(x, (1, -1)))[0])

        return cls(value, descriptor, evaluate_batch=batch, **metadata)

    def __call__(self, x) -> float:
        return float(self.evaluate(np.asarray(x, dtype=float)))

    def evaluate_rows(self, points: np.ndarray) -> np.ndarray:
        """Values at the rows of an ``(m, d)`` array, as a new ``(m,)`` array."""
        if self.evaluate_batch is None:
            return np.array([float(self.evaluate(row)) for row in points], dtype=float)
        values = np.array(self.evaluate_batch(points), dtype=float)
        if values.shape != (len(points),):
            raise ValueError(
                f"oracle '{self.descriptor}': evaluate_batch returned shape "
                f"{values.shape} for {len(points)} points"
            )
        return values


def _pair_rows(points: np.ndarray, tilts: np.ndarray) -> np.ndarray:
    """Pairings of the rows of an ``(m, d)`` array with one ``(d,)`` tilt,
    or with an ``(m, d)`` array holding one tilt per row, as ``(m,)`` values.

    The sum runs coordinate by coordinate in elementwise operations, which
    round each row alike wherever it sits in the array and whatever BLAS
    kernel is loaded; a matrix product does neither.
    """
    acc = points[:, 0] * tilts[..., 0]
    for j in range(1, points.shape[1]):
        acc = acc + points[:, j] * tilts[..., j]
    return acc


def _project_rows(region: BallRegion, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``region.project_rows(points)`` and the ``(m,)`` mask of the rows it
    moved, which land on the sphere."""
    out = np.array(points, dtype=float)
    offset = out - region.center
    nrm = _row_norms(offset)
    outside = nrm > region.radius
    if np.count_nonzero(outside):
        scale = region.radius / nrm[outside]
        out[outside] = region.center + offset[outside] * scale[:, None]
    return out, outside


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an ``(m, d)`` array: the sum and
    square root ``np.linalg.norm(rows, axis=1)`` computes, bitwise, without
    its copy of the array's conjugate."""
    return np.sqrt(np.add.reduce(rows * rows, axis=1))


def _norm(x) -> float:
    """Euclidean norm of a vector, ``sqrt(sum(x*x))``: bitwise the norm
    ``np.linalg.norm(rows, axis=1)`` gives that vector as a row, and free of
    BLAS."""
    x = np.asarray(x, dtype=float)
    return math.sqrt(float(np.sum(x * x)))


def pairing(xi, x) -> Union[float, np.ndarray]:
    """Dual pairing of a tilt with a point: the Euclidean dot product.

    ``x`` may also be an ``(m, d)`` array of points; the result is then the
    ``(m,)`` array of the pairings with its rows, each bitwise equal to
    pairing that row alone.
    """
    xi = as_vector(xi)
    if np.ndim(x) == 2:
        rows = np.asarray(x, dtype=float)
        if rows.shape[1] != xi.size:
            raise ValueError(f"dimension mismatch: expected {xi.size}, got {rows.shape[1]}")
        if not np.all(np.isfinite(rows)):
            raise ValueError("vector entries must be finite (no NaN/inf)")
        return _pair_rows(rows, xi)
    x = as_vector(x, xi.size)
    return float(_pair_rows(x[None, :], xi)[0])


def duality_map(x, p: float) -> np.ndarray:
    """Normalized gauge map: ``|x|^(p-2) * x``, the zero form at ``x = 0``.

    The result is aligned with ``x`` and has norm ``|x|^(p-1)``; at ``p = 2``
    it is the identity.
    """
    if not (p >= 1.0 and math.isfinite(p)):
        raise ValueError(f"p must be finite and >= 1, got {p}")
    x = as_vector(x)
    nrm = _norm(x)
    if nrm == 0.0:
        return np.zeros_like(x)
    return nrm ** (p - 2.0) * x


def indicator(predicate: Callable[[np.ndarray], bool]) -> Callable[[np.ndarray], float]:
    """Extended-real indicator of the set where ``predicate`` holds."""

    def value(x: np.ndarray) -> float:
        return 0.0 if predicate(x) else math.inf

    return value
