"""Shared domain types: finite vectors, conjugate exponents, closed balls,
and extended-real function oracles.

Everything lives in finite-dimensional Euclidean space with the 2-norm.
``+inf`` is the one and only encoding of "outside the domain"; oracles never
use large sentinel floats, so indicator functions compose safely with
comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Union

import numpy as np

__all__ = [
    "GrowthLabError",
    "ExponentPair",
    "BallRegion",
    "FunctionOracle",
    "as_vector",
    "pairing",
    "tilted_value",
    "duality_map",
    "indicator",
]


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


@dataclass(frozen=True)
class ExponentPair:
    """Conjugate exponents ``p, q > 1`` with ``1/p + 1/q = 1``."""

    p: float
    q: float

    def __post_init__(self) -> None:
        if not (self.p > 1.0 and math.isfinite(self.p)):
            raise ValueError(f"p must be finite and > 1, got {self.p}")
        if not (self.q > 1.0 and math.isfinite(self.q)):
            raise ValueError(f"q must be finite and > 1, got {self.q}")
        if abs(1.0 / self.p + 1.0 / self.q - 1.0) > 1e-12:
            raise ValueError(f"exponents are not conjugate: 1/{self.p} + 1/{self.q} != 1")

    @classmethod
    def from_p(cls, p: float) -> "ExponentPair":
        """Build the pair from ``p`` alone, with ``q = p / (p - 1)``."""
        if not (p > 1.0 and math.isfinite(p)):
            raise ValueError(f"p must be finite and > 1, got {p}")
        return cls(p, p / (p - 1.0))


@dataclass(frozen=True)
class BallRegion:
    """Closed Euclidean ball of positive finite radius around ``center``."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", as_vector(self.center))
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be finite and positive, got {self.radius}")

    @property
    def dim(self) -> int:
        return self.center.size

    def contains(self, x, slack: float = 1e-12) -> bool:
        """Closed-ball membership with absolute ``slack`` on the radius."""
        x = as_vector(x, self.dim)
        return bool(np.linalg.norm(x - self.center) <= self.radius + slack)

    def project(self, x) -> np.ndarray:
        """Radial projection of ``x`` onto the closed ball."""
        return self.project_rows(as_vector(x, self.dim)[None, :])[0]

    def project_rows(self, points: np.ndarray) -> np.ndarray:
        """Radial projection of each row of a finite ``(m, d)`` array onto
        the closed ball; rows already inside are returned unchanged."""
        out = np.array(points, dtype=float)
        offset = out - self.center
        nrm = np.linalg.norm(offset, axis=1)
        outside = nrm > self.radius
        if outside.any():
            scale = self.radius / nrm[outside]
            out[outside] = self.center + offset[outside] * scale[:, None]
        return out


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


def pairing(xi, x) -> Union[float, np.ndarray]:
    """Dual pairing of a tilt with a point: the Euclidean dot product.

    ``x`` may also be an ``(m, d)`` array of points; the result is then the
    ``(m,)`` array of the pairings with its rows.
    """
    xi = as_vector(xi)
    if np.ndim(x) == 2:
        rows = np.asarray(x, dtype=float)
        if rows.shape[1] != xi.size:
            raise ValueError(f"dimension mismatch: expected {xi.size}, got {rows.shape[1]}")
        if not np.all(np.isfinite(rows)):
            raise ValueError("vector entries must be finite (no NaN/inf)")
        return rows @ xi
    x = as_vector(x, xi.size)
    return float(np.dot(xi, x))


def tilted_value(f: FunctionOracle, xi, x) -> float:
    """Value of the linearly tilted objective ``f(x) - <xi, x>``.

    A ``+inf`` objective value propagates regardless of the tilt.
    """
    fx = f(x)
    if math.isinf(fx):
        return fx
    return fx - pairing(xi, x)


def duality_map(x, p: float) -> np.ndarray:
    """Normalized gauge map: ``|x|^(p-2) * x``, the zero form at ``x = 0``.

    The result is aligned with ``x`` and has norm ``|x|^(p-1)``; at ``p = 2``
    it is the identity.
    """
    if not (p >= 1.0 and math.isfinite(p)):
        raise ValueError(f"p must be finite and >= 1, got {p}")
    x = as_vector(x)
    nrm = float(np.linalg.norm(x))
    if nrm == 0.0:
        return np.zeros_like(x)
    return nrm ** (p - 2.0) * x


def indicator(predicate: Callable[[np.ndarray], bool]) -> Callable[[np.ndarray], float]:
    """Extended-real indicator of the set where ``predicate`` holds."""

    def value(x: np.ndarray) -> float:
        return 0.0 if predicate(x) else math.inf

    return value
