"""Closed-form test functions with their analytic constants.

Each entry builds a ``FunctionOracle`` whose ``known_constants`` record the
analytic growth, tilt-stability, and Łojasiewicz-type constants where they
exist.  The diagnostics estimators never read these; test harnesses and the
command line use them as ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Mapping

import numpy as np

from .core import ExponentPair, FunctionOracle

__all__ = [
    "CatalogEntry",
    "CATALOG",
    "get_entry",
    "power_oracle",
    "halfpower_oracle",
    "maxsq2d_oracle",
    "boxquad_oracle",
]


def power_oracle(p: float = 2.0) -> FunctionOracle:
    """``|x|^p`` on the line: growth modulus 1, tilt constant ``p^(-q/p)``,
    value-gap constant ``p^(-q)``."""
    pq = ExponentPair.from_p(p)
    return FunctionOracle.from_batch(
        lambda x: np.abs(x[:, 0]) ** p,
        f"power(p={p})",
        known_minimizer=np.zeros(1),
        known_constants={
            "p": p,
            "gamma": 1.0,
            "kappa": p ** (-pq.q / pq.p),
            "mu": p ** (-pq.q),
        },
    )


def halfpower_oracle(p: float = 2.0) -> FunctionOracle:
    """``max(x, 0)^p`` on the line: flat on the left, so the two-sided
    growth modulus is zero while the right-restricted one is 1."""
    return FunctionOracle.from_batch(
        lambda x: np.maximum(x[:, 0], 0.0) ** p,
        f"halfpower(p={p})",
        known_minimizer=np.zeros(1),
        known_constants={"p": p, "gamma": 0.0, "gamma_right": 1.0},
    )


def maxsq2d_oracle() -> FunctionOracle:
    """``max(x1, 0)^2 + x2^2`` on the plane: quadratic growth only on the
    half-space ``x1 >= 0``."""
    return FunctionOracle.from_batch(
        lambda x: np.maximum(x[:, 0], 0.0) ** 2 + x[:, 1] ** 2,
        "maxsq2d",
        known_minimizer=np.zeros(2),
        known_constants={"p": 2.0, "gamma": 0.0, "gamma_right": 1.0},
    )


def _check_bound(bound: float) -> None:
    """Refuse a ``bound`` that is not positive and finite."""
    if not (bound > 0 and math.isfinite(bound)):
        raise ValueError(f"bound must be positive and finite, got {bound}")


def boxquad_oracle(bound: float = 1.0) -> FunctionOracle:
    """``x^2`` restricted to ``[-bound, bound]`` by an indicator: a bounded
    domain, so graph sampling by tilting covers every subgradient."""
    _check_bound(bound)
    return FunctionOracle.from_batch(
        lambda x: np.where(np.abs(x[:, 0]) > bound, math.inf, x[:, 0] ** 2),
        f"boxquad(bound={bound})",
        known_minimizer=np.zeros(1),
        known_constants={"p": 2.0, "gamma": 1.0, "kappa": 0.5, "mu": 0.25},
    )


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    summary: str
    dimension: int
    build: Callable[..., FunctionOracle]
    default_params: Mapping[str, float]

    def make(self, **overrides) -> FunctionOracle:
        params = dict(self.default_params)
        params.update(overrides)
        return self.build(**params)


CATALOG: Dict[str, CatalogEntry] = {
    entry.id: entry
    for entry in (
        CatalogEntry(
            "power",
            "|x|^p on the line, all three constants in closed form",
            1,
            power_oracle,
            {"p": 2.0},
        ),
        CatalogEntry(
            "halfpower",
            "max(x,0)^p on the line, growth only on the right",
            1,
            halfpower_oracle,
            {"p": 2.0},
        ),
        CatalogEntry(
            "maxsq2d",
            "max(x1,0)^2 + x2^2 on the plane, growth only on a half-space",
            2,
            maxsq2d_oracle,
            {},
        ),
        CatalogEntry(
            "boxquad",
            "x^2 plus the indicator of [-bound, bound]",
            1,
            boxquad_oracle,
            {"bound": 1.0},
        ),
    )
}


def get_entry(fn_id: str) -> CatalogEntry:
    try:
        return CATALOG[fn_id]
    except KeyError:
        known = ", ".join(sorted(CATALOG))
        raise ValueError(f"unknown function id {fn_id!r}; known ids: {known}") from None
