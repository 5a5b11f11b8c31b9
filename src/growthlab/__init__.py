"""Numerical toolkit for growth conditions at strict local minimizers.

Estimates and cross-checks three equivalent descriptions of polynomial
growth: the growth modulus itself, stability of minimizers under linear
tilts, and a Łojasiewicz-type bound on value gaps.  Ships a p-power
proximal point iteration with a rate audit and a finite-difference elliptic
tracking problem whose target-perturbation sensitivity realizes the same
equivalence in a PDE-constrained setting.

``import growthlab`` loads no submodule.  Each name in ``__all__`` is
served from the submodule that defines it, which is imported on the first
use of one of its names, so a caller pays only for the layers it uses.
"""

import importlib as _importlib

# Every re-exported name, by the submodule that defines it.
_EXPORTS = {
    "core": (
        "BallRegion",
        "ExponentPair",
        "FunctionOracle",
        "GrowthLabError",
        "as_vector",
        "pairing",
    ),
    "minimize": (
        "AllInfinite",
        "NonFiniteValue",
        "SolverConfig",
        "TiltedSolveResult",
        "argmin_ball",
        "argmin_perturbed",
        "argmin_tilted",
        "ball_grid",
    ),
    "diagnostics": (
        "DiagnosticsReport",
        "EquivalenceAudit",
        "GraphCheck",
        "GrowthEstimate",
        "LojaEstimate",
        "NegativeGap",
        "ProbeResult",
        "SlopeInfinite",
        "TiltEstimate",
        "check_equivalence",
        "check_global_loja",
        "check_subregularity",
        "convex_probe",
        "estimate_growth",
        "estimate_loja_constant",
        "estimate_tilt_constant",
        "lipschitz_probe",
        "metric_slope",
        "run_diagnostics",
        "sample_subdifferential_graph",
        "unit_directions",
    ),
    "prox": (
        "EpsilonNotBelowGamma",
        "ProxConfig",
        "ProxTrajectory",
        "RateAudit",
        "audit_rates",
        "prox_step",
        "run_prox",
    ),
    "tracking": (
        "NewtonDivergence",
        "NoSamplesInShell",
        "SweepReport",
        "TrackingResult",
        "default_target",
        "l2_inner",
        "l2_norm",
        "objective",
        "perturbation_sweep",
        "sine_combination",
        "solve_adjoint",
        "solve_linearized",
        "solve_state",
        "solve_tracking",
        "ssc_estimate",
    ),
    "catalog": ("CATALOG", "CatalogEntry", "get_entry"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    # The value is looked up on every access and never stored here, so a
    # name always resolves to what its defining module holds right now,
    # including a replacement installed there after the first access.
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
