"""Numerical toolkit for growth conditions at strict local minimizers.

Estimates and cross-checks three equivalent descriptions of polynomial
growth: the growth modulus itself, stability of minimizers under linear
tilts, and a Łojasiewicz-type bound on value gaps.  Ships a p-power
proximal point iteration with a rate audit and a finite-difference elliptic
tracking problem whose target-perturbation sensitivity realizes the same
equivalence in a PDE-constrained setting.
"""

from .core import (
    BallRegion,
    ExponentPair,
    FunctionOracle,
    GrowthLabError,
    as_vector,
    duality_map,
    indicator,
    pairing,
)
from .minimize import (
    AllInfinite,
    NonFiniteValue,
    SolverConfig,
    TiltedSolveResult,
    argmin_ball,
    argmin_perturbed,
    argmin_tilted,
    ball_grid,
)
from .diagnostics import (
    DiagnosticsReport,
    EquivalenceAudit,
    GraphCheck,
    GrowthEstimate,
    LojaEstimate,
    NegativeGap,
    NoFiniteSamples,
    ProbeResult,
    SlopeInfinite,
    TiltEstimate,
    check_equivalence,
    check_global_loja,
    check_subregularity,
    convex_probe,
    estimate_growth,
    estimate_loja_constant,
    estimate_tilt_constant,
    lipschitz_probe,
    metric_slope,
    run_diagnostics,
    sample_subdifferential_graph,
    unit_directions,
)
from .prox import (
    EpsilonNotBelowGamma,
    ProxConfig,
    ProxTrajectory,
    RateAudit,
    audit_rates,
    prox_step,
    run_prox,
)
from .tracking import (
    DescentConfig,
    Grid2D,
    NewtonDivergence,
    NoSamplesInShell,
    SweepReport,
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
from .catalog import CATALOG, CatalogEntry, get_entry

__version__ = "0.1.0"
