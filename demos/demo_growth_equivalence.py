"""Estimate the three growth-related constants and audit their relations.

For |x|^p the three constants are known in closed form: the growth modulus
is 1, tilted minimizers sit at sign(xi) * (|xi|/p)^(1/(p-1)) so the tilt
constant is p^(-q/p), and the value gap at those minimizers gives p^(-q).
The script estimates all three numerically, audits the relations that tie
them together, and then shows a function whose growth holds on only one
side, where the audit degenerates by design.

Run:  python demos/demo_growth_equivalence.py
"""

import numpy as np

from growthlab.catalog import halfpower_oracle, power_oracle
from growthlab.core import BallRegion, ExponentPair
from growthlab.diagnostics import run_diagnostics
from growthlab.minimize import SolverConfig

cfg = SolverConfig(grid_points_per_axis=2001)
region = BallRegion(np.zeros(1), 10.0)

print("=== |x|^p family: estimated vs analytic constants ===")
for p in (1.5, 2.0, 3.0):
    pq = ExponentPair.from_p(p)
    rep = run_diagnostics(
        power_oracle(p), region, pq, cfg, tilt_norms=(0.5, 1, 2, 4),
        directions_per_norm=2,
    )
    true = power_oracle(p).known_constants
    print(f"p={p}:")
    print(f"  growth modulus  {rep.growth.gamma_hat:.6f}  (analytic {true['gamma']:.6f})")
    print(f"  tilt constant   {rep.tilt.kappa_hat:.6f}  (analytic {true['kappa']:.6f})")
    print(f"  value-gap const {rep.loja.mu_hat:.6f}  (analytic {true['mu']:.6f})")
    audit = rep.audit
    print(f"  relations pass: {audit.all_pass}, growth-from-gap slack "
          f"{audit.gamma_vs_mu.slack:.4f} (1.0 means the chain is tight)")

print()
print("=== max(x,0)^3: growth on one side only ===")
pq = ExponentPair.from_p(3.0)
small = BallRegion(np.zeros(1), 1.0)
rep = run_diagnostics(
    halfpower_oracle(3.0), small, pq, cfg, tilt_norms=(0.5, 1, 2),
    directions_per_norm=2,
)
print(f"two-sided growth modulus: {rep.growth.gamma_hat} "
      f"(witness at x={rep.growth.witness[0]:+.3f}, the flat side)")
print(f"degenerate relations reported: {list(rep.audit.degenerate)}")
print("restricting the oracle to x >= 0 recovers the one-sided modulus:")

import math
from growthlab.core import FunctionOracle
from growthlab.diagnostics import estimate_growth

base = halfpower_oracle(3.0)
restricted = FunctionOracle(
    lambda x: float(base.evaluate(x)) if x[0] >= 0.0 else math.inf, "right side"
)
est = estimate_growth(restricted, small, pq, cfg)
print(f"  one-sided growth modulus: {est.gamma_hat:.6f}")
