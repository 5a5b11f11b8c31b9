"""Run the p-power proximal point iteration and compare against its
geometric envelopes.

For f(x) = x^2 each subproblem has the closed-form solution 0.2 * x_k, so
the iteration contracts much faster than the guaranteed envelope
(eps/gamma)^(k q/p) = 0.5^k; the value gap beats its 0.25^k envelope the
same way.

Run:  python demos/demo_prox_rates.py
"""

import numpy as np

from growthlab.catalog import power_oracle
from growthlab.core import BallRegion, ExponentPair
from growthlab.minimize import SolverConfig
from growthlab.prox import ProxConfig, audit_rates, run_prox

f = power_oracle(2.0)
cfg = ProxConfig(
    epsilon=0.5,
    exponents=ExponentPair.from_p(2.0),
    iterations=10,
    region=BallRegion(np.zeros(1), 2.0),
    solver=SolverConfig(grid_points_per_axis=201, minimizer_value_tolerance=1e-15),
)

traj = run_prox(f, [1.0], cfg)
# the audit reads epsilon and the exponents from traj.config
audit = audit_rates(traj, gamma_ref=1.0, xbar=np.zeros(1), fbar=0.0)

print(f"contraction factor of the envelope: rho = {audit.rho}")
print(f"{'k':>2} {'x_k':>13} {'|x_k| bound':>12} {'f gap':>13} {'f bound':>12}")
for rec, point in zip(audit.records, traj.points):
    print(f"{rec.k:>2} {point[0]:>13.6e} {rec.bound_distance:>12.4e} "
          f"{rec.actual_gap:>13.6e} {rec.bound_gap:>12.4e}")
print(f"both envelopes hold at every step: {audit.passed}")

print()
print("a growth modulus at or below the step parameter 0.5 is refused:")
try:
    audit_rates(traj, gamma_ref=0.4, xbar=np.zeros(1), fbar=0.0)
except Exception as exc:
    print(f"  {type(exc).__name__}: {exc}")
