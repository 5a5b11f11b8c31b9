"""Sample a subdifferential graph by tilting and run the global checks.

For x^2 restricted to [-1, 1] every tilt xi pairs with the minimizer
clip(xi/2, -1, 1), so distances obey |x| <= 0.5 * d and value gaps obey
f(x) <= 0.25 * d^2, where d is the distance from zero to the sampled
subdifferential.  Both checks pass at those constants (with 10% slack)
and fail when the constants are halved.

Run:  python demos/demo_subdifferential_graph.py
"""

import numpy as np

from growthlab.catalog import boxquad_oracle
from growthlab.core import BallRegion, ExponentPair
from growthlab.diagnostics import (
    check_global_loja,
    check_subregularity,
    sample_subdifferential_graph,
)
from growthlab.minimize import SolverConfig

f =boxquad_oracle(1.0)
pq = ExponentPair.from_p(2.0)
region = BallRegion(np.zeros(1), 1.5)
cfg = SolverConfig(grid_points_per_axis=301)

tilt_grid = [np.array([t]) for t in np.linspace(-2.0, 2.0, 41)]
pairs = sample_subdifferential_graph(f, region, tilt_grid, cfg)
print(f"sampled {len(pairs)} (point, tilt) pairs; a few of them:")
for x, xi in pairs[:3] + pairs[-3:]:
    print(f"  x = {x[0]:+.6f}   xi = {xi[0]:+.2f}")

origin = np.zeros(1)
for kappa in (0.55, 0.275):
    check = check_subregularity(pairs, origin, pq, kappa)
    print(f"distance check with kappa={kappa}: "
          f"{'pass' if check.passed else 'FAIL'} "
          f"(worst ratio {check.worst_ratio:.4f})")
for mu in (0.275, 0.1375):
    check = check_global_loja(pairs, f, origin, pq, mu)
    print(f"value-gap check with mu={mu}: "
          f"{'pass' if check.passed else 'FAIL'} "
          f"(worst ratio {check.worst_ratio:.4f})")
