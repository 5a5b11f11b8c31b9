"""Solve the box-constrained elliptic tracking instance and probe the link
between curvature and target sensitivity.

The control problem drives the state of -lap(y) + y^3 = u toward a sine
bump, with u confined to [0, 8].  At the solution the adjoint is negative
exactly where the upper bound binds and positive where the lower bound
binds.  A positive sampled curvature constant predicts that re-solving with
perturbed targets moves the optimal state by at most a bounded multiple of
the perturbation; a small sweep shows those ratios directly.

Run:  python demos/demo_elliptic_tracking.py   (about a second)
"""

from growthlab.tracking import (
    DescentConfig,
    Grid2D,
    default_target,
    l2_norm,
    perturbation_sweep,
    solve_tracking,
    ssc_estimate,
)

grid = Grid2D(16)
y_d = 0.6 * default_target(grid)
cfg = DescentConfig(tol=1e-8)

result = solve_tracking(y_d, grid, 0.0, 8.0, cfg)
u, p = result.control, result.adjoint
print(f"grid {grid.n}x{grid.n}, box [0, 8], target 0.6*sin⊗sin")
print(f"objective {result.objective_value:.6e}, "
      f"first-order residual {result.first_order_residual:.2e}, "
      f"{result.iterations} iterations")
print(f"nodes at lower bound: {(u <= 1e-10).sum()}, "
      f"upper bound: {(u >= 8 - 1e-10).sum()}, "
      f"free: {((u > 1e-10) & (u < 8 - 1e-10)).sum()}")
print(f"tracking error |y - y_d| = {l2_norm(result.state - y_d, grid):.4e}")

c = ssc_estimate(u, y_d, grid, 0.0, 8.0, delta=0.1, sample_count=16, seed=0)
print(f"\nsampled curvature constant: c = {c:.4f} (positive: growth holds)")

print("\ntarget-perturbation sweep (state shift / perturbation size):")
report = perturbation_sweep(result, y_d, grid, 0.0, 8.0,
                            (1e-3, 1e-2, 1e-1), 3, cfg, seed=0)
for sample in report.samples:
    print(f"  |eta| = {sample.eta_norm:.0e}  ratio = {sample.ratio:.4f}  "
          f"({sample.iterations} iterations)")
print(f"largest ratio ({report.label}): {report.kappa_hat:.4f}")
