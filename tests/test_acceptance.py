"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not tuned at runtime; the two
calibration-derived numbers (second-difference tolerance, sweep spread
factor) were frozen from reference runs at n=32 and are recorded next to
their assertions.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import growthlab
from growthlab.catalog import CATALOG, boxquad_oracle, halfpower_oracle, power_oracle
from growthlab.core import BallRegion, ExponentPair, FunctionOracle
from growthlab.diagnostics import (
    check_global_loja,
    check_subregularity,
    convex_probe,
    estimate_growth,
    lipschitz_probe,
    run_diagnostics,
    sample_subdifferential_graph,
)
from growthlab.minimize import SolverConfig, argmin_tilted
from growthlab.prox import ProxConfig, audit_rates, run_prox
from growthlab import tracking as trk

TAU = 1.10
CFG_1D = SolverConfig(grid_points_per_axis=2001)
NORMS = (0.5, 1.0, 2.0, 4.0)
ORIGIN = np.zeros(1)


def report(line: str) -> None:
    print(f"[acceptance] {line}")


@pytest.fixture(scope="module")
def power_reports():
    """Diagnostics for the |x|^p family at delta=10, with wall times."""
    out = {}
    for p in (1.5, 2.0, 3.0):
        pq = ExponentPair.from_p(p)
        region = BallRegion(ORIGIN, 10.0)
        start = time.monotonic()
        rep = run_diagnostics(
            power_oracle(p), region, pq, CFG_1D, NORMS, 2, seed=0, tau=TAU
        )
        out[p] = (rep, time.monotonic() - start)
    return out


@pytest.fixture(scope="module")
def tracking_instance():
    """Reference tracking solve at n=32 on the default instance."""
    grid = trk.Grid2D(32)
    y_d = 0.6 * trk.default_target(grid)
    result = trk.solve_tracking(y_d, grid, 0.0, 8.0, trk.DescentConfig(tol=1e-8))
    return grid, y_d, result


def test_c01_power_family_constants(power_reports):
    for p, (rep, elapsed) in power_reports.items():
        pq = ExponentPair.from_p(p)
        assert rep.growth.gamma_hat == pytest.approx(1.0, rel=0.05)
        assert rep.tilt.kappa_hat == pytest.approx(p ** (-pq.q / pq.p), rel=0.05)
        assert rep.loja.mu_hat == pytest.approx(p ** (-pq.q), rel=0.05)
        assert elapsed < 10.0
    report("C1 power-family constants within 5% (runtime < 10 s each): PASS")


def test_c02_constant_relation_audit(power_reports):
    # |x|^p family: all three relations hold and the growth-from-gap
    # relation is tight within the slack factor
    for p, (rep, _) in power_reports.items():
        audit = rep.audit
        assert audit.all_pass
        assert audit.kappa_vs_gamma.slack <= TAU
        assert audit.mu_vs_kappa.slack <= TAU
        assert 1.0 / TAU <= audit.gamma_vs_mu.slack <= TAU

    # every catalog entry at default parameters: relations audited whenever
    # the estimated growth modulus is positive
    for entry in CATALOG.values():
        oracle = entry.make()
        radius = 1.5 if entry.id == "boxquad" else 10.0
        region = BallRegion(np.zeros(entry.dimension), radius)
        pq = ExponentPair.from_p(float(oracle.known_constants["p"]))
        cfg = CFG_1D if entry.dimension == 1 else SolverConfig(grid_points_per_axis=101)
        dirs = 2 if entry.dimension == 1 else 8
        rep = run_diagnostics(oracle, region, pq, cfg, NORMS, dirs, seed=0, tau=TAU)
        if rep.growth.gamma_hat > 0.0:
            assert rep.audit.all_pass
            assert rep.audit.kappa_vs_gamma.checked
        else:
            assert rep.audit.degenerate
    report("C2 relation audit (tau=1.10) on all catalog functions: PASS")


def test_c03_partial_growth_detection():
    for p in (2.0, 3.0):
        pq = ExponentPair.from_p(p)
        region = BallRegion(ORIGIN, 1.0)
        fn = halfpower_oracle(p)
        est = estimate_growth(fn, ORIGIN, region, pq, CFG_1D)
        assert est.gamma_hat == 0.0
        assert est.witness[0] < 0.0
        restricted = FunctionOracle(
            lambda x, fn=fn: float(fn.evaluate(x)) if x[0] >= 0.0 else math.inf,
            "restricted",
        )
        right = estimate_growth(restricted, ORIGIN, region, pq, CFG_1D)
        assert right.gamma_hat == pytest.approx(1.0, rel=0.05)
    report("C3 partial growth: zero modulus with left witness, ~1 on the right: PASS")


def test_c04_nonlinear_perturbation_probes(power_reports):
    for p, (rep, _) in power_reports.items():
        pq = ExponentPair.from_p(p)
        lam = pq.q / pq.p
        kappa = rep.growth.gamma_hat ** (-pq.q / pq.p) * TAU
        region = BallRegion(ORIGIN, 10.0)
        f = power_oracle(p)

        zeta = FunctionOracle(
            lambda y: float(0.2 * abs(y[0] - 1.0)), "kink",
            known_constants={"lip": 0.2},
        )
        assert lipschitz_probe(f, ORIGIN, region, zeta, lam, kappa, CFG_1D).passed

        c = 0.3
        phi = FunctionOracle(lambda y: float(c * y[0]), "linear")
        probe = convex_probe(f, ORIGIN, region, phi, lam, kappa, CFG_1D)
        assert probe.passed
        # the linear special case reduces to a tilt: same witness
        tilted = argmin_tilted(f, [-c], region, CFG_1D)
        assert probe.witness[0] == pytest.approx(tilted.representative[0], abs=1e-7)
    report("C4 Lipschitz/convex probes with kappa=gamma^(-q/p)*tau: PASS")


def test_c05_prox_rates():
    start = time.monotonic()
    pq = ExponentPair.from_p(2.0)
    # tight value tolerance so iterates near 0.2^10 stay resolved
    cfg = ProxConfig(
        epsilon=0.5,
        exponents=pq,
        iterations=10,
        region=BallRegion(ORIGIN, 2.0),
        solver=SolverConfig(
            grid_points_per_axis=201, minimizer_value_tolerance=1e-15
        ),
    )
    traj = run_prox(power_oracle(2.0), [1.0], cfg)
    for k, point in enumerate(traj.points):
        assert point[0] == pytest.approx(0.2**k, abs=1e-6)
    audit = audit_rates(traj, 1.0, ORIGIN, 0.0, pq, 0.5)
    assert audit.passed
    for k, rec in enumerate(audit.records):
        assert rec.actual_distance <= 0.5**k + 1e-9
        assert rec.actual_gap <= 0.25**k + 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(f"C5 prox trajectory 0.2^k and rate envelopes ({elapsed:.2f} s): PASS")


def test_c06_subregularity_and_global_loja():
    f = boxquad_oracle(1.0)
    pq = ExponentPair.from_p(2.0)
    region = BallRegion(ORIGIN, 1.5)
    grid = [np.array([t]) for t in np.linspace(-2.0, 2.0, 41)]
    pairs = sample_subdifferential_graph(f, region, grid, SolverConfig(grid_points_per_axis=301))
    assert check_subregularity(pairs, ORIGIN, pq, kappa=0.5 * TAU).passed
    assert not check_subregularity(pairs, ORIGIN, pq, kappa=0.5 * TAU / 2).passed
    assert check_global_loja(pairs, f, ORIGIN, pq, mu=0.25 * TAU).passed
    assert not check_global_loja(pairs, f, ORIGIN, pq, mu=0.25 * TAU / 2).passed
    report("C6 subregularity and value-gap checks pass, fail when halved: PASS")


def test_c07_pde_solver_order():
    from _reference import neg_laplacian as _neg_laplacian

    start = time.monotonic()
    errors = {}
    for n in (16, 32, 64):
        grid = trk.Grid2D(n)
        x1, x2 = grid.nodes()
        ystar = np.sin(np.pi * x1) * np.sin(np.pi * x2)
        u = 2.0 * np.pi**2 * ystar + ystar**3
        y = trk.solve_state(u, grid)
        residual = grid.h * np.linalg.norm(
            _neg_laplacian(n) @ y.ravel() + y.ravel() ** 3 - u.ravel()
        )
        assert residual <= 1e-10
        errors[n] = trk.l2_norm(y - ystar, grid)
    r1 = errors[16] / errors[32]
    r2 = errors[32] / errors[64]
    assert 3.3 <= r1 <= 4.7
    assert 3.3 <= r2 <= 4.7
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(f"C7 manufactured-solution order (ratios {r1:.2f}, {r2:.2f}; {elapsed:.1f} s): PASS")


def test_c08_adjoint_gradient_second_order(tracking_instance):
    grid, y_d, result = tracking_instance
    rng = np.random.default_rng(1)

    t = 1e-5
    for _ in range(5):
        u = rng.uniform(0.0, 8.0, (grid.n, grid.n))
        v = rng.standard_normal((grid.n, grid.n))
        p = trk.solve_adjoint(trk.solve_state(u, grid), y_d, grid)
        fd = (
            trk.objective(u + t * v, y_d, grid) - trk.objective(u - t * v, y_d, grid)
        ) / (2 * t)
        jval = trk.objective(u, y_d, grid)
        assert abs(trk.l2_inner(p, v, grid) - fd) <= 1e-6 * (1.0 + abs(jval))

    y = result.state
    for _ in range(3):
        v = rng.standard_normal((grid.n, grid.n))
        w = rng.standard_normal((grid.n, grid.n))
        zv = trk.solve_linearized(v, y, grid)
        zw = trk.solve_linearized(w, y, grid)
        assert abs(trk.l2_inner(zv, w, grid) - trk.l2_inner(v, zw, grid)) <= 1e-10

    # frozen from the calibration run at n=32, t=1e-3: worst observed
    # relative error 7.6e-7, tolerance 1e-5 keeps a 13x margin
    td = 1e-3
    for _ in range(3):
        v = rng.standard_normal((grid.n, grid.n))
        form = trk.second_order_form(result.control, v, y_d, grid)
        fd2 = (
            trk.objective(result.control + td * v, y_d, grid)
            - 2.0 * trk.objective(result.control, y_d, grid)
            + trk.objective(result.control - td * v, y_d, grid)
        ) / td**2
        assert abs(form - fd2) <= 1e-5 * abs(form)
    report("C8 adjoint/gradient/second-order consistency: PASS")


def test_c09_perturbation_consistency(tracking_instance):
    start = time.monotonic()
    grid, y_d, result = tracking_instance
    assert result.converged

    c = trk.ssc_estimate(
        result.control, y_d, grid, 0.0, 8.0, delta=0.1, sample_count=16, seed=0
    )
    assert c > 0.0

    sweep = trk.perturbation_sweep(
        result, y_d, grid, 0.0, 8.0, (1e-3, 1e-2, 1e-1), 8,
        trk.DescentConfig(tol=1e-8), seed=0,
    )
    ratios = sweep.ratios()
    assert len(ratios) == 24
    assert math.isfinite(sweep.kappa_hat)
    med = float(np.median(ratios))
    # spread factor 4 frozen from the reference run at n=32
    assert all(med / 4.0 <= r <= med * 4.0 for r in ratios)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    report(
        f"C9 sweep ratios within 4x of median {med:.3f}, kappa_hat="
        f"{sweep.kappa_hat:.3f}, c={c:.3f} ({elapsed:.0f} s): PASS"
    )


def _run_cli(args, cwd):
    # The child runs in cwd (tmp_path), where a relative PYTHONPATH such as the
    # Tier-1 command's ``src`` no longer points at the package; put the absolute
    # root of the growthlab this process imported first, so the child imports
    # the same tree as the test.
    env = os.environ.copy()
    package_root = str(Path(growthlab.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = package_root + (os.pathsep + existing if existing else "")
    proc = subprocess.run(
        [sys.executable, "-m", "growthlab.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=500,
    )
    return proc


def test_c10_cli_determinism(tmp_path):
    cases = {
        "diagnose": ["diagnose", "--fn", "power", "--delta", "1",
                     "--grid-points", "301", "--out", "out_d"],
        "prox": ["prox", "--fn", "power", "--epsilon", "0.5", "--x0", "1.0",
                 "--iterations", "5", "--out", "out_p"],
        "tracking": ["tracking", "--n", "8", "--eta-norms", "1e-2,1e-1",
                     "--etas-per-norm", "1", "--ssc-samples", "4", "--out", "out_t"],
        "catalog": ["catalog"],
    }
    for name, args in cases.items():
        first = _run_cli(args, tmp_path)
        assert first.returncode == 0, first.stderr
        out_dir = tmp_path / args[args.index("--out") + 1] if "--out" in args else None
        snapshot = (
            {f.name: f.read_bytes() for f in out_dir.iterdir()} if out_dir else None
        )
        second = _run_cli(args, tmp_path)
        assert second.returncode == 0, second.stderr
        assert second.stdout == first.stdout
        if out_dir is not None:
            rerun = {f.name: f.read_bytes() for f in out_dir.iterdir()}
            assert rerun == snapshot, f"{name} outputs changed between runs"
    report("C10 bit-identical outputs across consecutive runs: PASS")
