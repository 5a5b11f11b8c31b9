"""Seeded job lists for the three benchmark workloads, and one runner per
job kind that executes a job and checks its output.

A workload's job list is an endless sequence of *blocks*.  Every block
holds the same job shapes in the same order; the seed draws each job's
continuous parameters, one stratum per shape, so every block costs about
the same and a run made of whole blocks has the same mix on every seed.
Block ``b`` of seed ``s`` depends on ``(workload, s, b)`` alone.

Why each workload exists:

``catalog-1d``
    Short 1-D jobs: ``diagnose`` on power, boxquad and halfpower at 2001
    points with 4 tilt norms x 2 directions, ``prox`` on power with the
    rate audit, C6-shaped graph sampling on boxquad (the +inf domain
    covers a third of the ball) and C4-shaped Lipschitz/convex probes.
    The grid scan dominates; all three +inf-absorbing oracle wrappers run
    and ``tracking`` never does.
``maxsq-2d``
    ``diagnose --fn maxsq2d`` at 41, 61 and 101 points per axis with 8, 4
    and 6 directions and 2, 3 and 1 seeded tilt norms, plus one 2-D
    ``prox`` job at the default 101 points.  Coordinate-descent polish
    dominates and tilted solves return several near-optimal points;
    ``tracking`` never runs.
``pde-tracking``
    ``tracking`` at n = 16, 24 and 32, two, four and two jobs a block, and
    amplitudes in [0.63, 0.65], with one sweep sample at each of the norms
    1e-3 and 1e-2 and 4 curvature samples.  SPD factor-and-solve dominates;
    ``minimize`` and ``diagnostics`` never run.  Projected-gradient
    iterations depend on how much of the box is active, and so on the
    amplitude.  Below 0.62 the cost of an n = 32 job climbs steeply, from
    about 2 s at 0.62 to 4 s at 0.60 and up to 30 s at 0.5 on a 2-core
    machine, so a few jobs would decide a run's median; the range is
    narrow, and half the jobs are n = 24, so that the median job is one of
    many similar ones.  Toward saturation the sweep-consistency check
    fails, which is the correct outcome there, not a defect: from about
    0.67 at n = 16 the whole box can be active, a 1e-3 perturbation leaves
    the control where it is and its ratio reads ~1e-10.  A sample at the
    default norm 1e-1 changes the active set, so its ratio can fall 4-8x
    below the others, and with one sample per norm the check then fails on
    5-30% of sweep seeds at every amplitude from 0.55 to 0.7.

The job runners call the public API only: ``growthlab.cli.main`` for the
CLI subcommands and module attributes of ``growthlab.diagnostics`` for
the job shapes the CLI does not expose.  They look functions up at call
time, so a traced run sees every call.  Tolerances are the ones
``tests/test_acceptance.py`` pins.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

WORKLOADS = ("catalog-1d", "maxsq-2d", "pde-tracking")

# Modules each workload's jobs use, beyond growthlab.cli.
WORKLOAD_MODULES = {
    "catalog-1d": ("growthlab.catalog", "growthlab.diagnostics", "growthlab.prox"),
    "maxsq-2d": ("growthlab.catalog", "growthlab.diagnostics", "growthlab.prox"),
    "pde-tracking": ("growthlab.tracking",),
}

# Pinned by tests/test_acceptance.py.
CONST_RTOL = 0.05
TAU = 1.10


def _strata(rng: random.Random, lo: float, hi: float, count: int) -> List[float]:
    """One uniform draw from each of ``count`` equal slices of [lo, hi]."""
    width = (hi - lo) / count
    return [lo + (i + rng.random()) * width for i in range(count)]


def _num(x: float) -> str:
    return repr(round(x, 6))


def _catalog_block(rng: random.Random) -> List[dict]:
    bound = rng.uniform(0.75, 1.25)
    # Three power and two halfpower jobs, which cost about the same, put
    # the median job inside one group of similar jobs.
    return [
        *({"kind": "diagnose", "fn": "power", "p": round(p, 6)}
          for p in _strata(rng, 1.5, 4.0, 3)),
        {"kind": "diagnose", "fn": "boxquad", "bound": round(bound, 6),
         "delta": round(1.5 * bound, 6)},
        *({"kind": "diagnose", "fn": "halfpower", "p": round(p, 6)}
          for p in _strata(rng, 1.5, 4.0, 2)),
        {"kind": "prox", "fn": "power", "p": round(rng.uniform(1.5, 4.0), 6),
         "epsilon": round(rng.uniform(0.2, 0.8), 6),
         "x0": [round(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0), 6)],
         "iterations": rng.randint(4, 8)},
        {"kind": "graph", "bound": round(rng.uniform(0.75, 1.25), 6),
         "tilts": 2 * rng.randint(15, 25) + 1, "grid_points": 301},
        {"kind": "probes", "p": round(rng.uniform(1.5, 4.0), 6),
         "lip": round(rng.uniform(0.1, 0.3), 6), "kink": round(rng.uniform(0.5, 1.5), 6),
         "slope": round(rng.uniform(0.1, 0.5), 6)},
    ]


def _maxsq_block(rng: random.Random) -> List[dict]:
    def norms(count: int) -> List[float]:
        # one norm per slice of [0.25, 4], drawn log-uniformly
        return [round(2.0 ** e, 6) for e in _strata(rng, -2.0, 2.0, count)]

    # Three diagnose jobs of about the same cost and one cheaper prox job,
    # so the median job is the middle of the diagnose jobs, not the edge
    # between them and the prox jobs.
    return [
        {"kind": "diagnose", "fn": "maxsq2d", "grid_points": 41, "directions": 8,
         "tilt_norms": norms(2)},
        {"kind": "diagnose", "fn": "maxsq2d", "grid_points": 61, "directions": 4,
         "tilt_norms": norms(3)},
        {"kind": "prox", "fn": "maxsq2d", "p": 2.0,
         "epsilon": round(rng.uniform(0.2, 0.8), 6),
         "x0": [round(rng.uniform(-2.0, 2.0), 6) for _ in range(2)],
         "iterations": rng.randint(4, 8), "grid_points": 101},
        {"kind": "diagnose", "fn": "maxsq2d", "grid_points": 101, "directions": 6,
         "tilt_norms": norms(1)},
    ]


AMPLITUDE_RANGE = (0.63, 0.65)
JOBS_PER_N = {16: 2, 24: 4, 32: 2}
GOLDEN = (5 ** 0.5 - 1) / 2


def _tracking_block(phase: float) -> List[dict]:
    # For each n, one amplitude in each of JOBS_PER_N[n] slices of the
    # range, at ``phase`` of the slice's width.  The CLI seed, which draws
    # the sweep perturbations and curvature samples, stays 0: it changes how
    # long the perturbed solves iterate, and at n = 24 and amplitude
    # 0.625-0.629 alone moved a job between 1.15 and 1.83 s, too much for a
    # steady median of a run's jobs.
    lo, hi = AMPLITUDE_RANGE
    return [
        {"kind": "tracking", "n": n,
         "amplitude": round(lo + (i + phase) * (hi - lo) / count, 6), "seed": 0}
        for n, count in JOBS_PER_N.items()
        for i in range(count)
    ]


_BLOCKS: Dict[str, Callable[[random.Random], List[dict]]] = {
    "catalog-1d": _catalog_block,
    "maxsq-2d": _maxsq_block,
}


def make_block(workload: str, seed: int, index: int) -> List[dict]:
    """Block ``index`` of the job list of ``workload`` under ``seed``."""
    if workload == "pde-tracking":
        # A job's cost halves from the low to the high end of the amplitude
        # range.  The phases follow a golden-ratio sequence that the seed
        # starts, so the blocks of any run cover every slice evenly.
        start = random.Random(f"{workload}:{seed}").random()
        return _tracking_block((start + index * GOLDEN) % 1.0)
    return _BLOCKS[workload](random.Random(f"{workload}:{seed}:{index}"))


def blocks(workload: str, seed: int) -> Iterator[List[dict]]:
    index = 0
    while True:
        yield make_block(workload, seed, index)
        index += 1


def digest(jobs: List[dict]) -> str:
    """SHA-256 of the canonical JSON of a job list."""
    text = json.dumps(jobs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Running and checking jobs


class JobFailed(Exception):
    """A job's output did not pass verification."""


@dataclass
class Outcome:
    """What a job produced, as far as the benchmark checks it."""

    const_errors: Tuple[float, ...] = ()
    output_bytes: int = 0


def _cli(args: List[str], out: Path) -> Tuple[int, str]:
    from growthlab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = cli.main(args + ["--out", str(out)])
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
    return rc, buf.getvalue()


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise JobFailed(message)


def _dir_bytes(out: Path) -> int:
    return sum(f.stat().st_size for f in out.iterdir()) if out.is_dir() else 0


def _diagnose_args(job: dict) -> List[str]:
    args = ["diagnose", "--fn", job["fn"]]
    for key in ("p", "bound", "delta", "grid_points", "directions"):
        if key in job:
            args += ["--" + key.replace("_", "-"), _num(job[key])]
    if "tilt_norms" in job:
        args += ["--tilt-norms", ",".join(_num(v) for v in job["tilt_norms"])]
    return args


def _run_diagnose(job: dict, out: Path) -> Callable[[], Outcome]:
    rc, log = _cli(_diagnose_args(job), out)

    def check() -> Outcome:
        from growthlab.catalog import get_entry

        _expect(rc == 0, f"exit code {rc}: {log.strip()[-300:]}")
        report = json.loads((out / "diagnose_report.json").read_text())
        params = {k: job[k] for k in ("p", "bound") if k in job}
        known = dict(get_entry(job["fn"]).make(**params).known_constants)
        estimates = {
            "gamma": report["growth"]["gamma_hat"],
            "kappa": report["tilt"]["kappa_hat"],
            "mu": report["loja"]["mu_hat"],
        }
        errors = []
        for name, est in estimates.items():
            ref = known.get(name)
            if ref is None:
                continue
            if ref == 0.0:
                _expect(est == 0.0, f"{name}_hat={est!r}, analytic value 0")
                continue
            err = abs(est - ref) / abs(ref)
            _expect(err <= CONST_RTOL, f"{name}_hat={est!r} vs analytic {ref!r}")
            errors.append(err)
        audit = report["audit"]
        _expect(audit["all_pass"] and audit["tau"] == TAU, f"audit failed: {audit}")
        if known.get("gamma") == 0.0:
            _expect(bool(audit["degenerate"]), "zero growth not reported as degenerate")
        return Outcome(tuple(errors), _dir_bytes(out))

    return check


def _read_trajectory(out: Path) -> List[List[float]]:
    lines = [ln for ln in (out / "prox_trajectory.csv").read_text().splitlines()
             if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    header, body = rows[0], rows[1:]
    dim = sum(1 for h in header if h.startswith("x"))
    return [[float(v) for v in row[1:1 + dim]] for row in body]


def _check_maxsq_prox_step(anchor: List[float], step: List[float], eps: float) -> None:
    """``step`` must be one of the near-optimal points the solver may
    report for the p = 2 prox problem of max(x1,0)^2 + x2^2 at ``anchor``.

    The minimizer is known in closed form: both coordinates shrink by
    eps/(2+eps), except x1 <= 0, which stays.  The solver reports points
    within SolverConfig.minimizer_value_tolerance (1e-9, relative) of the
    minimum value, so deep iterates may snap to a grid point such as 0.
    """
    def value(y):
        return max(y[0], 0.0) ** 2 + y[1] ** 2 + 0.5 * eps * (
            (y[0] - anchor[0]) ** 2 + (y[1] - anchor[1]) ** 2)

    shrink = eps / (2.0 + eps)
    best = value((anchor[0] * shrink if anchor[0] > 0 else anchor[0], anchor[1] * shrink))
    _expect(value(step) <= best + 1e-9 * (1.0 + abs(best)) + 1e-12,
            f"prox step {anchor} -> {step}: value {value(step)!r}, minimum {best!r}")


def _run_prox(job: dict, out: Path) -> Callable[[], Outcome]:
    args = ["prox", "--fn", job["fn"], "--p", _num(job["p"]),
            "--epsilon", _num(job["epsilon"]),
            # one token, so argparse does not read a leading '-' as a flag
            "--x0=" + ",".join(_num(v) for v in job["x0"]),
            "--iterations", str(job["iterations"])]
    if "grid_points" in job:
        args += ["--grid-points", str(job["grid_points"])]
    rc, log = _cli(args, out)

    def check() -> Outcome:
        _expect(rc == 0, f"exit code {rc}: {log.strip()[-300:]}")
        points = _read_trajectory(out)
        _expect(len(points) == job["iterations"] + 1, "wrong trajectory length")
        manifest = json.loads((out / "manifest.json").read_text())
        if job["fn"] == "power":
            _expect(manifest["audit"] is not None and manifest["audit"]["passed"],
                    f"rate audit failed: {manifest['audit']}")
        else:
            for anchor, step in zip(points, points[1:]):
                _check_maxsq_prox_step(anchor, step, job["epsilon"])
        return Outcome((), _dir_bytes(out))

    return check


def _run_tracking(job: dict, out: Path) -> Callable[[], Outcome]:
    args = ["tracking", "--n", str(job["n"]), "--amplitude", _num(job["amplitude"]),
            "--eta-norms", "1e-3,1e-2", "--etas-per-norm", "1", "--ssc-samples", "4",
            "--seed", str(job["seed"])]
    rc, log = _cli(args, out)

    def check() -> Outcome:
        _expect(rc == 0, f"exit code {rc}: {log.strip()[-300:]}")
        manifest = json.loads((out / "manifest.json").read_text())
        solve = manifest["solve"]
        tol = manifest["config"]["tol"]
        _expect(solve["converged"], "control solve did not converge")
        _expect(solve["first_order_residual"] <= tol, "residual above tol")
        _expect(manifest["ssc_estimate"] > 0.0, "curvature estimate not positive")
        _expect(manifest["sweep"]["consistent"], "sweep consistency failed")
        return Outcome((), _dir_bytes(out))

    return check


def _run_graph(job: dict, out: Path) -> Callable[[], Outcome]:
    import numpy as np
    from growthlab import catalog, diagnostics
    from growthlab.core import BallRegion, ExponentPair
    from growthlab.minimize import SolverConfig

    b = job["bound"]
    f = catalog.boxquad_oracle(b)
    pq = ExponentPair.from_p(2.0)
    origin = np.zeros(1)
    region = BallRegion(origin, 1.5 * b)
    # Integer multiples of one step, so the middle tilt is exactly zero:
    # check_global_loja skips d = 0 but not the 2e-16 that np.linspace
    # can leave there, and then reports a rounding-level ratio.
    half = job["tilts"] // 2
    tilts = [np.array([2.0 * b * i / half]) for i in range(-half, half + 1)]
    cfg = SolverConfig(grid_points_per_axis=job["grid_points"])
    pairs = diagnostics.sample_subdifferential_graph(f, region, tilts, cfg)
    verdicts = (
        diagnostics.check_subregularity(pairs, origin, pq, kappa=0.5 * TAU).passed,
        diagnostics.check_subregularity(pairs, origin, pq, kappa=0.5 * TAU / 2).passed,
        diagnostics.check_global_loja(pairs, f, origin, pq, mu=0.25 * TAU).passed,
        diagnostics.check_global_loja(pairs, f, origin, pq, mu=0.25 * TAU / 2).passed,
    )

    def check() -> Outcome:
        _expect(verdicts == (True, False, True, False),
                f"graph checks (pass, fail-when-halved) x2 gave {verdicts}")
        return Outcome()

    return check


def _run_probes(job: dict, out: Path) -> Callable[[], Outcome]:
    import numpy as np
    from growthlab import catalog, diagnostics
    from growthlab.core import BallRegion, ExponentPair, FunctionOracle
    from growthlab.minimize import SolverConfig

    p = job["p"]
    pq = ExponentPair.from_p(p)
    lam = pq.q / pq.p
    kappa = 1.0 ** (-pq.q / pq.p) * TAU  # analytic gamma = 1
    origin = np.zeros(1)
    region = BallRegion(origin, 10.0)
    f = catalog.power_oracle(p)
    cfg = SolverConfig(grid_points_per_axis=2001)
    lip, kink, slope = job["lip"], job["kink"], job["slope"]
    zeta = FunctionOracle(lambda y: float(lip * abs(y[0] - kink)), "kink",
                          known_constants={"lip": lip})
    phi = FunctionOracle(lambda y: float(slope * y[0]), "linear")
    results = (
        diagnostics.lipschitz_probe(f, origin, region, zeta, lam, kappa, cfg),
        diagnostics.convex_probe(f, origin, region, phi, lam, kappa, cfg),
    )

    def check() -> Outcome:
        for r in results:
            _expect(r.passed, f"probe failed: distance {r.worst_distance!r} > {r.bound!r}")
        return Outcome()

    return check


RUNNERS = {
    "diagnose": _run_diagnose,
    "prox": _run_prox,
    "tracking": _run_tracking,
    "graph": _run_graph,
    "probes": _run_probes,
}


def start_job(job: dict, out: Path) -> Callable[[], Outcome]:
    """Run ``job`` with outputs under ``out``; return its output check.

    The caller times this call alone.  The check it returns reads the
    outputs back and raises ``JobFailed`` on a wrong result.
    """
    return RUNNERS[job["kind"]](job, out)


def finish_job(check: Callable[[], Outcome], out: Path) -> Outcome:
    try:
        return check()
    finally:
        shutil.rmtree(out, ignore_errors=True)


def job_label(job: dict) -> str:
    keys = [k for k in job if k != "kind"]
    return job["kind"] + "(" + ", ".join(f"{k}={job[k]}" for k in keys) + ")"


def tiny_jobs() -> List[dict]:
    """One small job per kind, for warm-up and the self-check."""
    return [
        {"kind": "diagnose", "fn": "power", "p": 2.0, "grid_points": 201},
        {"kind": "prox", "fn": "power", "p": 2.0, "epsilon": 0.5, "x0": [1.0],
         "iterations": 3, "grid_points": 201},
        {"kind": "graph", "bound": 1.0, "tilts": 9, "grid_points": 101},
        {"kind": "probes", "p": 2.0, "lip": 0.2, "kink": 1.0, "slope": 0.3},
        {"kind": "tracking", "n": 8, "amplitude": 0.6, "seed": 0},
    ]
