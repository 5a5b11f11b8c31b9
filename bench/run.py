"""Closed-loop benchmark of growthlab: one client, one job at a time.

    python3 bench/run.py --workload catalog-1d --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --self-check

Run from the repository root.  Each job starts only after the previous
one has returned and been checked, which is how a researcher's script
drives the library.  The job list comes from ``jobs.py``; the seed is
the benchmark's argument and the library sees only the generated inputs.
``GROWTHLAB_THREADS`` is removed from the environment, so every run is
the serial default.

``--trace 0`` runs whole blocks of the job list until ``--seconds`` have
passed and reports the end-to-end metrics:

``setup_s``      time for a fresh interpreter to import ``growthlab.cli``
                 and the modules the workload uses and to build the first
                 block of the job list: the median over several samples
                 of its ratio to a bare interpreter that imports numpy,
                 started right after it, times 0.2 s;
``jobs_per_ref`` jobs that passed their output check per reference unit
                 spent inside jobs;
``job_ref_p50``  median time of one job in reference units.

A reference unit is the wall time of ``reference_kernel``, fixed work of
the kinds growthlab's jobs do, which is part of the benchmark and calls
no growthlab code.  The kernel runs before the first job and after every
job, and each job's wall time is divided by the mean of the two kernel
times around it.  On a shared 2-core virtual machine the same 1-D
diagnose job took anywhere between 0.46 and 0.96 s within minutes, with
no steal time and CPU time equal to wall time.  The kernel slows with
the jobs: over sets of ten seeds per workload there, the interquartile
spread of the ratios was 0.03 to 0.11 of their median, against 0.10 to
0.35 for the raw times.  A change to growthlab moves the ratio as it
moves the wall time.  The set-up is scaled the same way, by a reference
of its own kind.  The raw wall times are in the summary line and the
record.

``--trace 1`` runs the first block three times: once untraced and twice
under the tracer (``tracer.py``).  It reports the per-layer metrics of
the traced passes and the tracing overhead, and fails unless both traced
passes counted exactly the same work.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it, and ``bench/out/<workload>-seed<seed>-trace<t>.json``, record the
environment, the digest of the jobs run, every job's time and outcome,
and in a traced run the spans of the first traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np

import jobs
import tracer as tr

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 7
THREAD_VARS = (
    "GROWTHLAB_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Fresh-interpreter set-up.  The package is found through an absolute
# path, so the result does not depend on the working directory.
SETUP_CODE = """\
import importlib, sys
sys.path[:0] = [{src!r}, {bench!r}]
import growthlab.cli
for name in {modules!r}:
    importlib.import_module(name)
import jobs
jobs.make_block({workload!r}, {seed!r}, 0)
"""

Metrics = Dict[str, Tuple[float, str]]

# The set-up's reference: a bare interpreter that imports numpy, started
# right after each set-up sample.  setup_s is given in seconds of a
# machine on which the bare interpreter takes BARE_NOMINAL_S.
BARE_CODE = "import numpy"
BARE_NOMINAL_S = 0.2

# Inputs of the reference kernel; it takes 25-40 ms on a shared 2-core
# x86 virtual machine.
_GRID = np.meshgrid(np.linspace(-2.0, 2.0, 101), np.linspace(-2.0, 2.0, 101))
_POINT = np.array([0.3, 0.7])


def reference_kernel() -> float:
    """Wall time of fixed work of the three kinds growthlab's jobs mix:
    an interpreter loop, numpy arithmetic over a whole 101 x 101 grid, and
    numpy calls on a 2-element point in a Python loop.  One reference
    unit; it tracks how fast the shared machine runs such work right now."""
    start = perf_counter()
    acc, table = 0.0, {}
    for i in range(50_000):
        acc += (i * 0.5) % 7.0
        table[i & 255] = acc
    x, y = _GRID
    for i in range(130):
        v = np.maximum(x, 0.0) ** 2 + y ** 2 + 0.1 * i * x
        acc += int(np.argmin(v))
        v.sort()
    for i in range(2500):
        p = np.asarray(_POINT * i, dtype=float)
        if p.ndim != 1 or not np.isfinite(p).all():
            raise AssertionError("unreachable: the point is finite")
        acc += float(max(p[0], 0.0) ** 2 + p[1] ** 2)
    return perf_counter() - start


class BenchmarkError(Exception):
    """The benchmark cannot run in this directory."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.pop("GROWTHLAB_THREADS", None)
    return env


def _interpreter(code: str) -> float:
    """Wall time of a fresh interpreter that runs ``code``."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up interpreter failed:\n{proc.stderr}")
    return elapsed


def measure_setup(workload: str, seed: int, samples: int) -> List[Tuple[float, float]]:
    """Pairs of (set-up, bare interpreter) wall times, taken back to back."""
    code = SETUP_CODE.format(src=str(SRC), bench=str(BENCH),
                             modules=jobs.WORKLOAD_MODULES[workload],
                             workload=workload, seed=seed)
    return [(_interpreter(code), _interpreter(BARE_CODE)) for _ in range(samples)]


def import_package() -> None:
    if not (SRC / "growthlab" / "__init__.py").is_file():
        raise BenchmarkError(f"no growthlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import growthlab

    where = Path(growthlab.__file__).resolve()
    if SRC not in where.parents:
        raise BenchmarkError(f"imported growthlab from {where}, not from {SRC}")


def environment(thread_env: Dict[str, object]) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": thread_env,
    }


def run_job(job: dict, index: int, work: Path, tracer=None) -> dict:
    """Run and check one job; time the run alone, not the check."""
    out = work / f"job-{index}"
    if tracer is not None:
        tracer.job, tracer.job_kind = index, job["kind"]
    record = {"index": index, "job": jobs.job_label(job), "kind": job["kind"]}
    start = perf_counter()
    try:
        check = jobs.start_job(job, out)
        record["s"] = perf_counter() - start
        outcome = jobs.finish_job(check, out)
        record.update(ok=True, const_errors=list(outcome.const_errors),
                      output_bytes=outcome.output_bytes)
    except Exception as exc:  # a failed job is counted, and the loop goes on
        record.setdefault("s", perf_counter() - start)
        record.update(ok=False, error=f"{type(exc).__name__}: {exc}")
        print(f"job {index} failed: {record['job']}\n{traceback.format_exc()}",
              file=sys.stderr)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return record


def run_calibrated(block: List[dict], records: List[dict], work: Path, before: float) -> float:
    """Run ``block`` and append its records, each with the job's time in
    reference units.  ``before`` is the kernel time measured just before
    the first job; the kernel runs after every job, and the last of
    these times is returned for the next block."""
    for job in block:
        record = run_job(job, len(records), work)
        after = reference_kernel()
        record["ref_s"] = (before + after) / 2
        record["ref"] = record["s"] / record["ref_s"]
        records.append(record)
        before = after
    return before


def end_to_end(records: List[dict], setup: List[Tuple[float, float]]
               ) -> Tuple[Metrics, Dict[str, float]]:
    """The end-to-end metrics, and the same figures in raw wall time."""
    passed = sum(r["ok"] for r in records)
    raw = {
        "setup_s": statistics.median(full for full, _ in setup),
        "bare_s": statistics.median(bare for _, bare in setup),
        "jobs_per_s": passed / sum(r["s"] for r in records),
        "job_s_p50": statistics.median(r["s"] for r in records),
        "ref_s_p50": statistics.median(r["ref_s"] for r in records),
    }
    metrics = {
        "setup_s": (statistics.median(full / bare for full, bare in setup) * BARE_NOMINAL_S,
                    "s"),
        "jobs_per_ref": (passed / sum(r["ref"] for r in records), "1/ref"),
        "job_ref_p50": (statistics.median(r["ref"] for r in records), "ref"),
    }
    return metrics, raw


def timed_run(workload: str, seed: int, seconds: float, work: Path) -> Tuple[List[dict], List[dict]]:
    """Whole blocks, one job at a time, until ``seconds`` have passed."""
    records: List[dict] = []
    ran: List[dict] = []
    start = perf_counter()
    ref = reference_kernel()
    for block in jobs.blocks(workload, seed):
        ref = run_calibrated(block, records, work, ref)
        ran.extend(block)
        if perf_counter() - start >= seconds:
            return records, ran
    raise AssertionError("unreachable: the job list is endless")


def traced_run(block: List[dict], work: Path) -> Tuple[List[dict], Metrics, dict]:
    """One untraced and two traced passes over ``block``."""

    def one_pass(t=None) -> Tuple[List[dict], float]:
        start = perf_counter()
        recs = [run_job(job, i, work, t) for i, job in enumerate(block)]
        return recs, perf_counter() - start

    records, untraced_s = one_pass()
    tracers, traced_s = [], []
    for _ in range(2):
        t = tr.Tracer()
        with t.installed():
            recs, elapsed = one_pass(t)
        records += recs
        tracers.append(t)
        traced_s.append(elapsed)

    first = tracers[0].deterministic_counts()
    repeat = first == tracers[1].deterministic_counts()
    traced_recs = records[len(block):2 * len(block)]
    errors = [e for r in traced_recs if r["ok"] for e in r["const_errors"]]
    cli_bytes = [r["output_bytes"] for r in traced_recs if r["ok"] and r["output_bytes"]]
    metrics = tr.layer_metrics(
        tracers,
        max(errors, default=0.0),
        statistics.fmean(cli_bytes) if cli_bytes else 0.0,
    )
    traced = statistics.fmean(traced_s)
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced, "s")
    metrics["trace.overhead_ratio"] = ((traced - untraced_s) / untraced_s, "ratio")
    extra = {"counts": first, "counts_repeat": repeat, "spans": tracers[0].spans}
    return records, metrics, extra


def declared(kind: str) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def check_declared(metrics: Metrics, kind: str) -> None:
    want = declared(kind)
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise BenchmarkError(
            f"{kind} metrics differ from BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}, wrong unit {wrong}"
        )


def result_line(correct: bool, records: List[dict], metrics: Metrics) -> str:
    failed = sum(not r["ok"] for r in records)
    return json.dumps({
        "correct": bool(correct and failed == 0),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def self_check(work: Path) -> int:
    """Run each job kind once, traced and untraced, and check that every
    declared metric comes out with its unit."""
    tiny = jobs.tiny_jobs()
    records: List[dict] = []
    run_calibrated(tiny, records, work, reference_kernel())
    setup = measure_setup("catalog-1d", 0, 1)
    check_declared(end_to_end(records, setup)[0], "end_to_end")
    traced_records, metrics, extra = traced_run(tiny, work)
    check_declared(metrics, "per_layer")
    problems = [f"{r['job']}: {r['error']}" for r in records + traced_records if not r["ok"]]
    if not extra["counts_repeat"]:
        problems.append("traced passes counted different work")
    for name in ("tracking.solve_state.calls", "minimize.argmin_ball.calls",
                 "core.pairing.calls", "prox.prox_step.calls"):
        if not metrics[name][0] > 0:
            problems.append(f"{name} is zero on a job list that exercises it")
    if metrics["minimize.distinct_tilt_ratio_diagnose"][0] <= 0:
        problems.append("no tilted solves traced on the diagnose job")
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print(f"self-check: {'FAILED' if problems else 'ok'} "
          f"({len(records)} job kinds, {len(metrics)} per-layer metrics)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)

    if not args.self_check and args.workload not in jobs.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(jobs.WORKLOADS)}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": None}
    thread_env = {name: os.environ.get(name) for name in THREAD_VARS}
    os.environ.pop("GROWTHLAB_THREADS", None)
    work = OUT / f"work-{os.getpid()}"
    try:
        import_package()
        record["environment"] = environment(thread_env)
        if args.self_check:
            return self_check(work)

        # warm caches and lazy imports before timing
        for i, job in enumerate(jobs.tiny_jobs()):
            run_job(job, i, work)
        if args.trace:
            ran = jobs.make_block(args.workload, args.seed, 0)
            records, metrics, extra = traced_run(ran, work)
            correct = extra["counts_repeat"]
            check_declared(metrics, "per_layer")
        else:
            setup = measure_setup(args.workload, args.seed, SETUP_SAMPLES)
            records, ran = timed_run(args.workload, args.seed, args.seconds, work)
            metrics, raw = end_to_end(records, setup)
            correct = True
            extra = {"setup_samples_s": setup, "raw": raw}
            check_declared(metrics, "end_to_end")
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = [e for r in records if r["ok"] for e in r["const_errors"]]
    record.update(
        jobs_digest=jobs.digest(ran),
        jobs_run=len(ran),
        const_rel_err_max=max(errors, default=None),
        metrics={k: v for k, (v, _) in metrics.items()},
        records=records,
        **extra,
    )
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    summary = {k: record.get(k) for k in ("workload", "seed", "trace", "jobs_digest",
                                          "jobs_run", "const_rel_err_max", "raw",
                                          "environment")}
    print(json.dumps(summary))
    print(result_line(correct, records, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
