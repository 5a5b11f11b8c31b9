"""Check that two checkouts of growthlab give the same CLI runs, byte for byte.

    python3 scripts/same_bytes.py OLD NEW

Runs every command line of ``RUNS`` as ``python -m growthlab.cli`` with
``OLD/src``, then ``NEW/src``, as the only entry of ``PYTHONPATH``.  Each run
starts in a fresh working directory and writes to the same relative
``--out``, so recorded paths agree.  The script compares the exit codes,
stdout, stderr and every output file.  It prints each run that differs,
with each differing line, and exits 1 if any run differs, 0 if none does.

``RUNS`` is one fixed list: ``README_RUNS``, five ``diagnose`` and three
``prox`` runs at the README's sizes; ``LIMIT_RUNS``, two ``diagnose`` runs at
tilt norm 1e150, just inside the largest norm whose square is finite, one
of them on a ball of radius 1e150; ``BENCH_RUNS`` of the ``catalog-1d`` and
``maxsq-2d`` benchmark workloads (``bench/jobs.py``), every ``diagnose`` and
``prox`` job of block 0 of seeds 0-2; ``TRACKING_RUNS``, ``tracking`` at
n = 16 and 32, one bang-bang run, which exits 2, one at a tolerance other
than the default, two at odd n, n = 25 with the benchmark's sweep arguments
and n = 5, and two refused runs, one too coarse and one with a zero
tolerance, which exit 1; and ``BENCH_RUNS`` of the ``pde-tracking``
workload, every ``tracking`` job of block 0 of seeds 0-2.  Each benchmark
run holds the arguments the benchmark's own job runner passes to the CLI.
At odd n an (n, n) field's byte size is not a multiple of 64, so the BLAS
kernels meet its flat views at another alignment than at the benchmark's
even n.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
OUT = "out"

sys.path.insert(0, str(ROOT / "bench"))
import jobs  # noqa: E402  (bench/jobs.py, found through the path above)


def _bench_runs(workload: str) -> List[List[str]]:
    """The arguments ``bench/jobs.py``'s runners pass to the CLI for the
    CLI jobs of block 0 of seeds 0-2 of ``workload``, recorded by running
    each job with ``jobs._cli`` replaced by a recorder."""
    runs: List[List[str]] = []
    cli = jobs._cli
    jobs._cli = lambda args, out: (runs.append(args), (0, ""))[1]
    try:
        for seed in range(3):
            for job in jobs.make_block(workload, seed, 0):
                if job["kind"] in ("diagnose", "prox", "tracking"):
                    jobs.start_job(job, Path(OUT))
    finally:
        jobs._cli = cli
    return runs


# The runs the benchmark's job runners make, by workload.
BENCH_RUNS: Dict[str, List[List[str]]] = {
    workload: _bench_runs(workload) for workload in ("catalog-1d", "maxsq-2d", "pde-tracking")
}
README_RUNS: List[List[str]] = [
    ["diagnose", "--fn", "maxsq2d"],
    ["diagnose", "--fn", "maxsq2d", "--delta", "1"],
    ["diagnose", "--fn", "power", "--delta", "1"],
    ["diagnose", "--fn", "halfpower", "--p", "3"],
    ["diagnose", "--fn", "boxquad"],
    ["prox", "--fn", "power", "--iterations", "10"],
    ["prox", "--fn", "maxsq2d", "--x0=1.5,0.7"],
    ["prox", "--fn", "boxquad"],
]
LIMIT_RUNS: List[List[str]] = [
    ["diagnose", "--fn", "power", "--delta", "1e150", "--tilt-norms", "1e150"],
    ["diagnose", "--fn", "maxsq2d", "--tilt-norms", "1e150", "--grid-points", "41"],
]
TRACKING_RUNS: List[List[str]] = [
    ["tracking", "--n", "16"],
    ["tracking", "--n", "32"],
    ["tracking", "--n", "32", "--amplitude", "0.8"],
    ["tracking", "--n", "8", "--tol", "1e-11"],
    ["tracking", "--n", "25", "--amplitude", "0.64", "--eta-norms", "1e-3,1e-2",
     "--etas-per-norm", "1", "--ssc-samples", "4", "--seed", "0"],
    ["tracking", "--n", "5"],
    ["tracking", "--n", "3"],
    ["tracking", "--n", "8", "--tol", "0"],
]
RUNS: List[List[str]] = [
    *README_RUNS,
    *LIMIT_RUNS,
    *BENCH_RUNS["catalog-1d"],
    *BENCH_RUNS["maxsq-2d"],
    *TRACKING_RUNS,
    *BENCH_RUNS["pde-tracking"],
]


class Outcome(NamedTuple):
    code: int
    stdout: bytes
    stderr: bytes
    files: Dict[str, bytes]


def run(checkout: Path, argv: List[str], cwd: Path) -> Outcome:
    """One CLI run of ``checkout`` in the new directory ``cwd``."""
    cwd.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "growthlab.cli", *argv, "--out", OUT],
        cwd=cwd, env=env, capture_output=True, timeout=600,
    )
    out = cwd / OUT
    files = {
        path.relative_to(out).as_posix(): path.read_bytes()
        for path in sorted(out.rglob("*")) if path.is_file()
    }
    return Outcome(proc.returncode, proc.stdout, proc.stderr, files)


def _line_diff(old: bytes, new: bytes) -> List[str]:
    """The differing lines of two texts, as ``-old`` and ``+new`` lines
    under ``@@`` line-number headers."""
    try:
        a, b = old.decode().splitlines(), new.decode().splitlines()
    except UnicodeDecodeError:
        return ["(binary contents differ)"]
    diff = difflib.unified_diff(a, b, lineterm="", n=0)
    return [line for line in diff if not line.startswith(("---", "+++"))]


def differences(old: Outcome, new: Outcome) -> List[str]:
    """What differs between two outcomes of one run, one line per item."""
    lines = []
    if old.code != new.code:
        lines.append(f"exit code: {old.code} -> {new.code}")
    streams = [("stdout", old.stdout, new.stdout), ("stderr", old.stderr, new.stderr)]
    for name in sorted(set(old.files) | set(new.files)):
        if name not in new.files:
            lines.append(f"{name}: only in OLD")
        elif name not in old.files:
            lines.append(f"{name}: only in NEW")
        else:
            streams.append((name, old.files[name], new.files[name]))
    for name, a, b in streams:
        if a != b:
            lines.append(f"{name}:")
            lines.extend(f"  {line}" for line in _line_diff(a, b))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="checkout to compare against")
    parser.add_argument("new", type=Path, help="checkout under test")
    args = parser.parse_args(argv)
    differ = 0
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        for i, run_argv in enumerate(RUNS):
            old = run(args.old, run_argv, Path(tmp) / "old" / str(i))
            new = run(args.new, run_argv, Path(tmp) / "new" / str(i))
            found = differences(old, new)
            print(f"[{'DIFF' if found else 'same'}] exit {old.code}: {' '.join(run_argv)}")
            for line in found:
                print(f"    {line}")
            differ += bool(found)
    print(f"{len(RUNS)} runs: {len(RUNS) - differ} identical, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
