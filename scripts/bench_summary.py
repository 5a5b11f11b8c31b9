"""Summarize benchmark records into one ``BENCH_<label>.json`` file.

    python3 scripts/bench_summary.py pr16
    python3 scripts/bench_summary.py pr16 --records bench/out --out BENCH_pr16.json

Reads the untraced (``--trace 0``) records that ``bench/run.py`` writes to
``bench/out/<workload>-seed<seed>-trace0.json`` and writes, per workload,
the seeds run, each end-to-end metric's value per seed (in seed order),
and its median, quartiles and interquartile range, together with the
environment the records were measured in.  Records from more than one
environment are refused: their figures do not compare.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("setup_s", "jobs_per_ref", "job_ref_p50")


def _spread(values: List[float]) -> Dict[str, float]:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(records: List[dict]) -> dict:
    """The summary of untraced benchmark records, grouped by workload."""
    runs = sorted((r for r in records if r["trace"] == 0),
                  key=lambda r: (r["workload"], r["seed"]))
    if not runs:
        raise ValueError("no untraced benchmark records")
    environments = {json.dumps(r["environment"], sort_keys=True) for r in runs}
    if len(environments) != 1:
        raise ValueError(f"records come from {len(environments)} different environments")
    workloads: Dict[str, dict] = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        summary = {"seeds": [r["seed"] for r in mine]}
        for name in METRICS:
            values = [r["metrics"][name] for r in mine]
            summary[name] = {"values": values, **_spread(values)}
        workloads[workload] = summary
    return {"environment": runs[0]["environment"], "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="names the output file BENCH_<label>.json")
    parser.add_argument("--records", type=Path, default=ROOT / "bench" / "out",
                        help="directory of benchmark records (default: bench/out)")
    parser.add_argument("--out", type=Path,
                        help="output path (default: BENCH_<label>.json at the repo root)")
    args = parser.parse_args(argv)
    paths = sorted(args.records.glob("*.json"))
    try:
        summary = summarize([json.loads(p.read_text()) for p in paths])
    except ValueError as exc:
        print(f"error: {exc} in {args.records}", file=sys.stderr)
        return 1
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({"label": args.label, **summary}, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
