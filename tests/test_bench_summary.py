"""``scripts/bench_summary.py`` turns benchmark records into one
``BENCH_<label>.json`` summary per build."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_summary.py"
ENVIRONMENT = {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2}


def record(workload, seed, trace, metrics, environment=ENVIRONMENT):
    return {"workload": workload, "seed": seed, "trace": trace,
            "environment": environment, "metrics": metrics, "records": []}


def run(tmp_path, *records):
    records_dir = tmp_path / "out"
    records_dir.mkdir()
    for i, rec in enumerate(records):
        (records_dir / f"r{i}.json").write_text(json.dumps(rec))
    out = tmp_path / "BENCH_test.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "test", "--records", str(records_dir), "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    return proc, out


def test_two_records_give_median_and_iqr(tmp_path):
    proc, out = run(
        tmp_path,
        record("pde-tracking", 7, 0, {"setup_s": 0.3, "jobs_per_ref": 0.4, "job_ref_p50": 2.0}),
        record("pde-tracking", 3, 0, {"setup_s": 0.2, "jobs_per_ref": 0.5, "job_ref_p50": 3.0}),
        # a traced record carries per-layer metrics only and is left out
        record("pde-tracking", 0, 1, {"trace.spans": 10.0}),
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(out.read_text())
    assert summary["label"] == "test"
    assert summary["environment"] == ENVIRONMENT
    tracking = summary["workloads"]["pde-tracking"]
    assert tracking["seeds"] == [3, 7]
    assert tracking["job_ref_p50"] == {
        "values": [3.0, 2.0], "median": 2.5, "q1": 2.25, "q3": 2.75, "iqr": 0.5,
    }
    assert tracking["jobs_per_ref"]["values"] == [0.5, 0.4]
    assert tracking["setup_s"]["median"] == 0.25


def test_records_from_two_environments_are_refused(tmp_path):
    metrics = {"setup_s": 0.3, "jobs_per_ref": 0.4, "job_ref_p50": 2.0}
    proc, out = run(
        tmp_path,
        record("catalog-1d", 1, 0, metrics),
        record("catalog-1d", 2, 0, metrics, {**ENVIRONMENT, "nproc": 4}),
    )
    assert proc.returncode == 1
    assert "2 different environments" in proc.stderr
    assert not out.exists()
