"""``scripts/same_bytes.py`` compares the CLI runs of two checkouts byte
for byte and names every differing line."""

import importlib.util
from pathlib import Path

from growthlab import cli

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "same_bytes.py"
SPEC = importlib.util.spec_from_file_location("same_bytes", SCRIPT)
same_bytes = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(same_bytes)

# A stand-in for growthlab.cli: writes one report under --out and exits.
FAKE_CLI = """\
import sys
from pathlib import Path
argv = sys.argv[1:]
out = Path(argv[argv.index("--out") + 1])
out.mkdir()
(out / "report.txt").write_text("# fn=" + argv[0] + "\\nvalue={value}\\nend\\n")
{extra}
print("{greeting}", argv[0])
sys.exit({code})
"""
RUNS = [["diagnose", "--fn", "power"], ["tracking", "--n", "8"]]


def checkout(root, value=1, code=0, greeting="ran", extra=""):
    package = root / "src" / "growthlab"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        FAKE_CLI.format(value=value, code=code, greeting=greeting, extra=extra)
    )
    return root


def compare(monkeypatch, capsys, old, new):
    monkeypatch.setattr(same_bytes, "RUNS", RUNS)
    code = same_bytes.main([str(old), str(new)])
    return code, capsys.readouterr().out


def test_identical_checkouts_pass(tmp_path, monkeypatch, capsys):
    code, out = compare(monkeypatch, capsys, checkout(tmp_path / "a"), checkout(tmp_path / "b"))
    assert code == 0
    assert out.splitlines() == [
        "[same] exit 0: diagnose --fn power",
        "[same] exit 0: tracking --n 8",
        "2 runs: 2 identical, 0 differ",
    ]


def test_every_difference_is_named_with_its_lines(tmp_path, monkeypatch, capsys):
    old = checkout(tmp_path / "a")
    new = checkout(
        tmp_path / "b", value=2, code=2, greeting="done",
        extra='(out / "extra.txt").write_text("x")',
    )
    code, out = compare(monkeypatch, capsys, old, new)
    assert code == 1
    assert out.splitlines()[:11] == [
        "[DIFF] exit 0: diagnose --fn power",
        "    exit code: 0 -> 2",
        "    extra.txt: only in NEW",
        "    stdout:",
        "      @@ -1 +1 @@",
        "      -ran diagnose",
        "      +done diagnose",
        "    report.txt:",
        "      @@ -2 +2 @@",
        "      -value=1",
        "      +value=2",
    ]
    assert out.splitlines()[-1] == "2 runs: 0 identical, 2 differ"


def test_run_list_holds_the_fixed_runs_and_each_parses(tmp_path, monkeypatch):
    runs = same_bytes.RUNS
    # README runs, catalog-1d and maxsq-2d jobs, three tracking runs, and
    # the 8 tracking jobs of a pde-tracking block for each of 3 seeds
    assert len(runs) == 8 + 3 * 7 + 3 * 4 + 3 + 3 * 8
    assert [run[0] for run in runs].count("tracking") == 3 + 3 * 8
    assert runs[-25] == ["tracking", "--n", "32", "--amplitude", "0.8"]
    # the recorder is gone once the list is built
    jobs = same_bytes.jobs
    assert jobs._cli.__module__ == "jobs"
    # the arguments the benchmark's runners pass to the CLI
    passed = []
    monkeypatch.setattr(jobs, "_cli", lambda args, out: (passed.append(args), (0, ""))[1])
    for workload in ("catalog-1d", "maxsq-2d", "pde-tracking"):
        for seed in range(3):
            for job in jobs.make_block(workload, seed, 0):
                if job["kind"] in ("diagnose", "prox", "tracking"):
                    jobs.start_job(job, tmp_path)
    assert runs[8:-27] + runs[-24:] == passed
    parser = cli.build_parser()
    for run in runs:
        config = cli.resolve_config(run[0], parser.parse_args(run))
        assert config.subcommand == run[0]
