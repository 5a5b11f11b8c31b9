"""Tests for the command-line driver: exit codes, file contract,
configuration precedence, and reproducibility."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import growthlab
from growthlab import cli, diagnostics
from growthlab import tracking as trk
from growthlab.cli import main

FAST_DIAGNOSE = ["--grid-points", "301"]
# The subprocess runs in a temporary directory, where a relative PYTHONPATH
# no longer points at the package under test.
PACKAGE_ROOT = str(Path(growthlab.__file__).resolve().parents[1])
MINI_TRACKING = [
    "--n", "8", "--eta-norms", "1e-2,1e-1", "--etas-per-norm", "1",
    "--ssc-samples", "4",
]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _subprocess_outputs(cwd, argv, **env_vars):
    """(stdout, {file name: bytes}) of ``growthlab.cli argv`` run in a fresh
    interpreter in ``cwd`` with ``env_vars`` set and no other BLAS setting."""
    cwd.mkdir()
    env = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
    env.update(env_vars)
    env["PYTHONPATH"] = PACKAGE_ROOT + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "growthlab.cli", *argv, "--out", "out"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, {f.name: f.read_bytes() for f in sorted((cwd / "out").iterdir())}


class TestImport:
    def test_cold_import_loads_no_scipy(self):
        # -I ignores PYTHONPATH and the user site; the package is found
        # through its absolute root only.  -I also ignores
        # PYTHONDONTWRITEBYTECODE, so -B keeps the import from writing
        # bytecode into the source tree
        code = (
            "import json, sys\n"
            f"sys.path.insert(0, {PACKAGE_ROOT!r})\n"
            "import growthlab, growthlab.cli\n"
            "print(json.dumps([growthlab.__file__, sorted(m for m in sys.modules\n"
            "    if m == 'scipy' or m.startswith('scipy.'))]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        where, scipy_modules = json.loads(proc.stdout)
        assert Path(where).resolve().parents[1] == Path(PACKAGE_ROOT)
        assert scipy_modules == []


class TestCatalog:
    def test_lists_known_functions(self, capsys):
        code, out, _ = run(["catalog"], capsys)
        assert code == 0
        for name in ("power", "halfpower", "maxsq2d"):
            assert name in out


class TestDiagnose:
    def test_quadratic_constants_and_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "d"
        code, stdout, _ = run(
            ["diagnose", "--fn", "power", "--p", "2", "--delta", "1", "--out", str(out)]
            + FAST_DIAGNOSE,
            capsys,
        )
        assert code == 0
        report = json.loads((out / "diagnose_report.json").read_text())
        assert report["growth"]["gamma_hat"] == pytest.approx(1.0, rel=0.05)
        assert report["tilt"]["kappa_hat"] == pytest.approx(0.5, rel=0.05)
        assert report["loja"]["mu_hat"] == pytest.approx(0.25, rel=0.05)
        assert report["audit"]["all_pass"] is True
        assert (out / "diagnose_report.csv").exists()
        assert (out / "manifest.json").exists()

    def test_degenerate_warns_but_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "d"
        code, stdout, _ = run(
            ["diagnose", "--fn", "halfpower", "--p", "3", "--out", str(out)]
            + FAST_DIAGNOSE,
            capsys,
        )
        assert code == 0
        assert "degenerate" in stdout
        report = json.loads((out / "diagnose_report.json").read_text())
        assert report["growth"]["gamma_hat"] == 0.0

    def test_unknown_function_exits_one_without_files(self, tmp_path, capsys):
        out = tmp_path / "d"
        code, _, err = run(["diagnose", "--fn", "nosuch", "--out", str(out)], capsys)
        assert code == 1
        assert "unknown function" in err
        assert not out.exists()


class TestProx:
    def test_rate_audit_pass(self, tmp_path, capsys):
        out = tmp_path / "p"
        code, stdout, _ = run(
            ["prox", "--fn", "power", "--p", "2", "--epsilon", "0.5",
             "--x0", "1.0", "--iterations", "6", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "pass" in stdout
        lines = (out / "prox_trajectory.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0].startswith("k,x0,f_value")
        assert len(data) == 1 + 7  # header plus K+1 iterates

    def test_epsilon_at_or_above_gamma_exits_one(self, tmp_path, capsys):
        out = tmp_path / "p"
        code, _, err = run(
            ["prox", "--fn", "power", "--epsilon", "1.5", "--out", str(out)], capsys
        )
        assert code == 1
        assert "epsilon" in err
        assert not out.exists()

    def test_zero_iterations_exits_one(self, tmp_path, capsys):
        out = tmp_path / "p"
        code, _, _ = run(
            ["prox", "--fn", "power", "--iterations", "0", "--out", str(out)], capsys
        )
        assert code == 1
        assert not out.exists()


class TestTracking:
    def test_mini_instance_writes_fields_and_sweep(self, tmp_path, capsys):
        out = tmp_path / "t"
        code, stdout, _ = run(
            ["tracking", "--out", str(out)] + MINI_TRACKING, capsys
        )
        assert code == 0
        for name in ("control.txt", "state.txt", "adjoint.txt", "target.txt",
                     "sweep.csv", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["solve"]["converged"] is True
        assert manifest["ssc_estimate"] > 0.0
        assert manifest["sweep"]["consistent"] is True

    @pytest.mark.parametrize("factor, code", ((trk.CONSISTENCY_FACTOR, 0), (1.0, 2)))
    def test_verdict_is_the_library_rule(self, factor, code, tmp_path, capsys, monkeypatch):
        # a factor of 1 asks every ratio to equal the median, which the two
        # distinct ratios of the mini sweep cannot
        monkeypatch.setattr(trk, "CONSISTENCY_FACTOR", factor)
        out = tmp_path / "t"
        assert run(["tracking", "--out", str(out)] + MINI_TRACKING, capsys)[0] == code
        grid = trk.Grid2D(8)
        result = trk.solve_tracking(
            0.6 * trk.default_target(grid), grid, 0.0, 8.0, trk.DescentConfig(1e-8, 5000)
        )
        ssc = trk.ssc_estimate(result, 0.1, 4, seed=0)
        sweep = trk.perturbation_sweep(result, (1e-2, 1e-1), 1, seed=0)
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["ssc_estimate"], manifest["sweep"]["kappa_hat"]) == (ssc, sweep.kappa_hat)
        assert manifest["sweep"]["consistent"] is sweep.consistent(ssc) is (code == 0)

    def test_ssc_is_computed_at_the_written_fields(self, tmp_path, capsys):
        # the control solve and ssc do not depend on the sweep settings, so
        # a one-sample sweep keeps the run short
        out = tmp_path / "t"
        code, _, err = run(
            ["tracking", "--n", "16", "--eta-norms", "1e-2", "--etas-per-norm", "1",
             "--out", str(out)],
            capsys,
        )
        assert code == 0, err

        def field(name):
            # repr floats round-trip exactly through float()
            lines = (out / name).read_text().splitlines()
            return np.array(
                [[float(v) for v in line.split()] for line in lines if not line.startswith("#")]
            )

        manifest = json.loads((out / "manifest.json").read_text())
        config, solve = manifest["config"], manifest["solve"]
        result = trk.TrackingResult(
            field("control.txt"), field("state.txt"), field("adjoint.txt"),
            solve["objective"], solve["first_order_residual"], solve["iterations"],
            solve["converged"], (), field("target.txt"), trk.Grid2D(config["n"]),
            config["alpha"], config["beta"],
            trk.DescentConfig(config["tol"]),
        )
        ssc = trk.ssc_estimate(result, cli._SSC_DELTA, config["ssc_samples"], seed=config["seed"])
        assert np.float64(ssc).tobytes() == np.float64(manifest["ssc_estimate"]).tobytes()

    def test_capped_linear_solve_exits_one_without_files(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(trk, "_cg_iteration_cap", lambda d: 1)
        out = tmp_path / "t"
        code, _, err = run(["tracking", "--out", str(out)] + MINI_TRACKING, capsys)
        assert code == 1
        assert "conjugate gradients" in err
        assert not out.exists()

    def test_newton_stall_exits_one_without_files(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(trk, "NEWTON_MAX_HALVINGS", 0)
        out = tmp_path / "t"
        code, _, err = run(["tracking", "--out", str(out)] + MINI_TRACKING, capsys)
        assert code == 1
        assert "stalled" in err
        assert not out.exists()

    def test_no_samples_in_shell_exits_one_without_files(self, tmp_path, capsys):
        # valid settings: the run reaches the solve, and ssc finds no sample
        out = tmp_path / "t"
        code, _, err = run(
            ["tracking", "--n", "8", "--alpha", "0", "--beta", "1e-20", "--out", str(out)], capsys
        )
        assert code == 1
        assert err == "error: no feasible direction produced a nonzero state move\n"
        assert not out.exists()

    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        # the preconditioner runs dense matrix products through BLAS
        argv = ["tracking", "--n", "32", "--eta-norms", "1e-2", "--etas-per-norm", "1",
                "--ssc-samples", "2"]
        outputs = [
            _subprocess_outputs(tmp_path / threads, argv, OPENBLAS_NUM_THREADS=threads)
            for threads in ("1", "2")
        ]
        assert outputs[0] == outputs[1]


class TestBlasKernel:
    def test_diagnose_outputs_do_not_depend_on_blas_kernel(self, tmp_path):
        # every tilt term and norm is summed in elementwise operations, so
        # no BLAS kernel takes part; where OpenBLAS picks a kernel per CPU,
        # Prescott and the default kernel round 2-D dot products apart
        argv = ["diagnose", "--fn", "maxsq2d", "--delta", "1", "--grid-points", "41"]
        default = _subprocess_outputs(tmp_path / "default", argv)
        prescott = _subprocess_outputs(tmp_path / "prescott", argv, OPENBLAS_CORETYPE="Prescott")
        assert default == prescott


class TestConfigResolution:
    def test_file_values_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta = 1.0\np = 3.0  # growth exponent\n")
        out = tmp_path / "d"
        code, _, _ = run(
            ["diagnose", "--fn", "power", "--config", str(cfg), "--p", "2",
             "--out", str(out)] + FAST_DIAGNOSE,
            capsys,
        )
        assert code == 0
        report = json.loads((out / "diagnose_report.json").read_text())
        assert report["config"]["delta"] == 1.0  # from file
        assert report["config"]["p"] == 2.0  # flag wins over file

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no_such_key = 1\n")
        code, _, err = run(
            ["diagnose", "--config", str(cfg), "--out", str(tmp_path / "d")], capsys
        )
        assert code == 1
        assert "no_such_key" in err


# (argv, message): settings refused with ``error: <message>`` and exit 1
# before any solve or grid scan.
INVALID_SETTINGS = (
    (["tracking", "--tol", "0"], "tol must be positive and finite"),
    (["tracking", "--tol", "nan"], "tol must be positive and finite"),
    (["diagnose", "--grid-points", "41", "--tilt-norms", ","],
     "tilt_norms must not be empty"),
    (["tracking", "--n", "8", "--ssc-samples", "2", "--eta-norms", ","],
     "eta_norms must not be empty"),
    (["tracking", "--n", "8", "--ssc-samples", "2", "--eta-norms", "0,1e-2"],
     "eta norms must be positive and finite, got 0.0"),
    (["tracking", "--n", "8", "--ssc-samples", "2", "--eta-norms", "-1e-2"],
     "eta norms must be positive and finite, got -0.01"),
    (["tracking", "--n", "8", "--ssc-samples", "2", "--eta-norms", "nan"],
     "eta norms must be positive and finite, got nan"),
    (["tracking", "--n", "8", "--ssc-samples", "2", "--eta-norms", "inf"],
     "eta norms must be positive and finite, got inf"),
    (["prox", "--fn", "maxsq2d", "--x0=1"],
     "x0 has length 1, but 'maxsq2d' has dimension 2"),
    (["prox", "--fn", "maxsq2d", "--x0=1,2,3"],
     "x0 has length 3, but 'maxsq2d' has dimension 2"),
    (["prox", "--fn", "power", "--x0=1,2"],
     "x0 has length 2, but 'power' has dimension 1"),
    (["tracking", "--n", "3"], "grid needs at least 4 interior nodes per axis, got 3"),
    (["tracking", "--n", "8", "--etas-per-norm", "-1"], "etas_per_norm must be >= 1"),
    (["tracking", "--tol", "inf"], "tol must be positive and finite"),
    (["tracking", "--n", "8", "--ssc-samples", "-1"], "sample_count must be >= 0, got -1"),
    (["tracking", "--n", "8", "--etas-per-norm", "0"], "etas_per_norm must be >= 1"),
    (["tracking", "--n", "8", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["diagnose", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["diagnose", "--directions", "-1"], "directions_per_norm must be >= 1"),
    (["prox", "--fn", "power", "--epsilon", "2"],
     "epsilon=2.0 must lie strictly below the growth modulus gamma=1.0 of 'power(p=2.0)'"),
    (["diagnose", "--fn", "power", "--bound", "-1"],
     "bound must be positive and finite, got -1.0"),
    (["diagnose", "--fn", "maxsq2d", "--bound", "0"],
     "bound must be positive and finite, got 0.0"),
    (["prox", "--fn", "power", "--bound", "nan"],
     "bound must be positive and finite, got nan"),
    (["prox", "--fn", "boxquad", "--bound", "inf"],
     "bound must be positive and finite, got inf"),
)


# (subcommand, key, value): settings that are library constants or defaults,
# not settings of a run; the CLI refuses them like any unknown key
RETIRED_SETTINGS = (
    ("diagnose", "multistart", "4"),
    ("diagnose", "tau", "1.2"),
    ("prox", "multistart", "4"),
    ("prox", "seed", "1"),
    ("tracking", "max_iters", "100"),
    ("tracking", "ssc_delta", "0.2"),
    ("tracking", "consistency_factor", "4"),
)


class TestConfigValidation:
    @pytest.mark.parametrize("via_config", (False, True), ids=("flag", "config"))
    @pytest.mark.parametrize(
        "subcommand, key, value",
        [pytest.param(*setting, id=f"{setting[0]}-{setting[1]}") for setting in RETIRED_SETTINGS],
    )
    def test_retired_setting_exits_one_without_files(
        self, subcommand, key, value, via_config, tmp_path, capsys
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        flag = "--" + key.replace("_", "-")
        setting, message = (
            (["--config", str(cfg)], f"error: unknown config key {key!r} for {subcommand!r}\n")
            if via_config
            else ([flag, value], f"unrecognized arguments: {flag} {value}\n")
        )
        out = tmp_path / "r"
        code, _, err = run([subcommand] + setting + ["--out", str(out)], capsys)
        assert code == 1
        assert err.endswith(message)
        assert not out.exists()

    # each case is named by its command line, so adding a row or rewording
    # a message renames no test
    @pytest.mark.parametrize(
        "argv, message",
        [pytest.param(argv, message, id=" ".join(argv)) for argv, message in INVALID_SETTINGS],
    )
    def test_invalid_solver_setting_exits_one_without_files(
        self, argv, message, tmp_path, capsys
    ):
        out = tmp_path / "v"
        code, _, err = run(argv + ["--out", str(out)], capsys)
        assert code == 1
        assert err == f"error: {message}\n"
        assert not out.exists()

    def test_invalid_settings_reach_no_solve(self, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve or grid scan started")

        monkeypatch.setattr(trk, "solve_tracking", no_solve)
        monkeypatch.setattr(diagnostics, "estimate_growth", no_solve)
        monkeypatch.setattr(diagnostics, "argmin_tilted", no_solve)
        monkeypatch.setattr(cli, "run_prox", no_solve)
        for i, (argv, message) in enumerate(INVALID_SETTINGS):
            out = tmp_path / str(i)
            code, _, err = run(argv + ["--out", str(out)], capsys)
            assert (code, err) == (1, f"error: {message}\n"), argv
            assert not out.exists()


class TestArgumentParsing:
    def test_negative_list_value_is_accepted(self, tmp_path, capsys):
        out = tmp_path / "p"
        code, _, err = run(
            ["prox", "--fn", "maxsq2d", "--x0", "-1.2,0.5", "--iterations", "2",
             "--grid-points", "41", "--out", str(out)],
            capsys,
        )
        assert code == 0, err
        lines = (out / "prox_trajectory.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[1].startswith("0,-1.2,0.5,")

    def test_negative_list_value_reaches_validation(self, tmp_path, capsys):
        out = tmp_path / "d"
        code, _, err = run(
            ["diagnose", "--fn", "power", "--tilt-norms", "-1,2", "--out", str(out)]
            + FAST_DIAGNOSE,
            capsys,
        )
        assert code == 1
        assert "tilt norms must be positive" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        (
            ["prox", "--x0", "--iterations", "2"],
            ["diagnose", "--no-such-flag", "1"],
            ["nosuch"],
        ),
    )
    def test_usage_error_exits_one_without_files(self, argv, tmp_path, capsys):
        out = tmp_path / "u"
        code, _, err = run(argv + ["--out", str(out)], capsys)
        assert code == 1
        assert "usage:" in err
        assert not out.exists()


class TestParserReuse:
    RUNS = (
        ["diagnose", "--fn", "maxsq2d", "--delta", "1"],
        ["tracking", "--n", "8", "--no-such-flag", "1"],
        ["tracking", "--n", "8"],
    )

    def _outcomes(self, cwd, fresh, monkeypatch, capsys):
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        outcomes = []
        for k, argv in enumerate(self.RUNS):
            if fresh:
                cli.build_parser.cache_clear()
            out = Path(f"run{k}")
            code, stdout, err = run(argv + ["--out", str(out)], capsys)
            files = {f.name: f.read_bytes() for f in sorted(out.iterdir())} if out.exists() else None
            outcomes.append((code, stdout, err, files))
        return outcomes

    def test_one_parser_serves_every_call_as_a_fresh_one_would(
        self, tmp_path, capsys, monkeypatch
    ):
        fresh = self._outcomes(tmp_path / "fresh", True, monkeypatch, capsys)
        assert cli.build_parser() is cli.build_parser()
        reused = self._outcomes(tmp_path / "reused", False, monkeypatch, capsys)
        assert [code for code, *_ in reused] == [0, 1, 0]
        assert "usage:" in reused[1][2] and reused[1][3] is None
        assert reused == fresh


class TestMedian:
    @pytest.mark.parametrize("length", (1, 2, 3, 4, 7, 8, 24, 25))
    def test_equals_numpy_median_bitwise(self, length):
        rng = np.random.default_rng(length)
        for _ in range(200):
            values = list(rng.lognormal(0.0, 2.0, length))
            expected = np.float64(np.median(values))
            assert np.float64(trk._median(values)).tobytes() == expected.tobytes()


class TestManifest:
    @pytest.mark.parametrize(
        "argv, outputs",
        (
            (["diagnose", "--fn", "power", "--delta", "1"] + FAST_DIAGNOSE,
             ["diagnose_report.json", "diagnose_report.csv"]),
            (["prox", "--fn", "power"], ["prox_trajectory.csv"]),
            (["tracking", "--n", "8"],
             ["control.txt", "state.txt", "adjoint.txt", "target.txt", "sweep.csv"]),
        ),
    )
    def test_outputs_lists_the_other_files_in_write_order(
        self, argv, outputs, tmp_path, capsys, monkeypatch
    ):
        written = []
        write_bytes = Path.write_bytes

        def logged(path, data):
            written.append(path.name)
            return write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", logged)
        out = tmp_path / "run"
        assert run(argv + ["--out", str(out)], capsys)[0] == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == outputs
        assert written == outputs + ["manifest.json"]
        assert sorted(f.name for f in out.iterdir()) == sorted(written)
        assert manifest["config"]["subcommand"] == argv[0]


class TestReproducibility:
    def test_diagnose_rerun_is_bit_identical(self, tmp_path, capsys):
        out = tmp_path / "d"
        argv = ["diagnose", "--fn", "power", "--delta", "1", "--out", str(out)] + FAST_DIAGNOSE
        assert run(argv, capsys)[0] == 0
        first = {f.name: f.read_bytes() for f in out.iterdir()}
        assert run(argv, capsys)[0] == 0
        second = {f.name: f.read_bytes() for f in out.iterdir()}
        assert first == second

    @pytest.mark.parametrize(
        "argv",
        (
            ["diagnose", "--fn", "maxsq2d", "--delta", "1"],
            ["prox", "--fn", "maxsq2d", "--x0=0.7,-0.4", "--iterations", "4"],
            ["tracking", "--n", "8"],
        ),
    )
    def test_rerun_from_manifest_config_is_bit_identical(self, argv, tmp_path, capsys):
        # every output embeds the resolved configuration: written back as a
        # --config file, it must reproduce the run byte for byte
        out = tmp_path / "run"
        code, stdout, _ = run(argv + ["--out", str(out)], capsys)
        assert code == 0
        first = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        config = json.loads(first["manifest.json"])["config"]
        lines = []
        for key, val in config.items():
            if key != "subcommand":
                val = ",".join(repr(v) for v in val) if isinstance(val, list) else val
                lines.append(f"{key} = {val}\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(lines))
        shutil.rmtree(out)
        rerun = run([config["subcommand"], "--config", str(cfg)], capsys)
        assert rerun == (code, stdout, "")
        assert {f.name: f.read_bytes() for f in sorted(out.iterdir())} == first

    def test_catalog_stdout_is_stable(self, capsys):
        _, out1, _ = run(["catalog"], capsys)
        _, out2, _ = run(["catalog"], capsys)
        assert out1 == out2
