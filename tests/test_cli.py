"""Tests for the command-line driver: exit codes, file contract,
configuration precedence, and reproducibility."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import growthlab
from growthlab import tracking as trk
from growthlab.cli import main

FAST_DIAGNOSE = ["--grid-points", "301", "--multistart", "4"]
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
        # through its absolute root only
        code = (
            "import json, sys\n"
            f"sys.path.insert(0, {PACKAGE_ROOT!r})\n"
            "import growthlab, growthlab.cli\n"
            "print(json.dumps([growthlab.__file__, sorted(m for m in sys.modules\n"
            "    if m == 'scipy' or m.startswith('scipy.'))]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=120
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
    def test_too_coarse_grid_exits_one(self, tmp_path, capsys):
        out = tmp_path / "t"
        code, _, err = run(["tracking", "--n", "3", "--out", str(out)], capsys)
        assert code == 1
        assert not out.exists()

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


    def test_capped_linear_solve_exits_one_without_files(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(trk, "_cg_iteration_cap", lambda d, n: 1)
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


class TestConfigValidation:
    @pytest.mark.parametrize(
        "argv, message",
        (
            (["tracking", "--tol", "0"], "tol must be positive and finite"),
            (["tracking", "--tol", "nan"], "tol must be positive and finite"),
            (["tracking", "--max-iters", "0"], "max_iters must be >= 1"),
            (["diagnose", "--multistart", "-1"], "multistart_count must be >= 0"),
            (["diagnose", "--grid-points", "41", "--tilt-norms", ","],
             "tilt_norms must not be empty"),
            (["tracking", "--n", "8", "--ssc-samples", "2", "--eta-norms", ","],
             "eta_norms must not be empty"),
        ),
    )
    def test_invalid_solver_setting_exits_one_without_files(
        self, argv, message, tmp_path, capsys
    ):
        out = tmp_path / "v"
        code, _, err = run(argv + ["--out", str(out)], capsys)
        assert code == 1
        assert err == f"error: {message}\n"
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
