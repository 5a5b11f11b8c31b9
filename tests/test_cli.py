"""Tests for the command-line driver: exit codes, file contract,
configuration precedence, and reproducibility."""

import json

import pytest

from growthlab.cli import main

FAST_DIAGNOSE = ["--grid-points", "301", "--multistart", "4"]
MINI_TRACKING = [
    "--n", "8", "--eta-norms", "1e-2,1e-1", "--etas-per-norm", "1",
    "--ssc-samples", "4",
]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_catalog_stdout_is_stable(self, capsys):
        _, out1, _ = run(["catalog"], capsys)
        _, out2, _ = run(["catalog"], capsys)
        assert out1 == out2
