"""Command-line interface: formats, exit codes, deterministic output."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from qhj.cli import (EXIT_NO_ASSIGNMENT, EXIT_OK, EXIT_USAGE,
                     EXIT_VERIFY_FAILED, main)
from qhj.polynomial_system import solve_spectrum
from qhj.potential_catalog import MODEL_IDS, get_model


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestList:
    def test_lists_every_model(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == EXIT_OK
        for mid in MODEL_IDS:
            assert mid in out
        assert len(MODEL_IDS) == 8

    def test_json_catalog(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert sorted(row["id"] for row in data["models"]) == sorted(MODEL_IDS)

    def test_single_model_shows_parameter_domains(self, capsys):
        code, out, _ = run_cli(capsys, "list", "lame", "--json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert {"j", "m"} <= set(data["parameters"])


class TestSolve:
    def test_json_output_is_byte_identical_between_runs(self, capsys):
        args = ("solve", "hydrogen", "--param", "e2=2", "--param", "l=0",
                "--format", "json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        rows = json.loads(first)["levels"]
        assert rows[0]["energy_exact"] == "0"
        assert rows[1]["energy_exact"] == "3/4"
        assert rows[2]["energy_exact"] == "8/9"

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "scarf1", "--param", "A=2",
                               "--param", "B=1/2", "--param", "alpha=1",
                               "--format", "csv", "--levels", "2")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("set,n,energy_re")
        assert len(lines) == 3

    def test_table_output_mentions_energies(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "lame", "--param", "j=2",
                               "--param", "m=1/2")
        assert code == EXIT_OK
        assert "periodic" in out and "antiperiodic" in out

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            {"model": "hydrogen", "params": {"e2": 2, "l": 1}, "levels": 2}))
        code, out, _ = run_cli(capsys, "solve", "--config", str(cfg),
                               "--param", "l=0", "--format", "json")
        assert code == EXIT_OK
        rows = json.loads(out)["levels"]
        assert rows[1]["energy_exact"] == "3/4"  # l=0 spectrum, not l=1

    def test_complex_energies_serialize_as_re_im_pairs(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "complex_scarf", "--param",
                               "A=1", "--param", "B=2", "--format", "json")
        assert code == EXIT_OK
        rows = json.loads(out)["levels"]
        assert rows[0]["energy_im"] == -rows[1]["energy_im"] != 0.0


class TestExitCodes:
    def test_unknown_model_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "coulomb_iii")
        assert code == EXIT_USAGE
        assert "coulomb_iii" in err

    def test_domain_violation_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "lame", "--param", "j=2",
                               "--param", "m=7/5")
        assert code == EXIT_USAGE
        assert "m" in err

    def test_missing_parameter_is_a_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "lame", "--param", "j=2")
        assert code == EXIT_USAGE

    def test_unparseable_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--format", "yaml", "lame"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_no_admissible_assignment_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "solve", "assoc_lame_qes", "--param",
                               "a=2", "--param", "b=1/2", "--param", "m=1/2")
        assert code == EXIT_NO_ASSIGNMENT
        assert "non_integer_level" in err

    def test_failed_verification_exits_three(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "hydrogen", "--param", "e2=2",
                               "--param", "l=0", "--levels", "2",
                               "--tol", "1e-14")
        assert code == EXIT_VERIFY_FAILED
        assert "FAIL" in out

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    def test_meaningless_tolerance_is_a_usage_error(self, capsys, tol):
        code, out, err = run_cli(capsys, "verify", "hydrogen", "--param", "e2=2",
                                 "--param", "l=0", "--tol", tol)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and "tolerance" in err

    def test_state_out_of_range_is_a_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "wavefunction", "hydrogen", "--param",
                             "e2=2", "--param", "l=0", "--levels", "2",
                             "--state", "9")
        assert code == EXIT_USAGE


class TestVerify:
    def test_hydrogen_passes_at_default_tolerance(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "hydrogen", "--param", "e2=2",
                               "--param", "l=0", "--levels", "3")
        assert code == EXIT_OK
        lines = [ln for ln in out.splitlines() if ln.endswith("PASS")]
        assert len(lines) == 3
        assert "FAIL" not in out

    # band edges up to emax, the weighted-channel oracle, and eigenfunction
    # scoring on the bent contour
    @pytest.mark.parametrize("mid,params", [
        ("lame", {"j": "2", "m": "1/2"}),
        ("scarf_periodic", {"s": "3/10"}),
        ("khare_mandal", {"zeta": "1/4", "M": "3"}),
    ])
    def test_family_passes_with_one_line_per_level(self, capsys, mid, params):
        argv = ["verify", mid]
        for name, value in params.items():
            argv += ["--param", "%s=%s" % (name, value)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        solved = solve_spectrum(get_model(mid, **{
            k: Fraction(v) for k, v in params.items()})).solutions
        lines = out.splitlines()
        assert len(lines) == len(solved) + 1
        assert all(ln.endswith(" PASS") for ln in lines[:-1])
        assert lines[-1] == "verification PASSED for %s" % mid


def _write(tmp_path, text):
    path = tmp_path / "run.json"
    path.write_text(text)
    return str(path)


class TestUsageErrors:
    HYDROGEN = ("hydrogen", "--param", "e2=2", "--param", "l=0")

    @pytest.mark.parametrize("command", ["solve", "verify", "wavefunction"])
    @pytest.mark.parametrize("levels", ["0", "-2"])
    def test_levels_below_one_are_refused(self, capsys, command, levels):
        code, out, err = run_cli(capsys, command, *self.HYDROGEN,
                                 "--levels", levels)
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and "levels" in err
        assert "PASSED" not in out

    @pytest.mark.parametrize("command", ["solve", "verify", "wavefunction"])
    def test_config_levels_below_one_are_refused(self, capsys, tmp_path, command):
        cfg = _write(tmp_path, json.dumps(
            {"model": "hydrogen", "params": {"e2": 2, "l": 0}, "levels": 0}))
        code, out, err = run_cli(capsys, command, "--config", cfg)
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and "levels" in err

    @pytest.mark.parametrize("case", [
        "missing_config", "invalid_json", "array_config", "params_not_object",
        "non_integer_levels", "zero_samples", "negative_samples"])
    def test_bad_input_is_an_error_line_not_a_traceback(self, capsys, tmp_path, case):
        texts = {
            "invalid_json": "{\"model\": ",
            "array_config": "[1, 2]",
            "params_not_object": '{"model": "hydrogen", "params": [1]}',
            "non_integer_levels": json.dumps(
                {"model": "hydrogen", "params": {"e2": 2, "l": 0}, "levels": "x"}),
        }
        if case in texts:
            argv = ["solve", "--config", _write(tmp_path, texts[case])]
        elif case == "missing_config":
            argv = ["solve", "--config", str(tmp_path / "absent.json")]
        else:
            samples = "0" if case == "zero_samples" else "-4"
            argv = ["wavefunction", *self.HYDROGEN, "--samples", samples]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert out == ""


class TestWavefunction:
    def test_csv_sampling(self, capsys):
        code, out, _ = run_cli(capsys, "wavefunction", "scarf1", "--param",
                               "A=2", "--param", "B=1/2", "--param", "alpha=1",
                               "--state", "1", "--samples", "64")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "x,psi_re,psi_im"
        assert len(lines) == 65
        row = lines[1].split(",")
        assert len(row) == 3
        float(row[0]), float(row[1]), float(row[2])  # all parseable


def test_console_script_is_wired():
    proc = subprocess.run([sys.executable, "-m", "qhj.cli", "list"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_OK
    assert "hydrogen" in proc.stdout
