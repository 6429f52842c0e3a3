"""Command-line interface: formats, exit codes, deterministic output."""

import importlib.util
import json
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from qhj.cli import (EXIT_NO_ASSIGNMENT, EXIT_OK, EXIT_USAGE,
                     EXIT_VERIFY_FAILED, build_parser, main)
from qhj.polynomial_system import DefectivePencilWarning, solve_spectrum
from qhj.potential_catalog import MODEL_CLASSES, MODEL_IDS, PARAM_SCHEMAS, get_model

from test_acceptance import ALL_CONFIGS


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

    def test_distinct_exact_levels_are_never_merged(self, capsys):
        # four rational levels within 2.4e-25 of each other: exact energies
        # form one group only when equal, whatever their spacing
        code, out, _ = run_cli(capsys, "solve", "hydrogen", "--param",
                               "e2=1/1000000000000", "--param", "l=0",
                               "--format", "json")
        assert code == EXIT_OK
        rows = json.loads(out)["levels"]
        assert [r["energy_exact"] for r in rows] == [
            "0", "3/16000000000000000000000000", "1/4500000000000000000000000",
            "3/12800000000000000000000000"]
        assert [r["degeneracy"] for r in rows] == [1, 1, 1, 1]

    def test_rational_complex_scarf_residues_give_an_exact_energy(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "complex_scarf", "--param", "A=2",
                               "--param", "B=0", "--format", "json")
        assert code == EXIT_OK
        assert [r["energy_exact"] for r in json.loads(out)["levels"]] == ["-1"]

    def test_scarf1_sets_name_their_root_at_each_wall(self, capsys):
        # exponent_<lower wall>_<upper wall>, plus for the principal root
        code, out, _ = run_cli(capsys, "solve", "scarf1", "--param", "A=3/4",
                               "--param", "B=0", "--param", "alpha=1",
                               "--levels", "1", "--format", "json")
        assert code == EXIT_OK
        assert {r["set"]: r["bc_class"] for r in json.loads(out)["levels"]} == {
            1: "exponent_plus", 2: "exponent_minus_plus",
            3: "exponent_plus_minus", 4: "exponent_minus"}

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

    def test_json_rows_carry_the_algebraic_multiplicity(self, capsys):
        # at the exceptional point the pencil eigenvalue 6.75 is double but
        # has one eigenfunction: multiplicity 2, degeneracy 1
        code, out, _ = run_cli(capsys, "solve", "khare_mandal", "--param", "zeta=1/2",
                               "--param", "M=3", "--format", "json")
        assert code == EXIT_OK
        assert [(r["energy_re"], r["degeneracy"], r["multiplicity"])
                for r in json.loads(out)["levels"]] == [(4.75, 1, 1), (6.75, 1, 2)]

    @pytest.mark.parametrize("mid,params", ALL_CONFIGS)
    def test_simple_levels_have_multiplicity_one(self, capsys, mid, params):
        argv = ["solve", mid, "--format", "json"]
        for name, value in params.items():
            argv += ["--param", "%s=%s" % (name, value)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        rows = json.loads(out)["levels"]
        assert rows and all(r["multiplicity"] == 1 for r in rows)

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
        # the oracle matches these levels to ~1e-15, so only a tolerance far
        # below rounding makes them fail
        code, out, _ = run_cli(capsys, "verify", "hydrogen", "--param", "e2=2",
                               "--param", "l=0", "--levels", "2",
                               "--tol", "1e-300")
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

    def test_band_edges_check_node_counts_on_every_level(self, capsys):
        # the oracle's count is the zeros per cell that Hill's index rule
        # gives each edge: 2⌈i/2⌉ periodic, 2⌊i/2⌋ + 1 antiperiodic
        code, out, _ = run_cli(capsys, "verify", "lame", "--param", "j=2",
                               "--param", "m=1/2")
        assert code == EXIT_OK
        nodes = [ln.split(" nodes=")[1].split()[0] for ln in out.splitlines()[:-1]]
        assert nodes == ["0/0", "1/1", "1/1", "2/2", "2/2"]


class TestFixedOraclePoints:
    """Points whose earlier oracles failed `qhj verify` (the finite-difference
    ones, one wall channel where a wall admits both roots, or levels beyond
    the paired ones that the grid could not resolve); the collocation oracle
    verifies them at the default tolerance."""

    @pytest.mark.parametrize("mid,params,levels", [
        ("hydrogen", ("e2=2", "l=3"), "6"),
        ("hydrogen", ("e2=7", "l=2"), "6"),
        ("complex_scarf", ("A=6", "B=3"), "4"),
        ("complex_scarf", ("A=1/4", "B=1"), "4"),
        ("complex_scarf", ("A=1/2", "B=1"), "4"),
        ("khare_mandal", ("zeta=3/2", "M=5"), "4"),
        ("scarf1", ("A=1/2", "B=0", "alpha=1"), "4"),
        ("scarf1", ("A=3/4", "B=0", "alpha=1"), "4"),
        ("scarf1", ("A=2", "B=1/2", "alpha=2"), "4"),
        ("hydrogen", ("e2=1187/77", "l=18"), "4"),
        ("scarf1", ("A=3/4", "B=0", "alpha=1"), "30"),
    ])
    def test_verifies(self, capsys, mid, params, levels):
        argv = ["verify", mid, "--levels", levels]
        for p in params:
            argv += ["--param", p]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[-1] == "verification PASSED for %s" % mid

    def test_exceptional_point_verifies_and_still_warns(self, capsys):
        # the coalesced level 6.75 is kept: N and 2N agree on it to about
        # 1e-5, the √eps size of a Jordan block
        code, out, err = run_cli(capsys, "verify", "khare_mandal", "--param",
                                 "zeta=1/2", "--param", "M=3")
        assert code == EXIT_OK
        assert err == ("warning: pencil eigenvalue (6.75+0j) has multiplicity 2 "
                       "but kernel dimension 1\n")
        assert out.splitlines()[-1] == "verification PASSED for khare_mandal"


class TestResidueSideFixes:
    """Points whose residue route failed `qhj verify`: a hydrogen node
    polynomial at small e2 has coefficients far below its leading one, and
    a cut at 1e-9 of the largest truncated it (`P2` for n = 3, nodes 0/3);
    the triangular solve with p_n = 1 keeps every coefficient."""

    def test_small_coulomb_strength_at_high_l_verifies(self, capsys):
        code, out, err = run_cli(capsys, "verify", "hydrogen", "--param", "e2=1/97",
                                 "--param", "l=5")
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[-1] == "verification PASSED for hydrogen"


def _verify(capsys, mid, params):
    argv = ["verify", mid]
    for p in params:
        argv += ["--param", p]
    return run_cli(capsys, *argv)


class TestOscillationTheoremNodeCounts:
    """Points whose oracle node counts were sign changes of sampled vectors:
    rounding noise in a hydrogen tail counted as nodes, and counts that fell
    with energy raised "node counts are not monotone".  The counts now come
    from the oscillation theorem, so these points verify or reach a verdict.
    A channel with an uncounted real eigenvalue below a kept level is
    refused; a conjugate pair of the grid below every level is not a level
    (`scarf_periodic s=19/39`, whose secondary root ρ = 0.0128 puts one
    near −3e6)."""

    @pytest.mark.parametrize("mid,params", [
        ("hydrogen", ("e2=1049/22", "l=13")),
        ("assoc_lame_qes", ("a=143/3", "b=-140/3", "m=25/32")),
        ("scarf_periodic", ("s=19/39",)),
    ])
    def test_verifies(self, capsys, mid, params):
        code, out, err = _verify(capsys, mid, params)
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[-1] == "verification PASSED for %s" % mid

    @pytest.mark.parametrize("mid,params", [
        ("hydrogen", ("e2=1/10", "l=20")),          # FAILs on the oracle vector's overlap
        ("assoc_lame_es", ("j=42", "m=59/67")),      # FAILs on the float pencil's energies
    ])
    def test_reaches_a_verdict(self, capsys, mid, params):
        code, out, err = _verify(capsys, mid, params)
        assert code in (EXIT_OK, EXIT_VERIFY_FAILED) and err == ""
        assert out.splitlines()[-1].startswith("verification ")

    def test_an_unresolved_channel_is_an_error_line(self, capsys):
        # behind the secondary root ρ = 0.0081 the lowest level never counts
        code, out, err = _verify(capsys, "scarf1", ("A=195/11", "B=1207/69", "alpha=550/19"))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: channel exponent_minus_plus (rho = 0.008102, 1.217): "
                              "the eigenvalue at E = ")
        assert err.endswith(" fails the counting rule below a kept level, so the levels' "
                            "node counts are unknown\n")


def _load_census():
    path = Path(__file__).resolve().parents[1] / "scripts" / "census.py"
    spec = importlib.util.spec_from_file_location("census", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSchemaSweep:
    """`qhj verify` on the draws of the reference censuses
    (`scripts/census.py --draws 30` at seeds 2026 and 7) of each family that
    exits 0 on all of them.  That is scarf_periodic alone, 60 draws in about
    1 s on a 2-core machine (budget: 2 s).  scarf1 stays out: seed 7 draws
    `A=110/7 B=341/15 alpha=893/23`, which FAILs (exit 3) because the
    oracle's levels behind its secondary root ρ = 0.0097 are off by 4.8e-4.
    The seeds are the censuses', not chosen to let a family in."""

    @pytest.mark.parametrize("mid", ["scarf_periodic"])
    def test_every_census_draw_verifies(self, mid):
        census = _load_census()
        outcomes = [(seed, params, census.verify_exit(mid, params))
                    for seed in (2026, 7) for params in census.draws(seed, mid, 30)]
        assert [o for o in outcomes if o[2][0] != 0] == []


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

    @pytest.mark.parametrize("command", ["solve", "verify", "wavefunction"])
    def test_levels_above_one_hundred_are_refused(self, capsys, command):
        code, out, err = run_cli(capsys, command, *self.HYDROGEN, "--levels", "101")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: levels must lie in [1, 100], got 101\n"

    @pytest.mark.parametrize("command", ["solve", "verify", "wavefunction"])
    def test_config_levels_above_one_hundred_are_refused(self, capsys, tmp_path, command):
        cfg = _write(tmp_path, json.dumps(
            {"model": "hydrogen", "params": {"e2": 2, "l": 0}, "levels": 101}))
        code, out, err = run_cli(capsys, command, "--config", cfg)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: levels must lie in [1, 100], got 101\n"

    def test_one_hundred_levels_are_solved(self, capsys):
        code, out, err = run_cli(capsys, "solve", *self.HYDROGEN, "--levels", "100",
                                 "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        assert len(json.loads(out)["levels"]) == 100

    @pytest.mark.parametrize("case", [
        "missing_config", "invalid_json", "array_config", "params_not_object",
        "non_integer_levels", "zero_samples", "negative_samples", "too_many_samples"])
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
            samples = {"zero_samples": "0", "negative_samples": "-4",
                       "too_many_samples": "100001"}[case]
            argv = ["wavefunction", *self.HYDROGEN, "--samples", samples]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert out == ""
        if case.endswith("samples"):
            assert err == "error: samples must lie in [1, 100000], got %s\n" % samples

    @pytest.mark.parametrize("text", [
        '{"model": "hydrogen", "params": {"e2": NaN, "l": 0}}',
        '{"model": "hydrogen", "params": {"e2": Infinity, "l": 0}}',
        '{"model": "hydrogen", "params": {"e2": 2, "l": -Infinity}}',
        '{"model": "hydrogen", "params": {"e2": 2, "l": 0}, "levels": 1e400}'])
    def test_non_finite_config_numbers_are_an_error_line(self, capsys, tmp_path, text):
        code, out, err = run_cli(capsys, "solve", "--config", _write(tmp_path, text))
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert out == ""

    @pytest.mark.parametrize("levels", ["2.5", "true"])
    def test_config_levels_must_be_an_integer(self, capsys, tmp_path, levels):
        cfg = _write(tmp_path, '{"model": "hydrogen", "params": {"e2": 2, "l": 0}, '
                               '"levels": %s}' % levels)
        code, out, err = run_cli(capsys, "solve", "--config", cfg)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: config levels must be an integer, got ")
        assert len(err.splitlines()) == 1

    def test_non_integer_order_is_shown_as_a_fraction(self, capsys):
        code, out, err = run_cli(capsys, "solve", *self.HYDROGEN[:3], "--param", "l=0.5")
        assert code == EXIT_USAGE and out == ""
        assert err == "error: parameter l must be an integer, got 1/2\n"

    @pytest.mark.parametrize("command", ["solve", "verify", "wavefunction"])
    def test_a_parameter_given_twice_is_refused(self, capsys, command):
        code, out, err = run_cli(capsys, command, "lame", "--param", "j=2", "--param",
                                 "m=1/2", "--param", " m = 1/3")
        assert code == EXIT_USAGE and out == ""
        assert err == "error: parameter 'm' given twice\n"

    def test_a_flag_still_overrides_the_config(self, capsys, tmp_path):
        cfg = _write(tmp_path, '{"model": "lame", "params": {"j": 2, "m": "1/3"}}')
        _, from_config, _ = run_cli(capsys, "solve", "--config", cfg, "--param", "m=1/2",
                                    "--format", "json")
        code, from_flags, _ = run_cli(capsys, "solve", "lame", "--param", "j=2",
                                      "--param", "m=1/2", "--format", "json")
        assert code == EXIT_OK and from_config == from_flags

    @pytest.mark.parametrize("name,argv", [
        ("e2", ("hydrogen", "e2=0", "l=0")),
        ("l", ("hydrogen", "e2=2", "l=-1")),
        ("s", ("scarf_periodic", "s=1/2")),
        ("m", ("lame", "j=2", "m=1")),
        ("j", ("lame", "j=0", "m=1/2")),
        ("M", ("khare_mandal", "zeta=1/4", "M=0")),
        ("m", ("lame", "j=2")),
        ("bogus", ("lame", "j=2", "m=1/2", "bogus=1"))])
    def test_invalid_parameters_name_their_declared_domain(self, capsys, name, argv):
        params = [arg for p in argv[1:] for arg in ("--param", p)]
        code, out, err = run_cli(capsys, "solve", argv[0], *params)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert name in err and "__init__" not in err and "positional" not in err
        domains = PARAM_SCHEMAS[argv[0]]
        if name in domains:
            assert domains[name] in err
        else:
            assert "accepted: %s" % ", ".join(domains) in err

    @pytest.mark.parametrize("name,argv", [
        ("e2", ("hydrogen", "--param", "e2=1e200", "--param", "l=0")),
        ("A", ("scarf1", "--param", "A=1e200", "--param", "B=0")),
        ("s", ("scarf_periodic", "--param", "s=1e300")),
        ("zeta", ("khare_mandal", "--param", "zeta=1e300", "--param", "M=1")),
        ("m", ("lame", "--param", "j=2", "--param", "m=1e-400"))])
    def test_extreme_parameters_are_an_error_line(self, capsys, name, argv):
        code, out, err = run_cli(capsys, "solve", *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: parameter %s must " % name)
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ("hydrogen", "e2=50", "l=50"),
        ("scarf1", "A=50", "B=-50", "alpha=50"),
        ("scarf_periodic", "s=50"),
        ("scarf_periodic", "s=1/1000000000000"),
        ("lame", "j=50", "m=999999999999/1000000000000", "shift=-50"),
        ("assoc_lame_es", "j=50", "m=1/2", "shift=50"),
        ("assoc_lame_es", "j=1", "m=1/1000000000000"),
        ("assoc_lame_qes", "a=50", "b=-50", "m=1/2", "shift=-50"),
        ("khare_mandal", "zeta=50", "M=50"),
        ("complex_scarf", "A=50", "B=50")])
    def test_each_family_at_the_parameter_bounds(self, capsys, argv):
        params = [arg for p in argv[1:] for arg in ("--param", p)]
        code, out, err = run_cli(capsys, "solve", argv[0], *params)
        if code == EXIT_OK:
            assert err == "" and out
        else:
            assert code == EXIT_USAGE and out == ""
            assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_lone_levels_are_not_sampled(self, capsys):
        # r^51 overflows on the window of 2.2e15, but no two levels share an
        # energy, so dedup never samples a recipe and the table is printed
        params = ("--param", "e2=1/1000000000000", "--param", "l=50")
        code, out, err = run_cli(capsys, "solve", "hydrogen", *params)
        assert code == EXIT_OK and err == ""
        rows = out.splitlines()[2:6]
        assert [r.split()[:2] for r in rows] == [["1", str(n)] for n in range(4)]
        assert out.splitlines()[6].startswith("energy formula: ")
        _, out, _ = run_cli(capsys, "solve", "hydrogen", *params, "--format", "json")
        e2 = Fraction(1, 10**12)
        assert [r["energy_exact"] for r in json.loads(out)["levels"]] == [
            str(e2 * e2 / (4 * 51**2) - e2 * e2 / (4 * (51 + n) ** 2)) for n in range(4)]

    def test_overflowing_wavefunction_is_one_error_line(self, capsys):
        code, out, err = run_cli(capsys, "wavefunction", "hydrogen", "--param",
                                 "e2=1/1000000000000", "--param", "l=50")
        assert code == EXIT_USAGE and out == ""
        assert err == ("error: wavefunction is not finite on the grid: it overflows "
                       "or the grid touches a singular point\n")

    def test_non_finite_recipe_is_one_error_line(self, capsys):
        # r^51 overflows on the half-line output grid (r up to ~1e9); the
        # refusal is the only stderr line, with no numpy warnings before it
        code, out, err = run_cli(capsys, "verify", "hydrogen", "--param",
                                 "e2=1/97", "--param", "l=50")
        assert code == EXIT_USAGE and out == ""
        assert err == "error: recipe not finite on the oracle grid\n"

    def test_config_floats_are_made_rational_by_the_catalog(self, capsys, tmp_path):
        cfg = _write(tmp_path, '{"model": "scarf1", "params": '
                               '{"A": 2.0, "B": 0.5, "alpha": 1}}')
        _, from_config, _ = run_cli(capsys, "solve", "--config", cfg, "--format", "json")
        _, from_flags, _ = run_cli(capsys, "solve", "scarf1", "--param", "A=2",
                                   "--param", "B=1/2", "--param", "alpha=1",
                                   "--format", "json")
        assert from_config == from_flags


class TestReusedParser:
    """main() parses every call with the one parser built per process, so no
    call may see the arguments or defaults of an earlier one."""

    def test_the_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_a_config_run_takes_nothing_from_the_flag_run_before_it(self, capsys, tmp_path):
        run_cli(capsys, "solve", "lame", "--param", "j=2", "--param", "m=1/2",
                "--format", "json")
        cfg = _write(tmp_path, '{"model": "lame", "params": {"j": 1, "m": "1/3"}}')
        code, out, err = run_cli(capsys, "solve", "--config", cfg)
        fresh = subprocess.run([sys.executable, "-m", "qhj.cli", "solve", "--config", cfg],
                               capture_output=True, text=True, timeout=60)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert code == EXIT_OK
        assert build_parser().parse_args(["solve", "--config", cfg]).param == []

    def test_verify_without_tol_uses_the_family_default_again(self, capsys):
        argv = ("verify", "hydrogen", "--param", "e2=2", "--param", "l=0", "--levels", "2")
        code, out, _ = run_cli(capsys, *argv, "--tol", "1e-300")
        assert code == EXIT_VERIFY_FAILED and " tol=1.0e-300 " in out
        code, out, _ = run_cli(capsys, *argv)
        default = " tol=%.1e " % get_model("hydrogen", e2=2, l=0).verify_tol
        lines = out.splitlines()
        assert code == EXIT_OK and len(lines) == 3
        assert all(default in line for line in lines[:-1])

    def test_a_usage_error_leaves_the_next_call_working(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "lame", "--levels", "x"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()
        code, out, err = run_cli(capsys, "solve", "lame", "--param", "j=2", "--param", "m=1/2")
        assert (code, err) == (EXIT_OK, "") and out


class TestWarnings:
    ARGV = ("solve", "khare_mandal", "--param", "zeta=1/2", "--param", "M=3")

    def test_defective_pencil_is_one_warning_line(self, capsys):
        code, out, err = run_cli(capsys, *self.ARGV)
        assert code == EXIT_OK
        assert err == ("warning: pencil eigenvalue (6.75+0j) has multiplicity 2 "
                       "but kernel dimension 1\n")
        assert out.splitlines()[2].split()[:3] == ["2", "0", "4.75"]

    def test_the_library_still_warns_and_the_handler_is_restored(self, capsys):
        handler = warnings.showwarning
        with pytest.warns(DefectivePencilWarning, match="kernel dimension 1"):
            solve_spectrum(get_model("khare_mandal", zeta=Fraction(1, 2), M=3))
        run_cli(capsys, *self.ARGV)
        assert warnings.showwarning is handler


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


_NUMPY_FREE = (["list"], ["list", "--json"], ["list", "lame"]) + tuple(
    ["list", mid, "--json"] for mid in MODEL_IDS)
_SCIPY_FREE = (["wavefunction", "hydrogen", "--param", "e2=2", "--param", "l=0", "--samples", "8"],
               ["solve", "hydrogen", "--param", "e2=2", "--param", "l=0", "--format", "json"])
# every closed-form acceptance config, in each output format
_CLOSED_FORM_SOLVES = tuple(
    ["solve", mid, *(arg for name, value in params.items()
                     for arg in ("--param", "%s=%s" % (name, value))), "--format", fmt]
    for mid, params in ALL_CONFIGS if not MODEL_CLASSES[mid].uses_pencil
    for fmt in ("json", "table", "csv"))

# run in a fresh interpreter: which numpy and scipy modules are loaded after
# `import qhj` and after each request, made in turn in that one process
_LOADED_AFTER_EACH = """
import contextlib, io, json, sys
loaded = lambda pkg: sorted(m for m in sys.modules if m.partition(".")[0] == pkg)
import qhj
from qhj import cli
seen = [["import qhj", 0, loaded("numpy"), loaded("scipy")]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append([" ".join(argv), cli.main(argv), loaded("numpy"), loaded("scipy")])
print(json.dumps(seen))
"""


class TestImportBoundary:
    """Only the pencil solve, sampling and the oracle need numpy, and only the
    pencil's QZ solve and the oracle need scipy: listing the catalog or solving
    a closed-form family loads neither, and sampling one loads no scipy."""

    @staticmethod
    def loaded_after_each(requests):
        proc = subprocess.run([sys.executable, "-c", _LOADED_AFTER_EACH, json.dumps(requests)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_import_and_list_load_no_numpy(self):
        assert self.loaded_after_each(_NUMPY_FREE) == [["import qhj", 0, [], []]] + [
            [" ".join(argv), EXIT_OK, [], []] for argv in _NUMPY_FREE]

    def test_closed_form_solve_loads_no_numpy(self):
        assert {mid for mid, params in ALL_CONFIGS if not MODEL_CLASSES[mid].uses_pencil} == {
            "hydrogen", "scarf1", "scarf_periodic", "complex_scarf"}
        assert self.loaded_after_each(_CLOSED_FORM_SOLVES) == [["import qhj", 0, [], []]] + [
            [" ".join(argv), EXIT_OK, [], []] for argv in _CLOSED_FORM_SOLVES]

    def test_closed_form_solve_and_sampling_load_no_scipy(self):
        seen = self.loaded_after_each(_SCIPY_FREE)
        assert [(label, code, scipy) for label, code, _, scipy in seen] == [
            ("import qhj", 0, [])] + [(" ".join(argv), EXIT_OK, []) for argv in _SCIPY_FREE]

    @pytest.mark.parametrize("argv", [
        ["solve", "lame", "--param", "j=2", "--param", "m=1/2"],
        ["verify", "hydrogen", "--param", "e2=2", "--param", "l=0"]])
    def test_pencil_solve_and_verify_still_run_from_a_fresh_process(self, argv):
        proc = subprocess.run([sys.executable, "-m", "qhj.cli", *argv],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_OK, proc.stderr

    def test_every_public_name_resolves_and_is_listed(self):
        import qhj
        assert all(getattr(qhj, name) is not None for name in qhj.__all__)
        assert set(qhj.__all__) <= set(dir(qhj))
        from qhj import polynomial_system, solve_spectrum
        assert qhj.solve_spectrum is solve_spectrum is polynomial_system.solve_spectrum
        with pytest.raises(AttributeError):
            qhj.no_such_name
