"""Wavefunction sampling, normalization, node counting, oracle comparison."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qhj import get_model
from qhj.errors import InvalidStateError
from qhj.exactmath import to_complex
from qhj.polynomial_system import solve_spectrum
from qhj.potential_catalog import (AssociatedLameModel, HydrogenModel,
                                   KhareMandalModel, ScarfPeriodicModel,
                                   TwoWallJacobiModel, poly_eval)
from qhj.schrodinger_oracle import (count_nodes, solve_band_edges, solve_bound,
                                    solve_oracle)
from qhj.special_functions import sn_cn_dn
from qhj.wavefunction_assembly import (L2_ONE, SUP_NORM_ONE, assemble,
                                       overlap, parity_deviation,
                                       subspace_overlap, verify,
                                       verify_against_oracle)

from test_acceptance import ALL_CONFIGS

HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def scarf_pair():
    model = get_model("scarf1", A=2, B=HALF, alpha=1)
    return solve_spectrum(model, levels=3), solve_bound(model, k=3)


class TestAssemble:
    def test_sup_normalization_and_zeros(self):
        xs = np.linspace(0.1, math.pi - 0.1, 801)
        wf = assemble(lambda x: np.sin(3 * x), xs)
        assert wf.normalization == SUP_NORM_ONE
        assert np.max(np.abs(wf.values)) == pytest.approx(1.0)
        assert wf.is_real
        assert wf.node_count() == 2
        assert list(wf.zero_locations) == pytest.approx(
            [math.pi / 3, 2 * math.pi / 3], abs=1e-5)

    def test_l2_normalization(self):
        xs = np.linspace(0.0, math.pi, 2001)
        wf = assemble(lambda x: np.sin(x), xs, normalization=L2_ONE)
        norm = np.sqrt(np.trapezoid(np.abs(wf.values) ** 2, xs))
        assert norm == pytest.approx(1.0, abs=1e-6)

    def test_complex_profile_zero_at_grid_point(self):
        xs = np.linspace(0.0, 2.0, 201)  # hits x = 1 exactly
        wf = assemble(lambda x: np.exp(1j * x) * (x - 1.0), xs)
        assert not wf.is_real
        assert list(wf.zero_locations) == pytest.approx([1.0], abs=1e-9)

    def test_rejects_identically_zero_profiles(self):
        xs = np.linspace(0.0, 1.0, 101)
        with pytest.raises(InvalidStateError):
            assemble(lambda x: np.zeros_like(x), xs)

    def test_rejects_non_finite_profiles(self):
        xs = np.linspace(0.0, 1.0, 101)
        with np.errstate(divide="ignore"):
            with pytest.raises(InvalidStateError):
                assemble(lambda x: 1.0 / (x - 0.5), xs)


class TestOverlapHelpers:
    def test_orthogonal_modes_do_not_overlap(self):
        xs = np.linspace(0.0, math.pi, 4001)
        assert overlap(np.sin(xs), np.sin(2 * xs)) < 1e-10

    def test_subspace_overlap_inside_the_span(self):
        xs = np.linspace(0.0, math.pi, 4001)
        basis = [np.sin(xs), np.sin(2 * xs)]
        mix = 0.6 * np.sin(xs) - 0.8 * np.sin(2 * xs)
        assert subspace_overlap(mix, basis) == pytest.approx(1.0, abs=1e-10)
        assert subspace_overlap(np.sin(3 * xs), basis) < 1e-10


class TestOracleComparison:
    def test_levels_match_with_node_counts(self, scarf_pair):
        spectrum, oracle = scarf_pair
        for level, sol in enumerate(spectrum.solutions):
            report = verify_against_oracle(sol.recipe, oracle, level)
            assert report.passed
            assert report.overlap > 1 - 1e-6
            assert report.modulus_deviation < 1e-4
            assert report.predicted_nodes == report.oracle_nodes == level

    def test_wrong_node_count_on_a_periodic_edge_fails(self):
        model = get_model("lame", j=2, m=HALF)
        ground = solve_spectrum(model, levels=6).solutions[0]
        oracle = solve_band_edges(model, k=5)
        edge = next(i for i, (tag, n) in enumerate(zip(oracle.bc_tags, oracle.node_counts))
                    if tag == "periodic" and n != 0)
        report = verify_against_oracle(ground.recipe, oracle, edge)
        assert (report.predicted_nodes, report.oracle_nodes) == (0, 2)
        assert not report.nodes_ok

    def test_report_is_scale_invariant(self, scarf_pair):
        spectrum, oracle = scarf_pair
        recipe = spectrum.solutions[1].recipe
        base = verify_against_oracle(recipe, oracle, 1)
        scaled = verify_against_oracle(lambda x: -3.0 * recipe(x), oracle, 1)
        assert scaled.overlap == pytest.approx(base.overlap, abs=1e-12)
        assert scaled.modulus_deviation == pytest.approx(
            base.modulus_deviation, abs=1e-12)

    def test_mismatched_level_fails_loudly(self, scarf_pair):
        spectrum, oracle = scarf_pair
        report = verify_against_oracle(spectrum.solutions[0].recipe, oracle, 2)
        assert not report.passed
        assert report.overlap < 0.5

    def test_degenerate_cluster_uses_subspace_projection(self):
        model = get_model("assoc_lame_qes", a=Fraction(7, 2), b=HALF, m=HALF)
        spectrum = solve_spectrum(model, levels=8)
        top = float(np.real(spectrum.solutions[-1].energy))
        oracle = solve_band_edges(model, k=5, emax=top + 0.5)
        # the algebraic level set is a strict subset of the full edge list
        assert oracle.eigenvalues[7] == pytest.approx(top, abs=5e-4)
        assert oracle.eigenvalues[8] == pytest.approx(top, abs=5e-4)
        pair = spectrum.solutions[-2:]
        for sol in pair:
            report = verify_against_oracle(sol.recipe, oracle, 7,
                                           cluster_levels=[7, 8],
                                           check_nodes=False)
            assert report.overlap > 1 - 1e-6
        xs = oracle.xs
        a = np.asarray(pair[0].recipe(xs), dtype=complex)
        b = np.asarray(pair[1].recipe(xs), dtype=complex)
        assert overlap(a, b) < 1e-8  # genuinely independent eigenfunctions


# Each family's closed form written out on its own, as the catalog evaluated
# it before one assembler served them all: the references for
# PotentialModel.recipe.
def _hydrogen_psi(model, a, c, xs):
    b1 = to_complex(a.pole_residues["t=0"])
    r = np.asarray(xs, dtype=float)
    return r**b1 * np.exp(to_complex(a.a0) * r) * poly_eval(c, r)


def _two_wall_psi(model, a, c, xs):
    ep, em = (to_complex(e) for e in model.prefactor_exponents(a.pole_residues))
    t = model.to_t(xs)
    return (1.0 - t) ** ep * (1.0 + t) ** em * poly_eval(c, t)


def _periodic_psi(model, a, c, xs):
    # sin^λ·P(cot) as sin^(λ−n)·Σ c_k cos^k sin^(n−k)
    lam = to_complex(model.prefactor_exponents(a.pole_residues)[0]).real
    n = len(c) - 1
    x = np.asarray(xs, dtype=float)
    sx, cx = np.sin(x), np.cos(x)
    return sx ** (lam - n) * sum(ck * cx**k * sx ** (n - k) for k, ck in enumerate(c))


def _elliptic_psi(model, a, c, xs):
    ce, de = (to_complex(e).real for e in model.prefactor_exponents(a.pole_residues))
    sn, cn, dn = sn_cn_dn(xs, model.m)
    return (cn + 0j) ** ce * dn**de * poly_eval(c, sn)


def _khare_mandal_psi(model, a, c, xs):
    ps, pc = (int(e) for e in model.prefactor_exponents(a.pole_residues))
    z = np.asarray(xs, dtype=complex)
    t = np.cosh(2 * z)
    return (np.sinh(z) ** ps * np.cosh(z) ** pc
            * np.exp(to_complex(a.a0) * t) * poly_eval(c, t))


REFERENCE_PSI = ((HydrogenModel, _hydrogen_psi), (TwoWallJacobiModel, _two_wall_psi),
                 (ScarfPeriodicModel, _periodic_psi), (AssociatedLameModel, _elliptic_psi),
                 (KhareMandalModel, _khare_mandal_psi))


@pytest.mark.parametrize("mid,params", ALL_CONFIGS)
def test_the_assembler_matches_each_family_closed_form(mid, params):
    model = get_model(mid, **params)
    reference = next(f for cls, f in REFERENCE_PSI if isinstance(model, cls))
    lo, hi = model.x_window()
    xs = np.linspace(lo, hi, 203)[1:-1]
    for sol in solve_spectrum(model).solutions:
        want = reference(model, sol.assignment, sol.polynomial.coeffs, xs)
        got = np.asarray(sol.recipe(xs), dtype=complex)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestParity:
    def test_lame_ground_state_is_even_about_the_cell_center(self):
        model = get_model("lame", j=2, m=HALF)
        ground = solve_spectrum(model, levels=6).solutions[0]
        center = sum(model.x_window()) / 2
        assert parity_deviation(ground.recipe, center, 1.0, "even") < 1e-12
        assert parity_deviation(ground.recipe, center, 1.0, "odd") > 1.0

    def test_alternating_parity_up_the_lame_tower(self):
        model = get_model("lame", j=2, m=HALF)
        spectrum = solve_spectrum(model, levels=6)
        center = sum(model.x_window()) / 2
        # sn is even about the half-period, so only the cn exponent flips
        # sign there and the edge states alternate parity strictly
        expected = ["even", "odd", "even", "odd", "even"]
        for sol, par in zip(spectrum.solutions, expected):
            assert parity_deviation(sol.recipe, center, 1.0, par) < 1e-10


class TestVerify:
    def test_records_one_scored_check_per_solved_level(self):
        model = get_model("hydrogen", e2=2, l=0)
        outcome = verify(model, levels=3)
        assert outcome.passed and outcome.tol == model.verify_tol
        assert [c.oracle_index for c in outcome.checks] == [0, 1, 2]
        for check in outcome.checks:
            assert check.passed and check.gap <= outcome.tol
            assert check.report.overlap >= 1 - 1e-3
            assert check.oracle_energy == pytest.approx(
                float(check.solution.energy), abs=outcome.tol)

    def test_tolerance_override_fails_every_level(self):
        # a tolerance below every level's gap fails every level
        model = get_model("hydrogen", e2=2, l=0)
        tol = 0.5 * min(c.gap for c in verify(model, levels=2).checks)
        outcome = verify(model, levels=2, tol=tol)
        assert outcome.tol == tol and not outcome.passed
        assert not any(c.passed for c in outcome.checks)

    def test_bent_contour_levels_score_their_eigenfunctions(self):
        outcome = verify(get_model("khare_mandal", zeta=Fraction(1, 4), M=3))
        assert outcome.passed and outcome.checks
        for check in outcome.checks:
            assert check.report is not None
            assert check.report.overlap >= 1 - 1e-3

    def test_no_sample_sits_where_odd_edges_vanish(self):
        # odd edges vanish at x = 0 and L/2; a sample there can pick up a
        # rounding-size mixture of the pair near E = 9.105 (3e-4 apart) that
        # crosses the node-count floor
        model = get_model("assoc_lame_qes", a=Fraction(1, 4), b=Fraction(-15, 4),
                          m=Fraction(1, 8))
        result = verify(model)
        assert result.passed
        assert all(c.report.oracle_nodes is not None for c in result.checks)
        lo, hi = model.x_window()
        xs = solve_band_edges(model, k=5).xs
        for wall in (lo, 0.5 * (lo + hi), hi):
            assert np.min(np.abs(xs - wall)) > 1e-4 * (hi - lo)

    def test_near_degenerate_pair_keeps_its_node_counts(self):
        # the pair at E = 15.87043 (gap 1e-5) has 4 and 3 nodes on the cell;
        # real eigenvectors keep them apart, so each matches its own recipe
        model = get_model("assoc_lame_qes", a=Fraction(90, 97), b=Fraction(298, 97),
                          m=Fraction(1, 7))
        result = verify(model)
        assert result.passed
        tops = [c.solution.energy for c in result.checks]
        oracle = solve_oracle(model, k=len(tops) + 2,
                              emax=max(to_complex(e).real for e in tops) + 0.5)
        counts = [(count_nodes(oracle.eigenvectors[:, c.oracle_index]),
                   count_nodes(c.solution.recipe(oracle.xs))) for c in result.checks]
        assert all(a == b for a, b in counts)
        assert sorted(counts)[-2:] == [(3, 3), (4, 4)]
