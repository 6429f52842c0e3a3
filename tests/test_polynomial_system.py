"""Pencil assembly, eigenvalue extraction, and spectrum bookkeeping.

Expected energies are frozen from hand-checked closed forms (delta terms
below); the grid oracle cross-checks the same numbers independently in the
acceptance suite.
"""

import cmath
import math
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from qhj import (NoAdmissibleAssignmentError, NonlinearEnergyError, QhjError,
                 enumerate_assignments, get_model, polynomial_system, quantize)
from qhj.exactmath import ExactComplex, as_exact, poly_add, poly_mul, to_complex
from qhj.polynomial_system import (PolynomialOnT, _kernel_vectors, _pole_sums,
                                   build_fixed_system, build_pencil,
                                   closed_form_deviation, solve_pencil,
                                   solve_spectrum)
from qhj.potential_catalog import MODEL_IDS, PotentialModel
from test_acceptance import ALL_CONFIGS
from test_catalog import schema_points

HALF = Fraction(1, 2)


def _admissible(model):
    return {a.set_label: a for a in enumerate_assignments(model)
            if a.admissible}


def _energies(result):
    return [s.energy for s in result.solutions]


class TestPencilAssembly:
    def test_lame_overflow_rows_vanish(self):
        model = get_model("lame", j=2, m=HALF)
        for a in _admissible(model).values():
            system = build_pencil(model, a)
            assert system.overflow_magnitude() < 1e-10

    def test_lame_set1_block_shape_and_roots(self):
        model = get_model("lame", j=2, m=HALF)
        system = build_pencil(model, _admissible(model)[1])
        assert system.basis == (0, 2)
        assert system.M0.shape == (2, 2) and system.M1.shape == (2, 2)
        roots = sorted(e.real for e, _, _ in solve_pencil(system))
        assert roots == pytest.approx([0.0, 2 * math.sqrt(3)], abs=1e-10)

    def test_km_set1_two_by_two_eigenvalues(self):
        zeta = Fraction(1, 4)
        model = get_model("khare_mandal", zeta=zeta, M=3)
        system = build_pencil(model, _admissible(model)[1])
        assert system.basis == (0, 1)
        roots = sorted(e.real for e, _, _ in solve_pencil(system))
        z = float(zeta)
        gap = 2 * math.sqrt(1 - 4 * z * z)
        assert roots == pytest.approx([7 - z * z - gap, 7 - z * z + gap],
                                      abs=1e-10)

    def test_energy_dependent_sets_refuse_the_pencil(self):
        for mid, params in [("hydrogen", dict(e2=2, l=0)),
                            ("scarf1", dict(A=2, B=HALF, alpha=1))]:
            model = get_model(mid, **params)
            for a in _admissible(model).values():
                with pytest.raises(NonlinearEnergyError):
                    build_pencil(model, a)


class TestSafetyChecks:
    """Inconsistent residue data must be refused, not solved."""

    def _set1(self, **residues):
        model = get_model("lame", j=2, m=HALF)
        a = _admissible(model)[1]
        return model, replace(a, pole_residues={**a.pole_residues, **residues})

    def test_wrong_branch_leaves_a_division_remainder(self):
        model, bad = self._set1(**{"t=+1": HALF})
        with pytest.raises(QhjError, match="division .* is not exact"):
            build_pencil(model, bad)

    def test_wrong_branch_pair_leaves_overflow_rows(self):
        model, bad = self._set1(**{"t=+1": Fraction(3, 4), "t=-1": Fraction(3, 4)})
        with pytest.raises(QhjError, match="overflow rows .* do not vanish"):
            build_pencil(model, bad)


def _pairwise_identity(locs, bvals, a0):
    """(Π, NS, Π²R − Π²G) summed term by term from the pole expansion of S and R."""
    pi = P.polyfromroots(locs)
    deleted = [P.polyfromroots(locs[:i] + locs[i + 1:]) for i in range(len(locs))]
    ns = 2 * a0 * pi
    r = a0 ** 2 * P.polymul(pi, pi)
    for i, (b, d) in enumerate(zip(bvals, deleted)):
        ns = P.polyadd(ns, 2 * b * d)
        r = P.polyadd(r, (b * b - b) * P.polymul(d, d))
        r = P.polyadd(r, 2 * a0 * b * P.polymul(d, pi))
        for bk, dk in zip(bvals[i + 1:], deleted[i + 1:]):
            r = P.polyadd(r, 2 * b * bk * P.polymul(d, dk))
    return pi, ns, r


_small = st.fractions(-3, 3, max_denominator=8)


class _Declared(PotentialModel):
    """A model that declares only Πclear's roots, with G = 0."""

    def __init__(self, poles):
        super().__init__()
        self.poles = poles

    def g_declaration(self):
        return self.poles, (0,), (0,)


def _is_exact(poly):
    return all(isinstance(c, (Fraction, ExactComplex)) for c in poly)


class TestIdentityParts:
    @settings(max_examples=200, deadline=None)
    @given(roots=st.lists(_small, min_size=1, max_size=4, unique=True), data=st.data(),
           a0=st.one_of(_small, st.builds(ExactComplex, _small, _small)))
    def test_group_build_matches_the_pairwise_definition(self, roots, data, a0):
        # a root r is a single pole at r or the pair ±√r; no two locations coincide
        paired = data.draw(st.lists(st.booleans(), min_size=len(roots), max_size=len(roots)))
        singles = [r for r, pair in zip(roots, paired) if not pair or r == 0]
        if len(singles) < len(roots):     # a pair reads an even Πclear²: singles at ±r or 0
            singles = sorted({sign * r for r in singles for sign in (1, -1)})
        pairs = [q for q, pair in zip(roots, paired)
                 if pair and q != 0 and all(t0 * t0 != q for t0 in singles)]
        poles, locs, bvals = [], [], []
        for i, t0 in enumerate(singles):
            poles.append(("s%d" % i, t0))
            locs.append(complex(t0))
            bvals.append(data.draw(_small))
        for i, q in enumerate(pairs):        # a pair's two labels carry one residue
            poles.append((("q%d+" % i, "q%d-" % i), q))
            locs += [cmath.sqrt(q), -cmath.sqrt(q)]
            bvals += [data.draw(_small)] * 2
        model = _Declared(tuple(poles))
        labels = [label for group in model.g_polynomials()[1] for label in group[0]]
        s, sq = _pole_sums(model, dict(zip(labels, bvals)), a0)
        got = (model.g_polynomials()[0], [2 * c for c in s],
               poly_add(poly_mul(s, s), [-c for c in sq]))
        ref = _pairwise_identity(locs, [complex(b) for b in bvals], to_complex(a0))
        for mine, want in zip(got, ref):
            mine = np.array([to_complex(c) for c in mine])
            width = max(len(mine), len(want))
            mine, want = (np.pad(c, (0, width - len(c))) for c in (mine, want))
            assert np.max(np.abs(mine - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
        # no surd: rational poles and residues give an exact identity
        assert all(_is_exact(poly) for poly in got)

    def test_a_pair_beside_uneven_single_poles_is_refused(self):
        # Πclear = (t − 7/3)(t − 5/2)(t² + 1) is neither even nor odd, so the
        # pair's strength cannot be read in t² = q (it was 0/0 before the check)
        model = _Declared((("s0", Fraction(7, 3)), ("s1", Fraction(5, 2)),
                           (("q0+", "q0-"), -1)))
        with pytest.raises(QhjError, match="_Declared declares a pole pair"):
            model.g_polynomials()


def _rounded_identities(model):
    """(assignment, polynomials) per pencil set or closed-form level: every
    identity polynomial its rows are rounded from."""
    calls, rows = [], polynomial_system._rows

    def spy(basis, *polys, **energy_part):
        calls[-1][1].extend((*polys, *energy_part.values()))
        return rows(basis, *polys, **energy_part)

    outcome = quantize(model, levels=6)
    with mock.patch.object(polynomial_system, "_rows", spy):
        for a in outcome.admissible_sets() if model.uses_pencil else outcome.levels:
            calls.append((a, []))
            (build_pencil if model.uses_pencil else build_fixed_system)(model, a)
    return calls


def _assert_identities_are_exact(model):
    # complex_scarf's residues, and so its energies, are floats where a
    # discriminant is no rational square; every other input is exact
    for a, polys in _rounded_identities(model):
        inexact = [v for v in (*a.pole_residues.values(), a.energy)
                   if v is not None and as_exact(v) is None]
        assert not inexact or model.id == "complex_scarf"
        assert len(polys) >= 3
        assert all(_is_exact(poly) for poly in polys) == (not inexact)


@pytest.mark.parametrize("mid,params", ALL_CONFIGS)
def test_identity_polynomials_are_exact_at_catalog_points(mid, params):
    _assert_identities_are_exact(get_model(mid, **params))


@pytest.mark.parametrize("mid", MODEL_IDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_identity_polynomials_are_exact_over_the_whole_schema(mid, data):
    model = get_model(mid, **data.draw(schema_points(mid)))
    try:
        quantize(model)
    except NoAdmissibleAssignmentError:
        return
    _assert_identities_are_exact(model)


_CLOSED_FORM_CONFIGS = [(mid, params) for mid, params in ALL_CONFIGS
                        if not get_model(mid, **params).uses_pencil]


def _assert_back_substitution_matches_a_dense_solve(model):
    for a in quantize(model, levels=6).levels:
        sq, basis = build_fixed_system(model, a)
        got = polynomial_system._back_substitute(sq, basis)
        block = np.array(sq)
        dense = np.zeros(len(got), dtype=complex)
        dense[list(basis)] = np.append(np.linalg.solve(block[:-1, :-1], -block[:-1, -1]), 1)
        for mine, want in zip(got, dense):
            if np.isfinite(mine) and np.isfinite(want):
                assert abs(mine - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("mid,params", _CLOSED_FORM_CONFIGS)
def test_back_substitution_matches_a_dense_solve_at_catalog_points(mid, params):
    _assert_back_substitution_matches_a_dense_solve(get_model(mid, **params))


@pytest.mark.parametrize("mid", sorted({mid for mid, _ in _CLOSED_FORM_CONFIGS}))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_back_substitution_matches_a_dense_solve_over_the_whole_schema(mid, data):
    model = get_model(mid, **data.draw(schema_points(mid)))
    try:
        quantize(model)
    except NoAdmissibleAssignmentError:
        return
    _assert_back_substitution_matches_a_dense_solve(model)


class TestFixedSystem:
    def test_rows_above_the_degree_vanish_exactly_when_the_identity_is_exact(self):
        model = get_model("hydrogen", e2=2, l=0)
        level = quantize(model, levels=3).levels[2]
        slipped = level.energy + Fraction(1, 10**12)
        with pytest.raises(QhjError, match="rows above the node-polynomial degree"):
            build_fixed_system(model, level, energy=slipped)
        # float residues (complex_scarf) leave rounding noise, so floats keep a tolerance
        sq, basis = build_fixed_system(model, level, energy=float(slipped))
        assert basis == (0, 1, 2)

    def test_square_block_is_singular_only_at_the_level_energy(self):
        model = get_model("scarf1", A=2, B=HALF, alpha=1)
        level1 = quantize(model, levels=2).levels[1]
        sq, basis = build_fixed_system(model, level1)
        assert basis == (0, 1)
        s_right = np.linalg.svd(sq, compute_uv=False)
        assert s_right[-1] <= 1e-10 * s_right[0]
        sq_bad, _ = build_fixed_system(model, level1, energy=7.0)
        s_wrong = np.linalg.svd(sq_bad, compute_uv=False)
        assert s_wrong[-1] > 1e-3 * s_wrong[0]

    @pytest.mark.parametrize("mid,params", [
        ("scarf1", dict(A=2, B=HALF, alpha=1)),
        # slope e2/(2(n+l+1)) puts the low coefficients 1e-9 below p_n
        ("hydrogen", dict(e2=Fraction(1, 1000), l=5)),
    ])
    def test_kernel_vector_reproduces_the_node_polynomial_degree(self, mid, params):
        model = get_model(mid, **params)
        result = solve_spectrum(model, levels=3)
        for n, sol in enumerate(result.solutions):
            coeffs = np.asarray(sol.polynomial.coeffs)
            assert len(coeffs) == n + 1
            assert coeffs[-1] == pytest.approx(1.0)  # leading-normalized


class TestSpectra:
    def test_lame_j2_five_edges(self):
        delta = math.sqrt(3) / 2
        expected = [0.0, 2 * delta - 1.5, 2 * delta, 2 * delta + 1.5,
                    4 * delta]
        result = solve_spectrum(get_model("lame", j=2, m=HALF), levels=6)
        assert [float(np.real(e)) for e in _energies(result)] == pytest.approx(
            expected, abs=1e-10)
        assert [s.bc_class for s in result.solutions] == [
            "periodic", "antiperiodic", "antiperiodic", "periodic", "periodic"]
        assert [(s.assignment.set_label, s.assignment.n)
                for s in result.solutions] == [(1, 2), (4, 0), (3, 1), (2, 1),
                                               (1, 2)]
        assert all(s.degeneracy == 1 for s in result.solutions)

    @pytest.mark.parametrize("j,count", [(1, 3), (2, 5), (3, 7), (4, 9),
                                         (5, 11)])
    def test_lame_distinct_edge_count(self, j, count):
        result = solve_spectrum(get_model("lame", j=j, m=HALF), levels=2 * j)
        assert len(result.solutions) == count

    def test_lame_j3_band_classes_alternate_in_pairs(self):
        result = solve_spectrum(get_model("lame", j=3, m=HALF), levels=8)
        tags = [s.bc_class[0].upper() for s in result.solutions]
        assert tags == ["P", "A", "A", "P", "P", "A", "A"]
        assert float(np.real(result.solutions[3].energy)) == pytest.approx(
            6.0, abs=1e-10)

    def test_associated_es_j1(self):
        result = solve_spectrum(get_model("assoc_lame_es", j=1, m=HALF),
                                levels=6)
        root2 = math.sqrt(2)
        assert [float(np.real(e)) for e in _energies(result)] == pytest.approx(
            [0.0, 2 * root2, root2 + 1.5], abs=1e-10)

    def test_qes_degenerate_pair_kept_with_rank_two(self):
        model = get_model("assoc_lame_qes", a=Fraction(7, 2), b=HALF, m=HALF)
        result = solve_spectrum(model, levels=8)
        d9 = math.sqrt(25 * 0.25 - 2 + 4)
        assert [float(np.real(e)) for e in _energies(result)] == pytest.approx(
            [0.0, d9 + 1.5, 2 * d9, 10.5 + d9, 10.5 + d9], abs=1e-10)
        top = result.solutions[-2:]
        assert {s.assignment.set_label for s in top} == {2, 4}
        assert all(s.degeneracy == 2 for s in top)
        assert all(s.degeneracy == 1 for s in result.solutions[:-2])

    def test_degenerate_pairs_share_one_energy_in_set_order(self):
        # three pencil pairs of sets 2 (n 5) and 4 (n 6) agree to float noise
        # only; each pair prints one energy, set 2 first
        model = get_model("assoc_lame_qes", a=Fraction(5, 2), b=Fraction(7, 2),
                          m=Fraction(30, 31))
        pairs = [s for s in solve_spectrum(model).solutions if s.degeneracy == 2]
        assert [(s.assignment.set_label, s.assignment.n) for s in pairs] == [(2, 5), (4, 6)] * 3
        assert [float(np.real(s.energy)) for s in pairs[::2]] == pytest.approx(
            [17.5179230045, 21.1635376083, 25.7862813227], abs=1e-9)
        assert all(first.energy == second.energy
                   for first, second in zip(pairs[::2], pairs[1::2]))

    def test_km_m3_level_set(self):
        z = 0.25
        result = solve_spectrum(
            get_model("khare_mandal", zeta=Fraction(1, 4), M=3), levels=6)
        gap = 2 * math.sqrt(1 - 4 * z * z)
        assert [complex(e).real for e in _energies(result)] == pytest.approx(
            [5 - z * z, 7 - z * z - gap, 7 - z * z + gap], abs=1e-10)
        assert all(abs(complex(e).imag) < 1e-12 for e in _energies(result))

    def test_band_edges_carry_exponent_channel_tags(self):
        result = solve_spectrum(get_model("scarf_periodic", s=Fraction(3, 10)),
                                levels=2)
        assert _energies(result) == [Fraction(1, 25), Fraction(16, 25),
                                     Fraction(36, 25), Fraction(81, 25)]
        assert [s.bc_class for s in result.solutions] == [
            "exponent_minus", "exponent_plus", "exponent_minus",
            "exponent_plus"]

    def test_pt_pair_energies_are_conjugate(self):
        result = solve_spectrum(get_model("complex_scarf", A=1, B=2), levels=6)
        e0, e1 = [complex(e) for e in _energies(result)]
        assert e0 == e1.conjugate()
        assert e0.real == pytest.approx(0.026387818865997253, abs=1e-12)
        assert abs(e0.imag) == pytest.approx(0.3476120479075805, abs=1e-12)


class TestClosedFormCrossChecks:
    @pytest.mark.parametrize("mid,params,family,indices", [
        ("hydrogen", dict(e2=2, l=0), "laguerre", (1,)),
        ("scarf1", dict(A=2, B=HALF, alpha=1), "jacobi", (2.0, 1.0)),
        ("scarf_periodic", dict(s=Fraction(3, 2)), "jacobi", (-2.0, -2.0)),
    ])
    def test_kernel_matches_classical_polynomials(self, mid, params, family,
                                                  indices):
        model = get_model(mid, **params)
        result = solve_spectrum(model, levels=3)
        sol = result.solutions[0]
        name, idx = model.classical_polynomial(sol.assignment)[:2]
        assert name == family
        assert tuple(np.real_if_close(idx)) == pytest.approx(indices)
        for sol in result.solutions:
            assert closed_form_deviation(model, sol) < 1e-9

    def test_complex_indices_for_the_pt_well(self):
        model = get_model("complex_scarf", A=1, B=2)
        result = solve_spectrum(model, levels=6)
        idx0 = model.classical_polynomial(result.solutions[0].assignment)[1]
        idx1 = model.classical_polynomial(result.solutions[1].assignment)[1]
        assert complex(idx0[1]) == pytest.approx(
            complex(idx1[1]).conjugate(), abs=1e-12)
        for sol in result.solutions:
            assert closed_form_deviation(model, sol) < 1e-9

    def test_elliptic_models_have_no_classical_twin(self):
        model = get_model("lame", j=2, m=HALF)
        result = solve_spectrum(model, levels=6)
        assert model.classical_polynomial(result.solutions[0].assignment) is None


class TestSmallHelpers:
    def test_polynomial_on_t_evaluates_by_horner(self):
        assert PolynomialOnT((1.0, 0.0, -2.0))(0.5) == pytest.approx(0.5)

    def test_kernel_of_singular_matrix(self):
        mat = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        (vec,) = _kernel_vectors(mat)
        assert np.abs(mat @ vec).max() < 1e-12
