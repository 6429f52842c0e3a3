"""Pencil assembly, eigenvalue extraction, and spectrum bookkeeping.

Expected energies are frozen from hand-checked closed forms (delta terms
below); the grid oracle cross-checks the same numbers independently in the
acceptance suite.
"""

import math
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from qhj import (NonlinearEnergyError, QhjError, enumerate_assignments,
                 get_model, quantize)
from qhj.polynomial_system import (PolynomialOnT, _identity_parts,
                                   _kernel_vectors, _poly_parity,
                                   build_fixed_system, build_pencil,
                                   closed_form_check, closed_form_deviation,
                                   solve_pencil, solve_spectrum)

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


_small = st.floats(-3.0, 3.0)
_complex = st.builds(complex, _small, _small)


class TestIdentityParts:
    @settings(max_examples=200, deadline=None)
    @given(locs=st.lists(_complex, min_size=1, max_size=4),
           data=st.data(),
           a0=st.one_of(_small.map(complex), _complex))
    def test_matches_the_pairwise_definition(self, locs, data, a0):
        bvals = data.draw(st.lists(st.one_of(_small.map(complex), _complex),
                                   min_size=len(locs), max_size=len(locs)))
        model = SimpleNamespace(fixed_poles=lambda: tuple(
            SimpleNamespace(label="p%d" % i, location=t) for i, t in enumerate(locs)))
        residues = {"p%d" % i: b for i, b in enumerate(bvals)}
        got = _identity_parts(model, residues, a0)
        for mine, ref in zip(got, _pairwise_identity(locs, bvals, a0)):
            width = max(len(mine), len(ref))
            mine, ref = (np.pad(np.asarray(c, dtype=complex), (0, width - len(c)))
                         for c in (mine, ref))
            assert np.max(np.abs(mine - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


class TestFixedSystem:
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

    def test_kernel_vector_reproduces_the_node_polynomial_degree(self):
        model = get_model("scarf1", A=2, B=HALF, alpha=1)
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
        name, idx = closed_form_check(model, sol)[:2]
        assert name == family
        assert tuple(np.real_if_close(idx)) == pytest.approx(indices)
        for sol in result.solutions:
            assert closed_form_deviation(model, sol) < 1e-9

    def test_complex_indices_for_the_pt_well(self):
        model = get_model("complex_scarf", A=1, B=2)
        result = solve_spectrum(model, levels=6)
        idx0 = closed_form_check(model, result.solutions[0])[1]
        idx1 = closed_form_check(model, result.solutions[1])[1]
        assert complex(idx0[1]) == pytest.approx(
            complex(idx1[1]).conjugate(), abs=1e-12)
        for sol in result.solutions:
            assert closed_form_deviation(model, sol) < 1e-9

    def test_elliptic_models_have_no_classical_twin(self):
        model = get_model("lame", j=2, m=HALF)
        result = solve_spectrum(model, levels=6)
        assert closed_form_check(model, result.solutions[0]) is None


class TestSmallHelpers:
    def test_polynomial_on_t_evaluates_by_horner(self):
        poly = PolynomialOnT((1.0, 0.0, -2.0), "even")
        assert poly(0.5) == pytest.approx(0.5)
        assert poly.parity == "even"

    def test_parity_labels(self):
        assert _poly_parity([1.0, 0.0, 3.0]) == "even"
        assert _poly_parity([0.0, 2.0]) == "odd"
        assert _poly_parity([1.0, 1.0]) == "none"

    def test_kernel_of_singular_matrix(self):
        mat = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        (vec,) = _kernel_vectors(mat)
        assert np.abs(mat @ vec).max() < 1e-12
