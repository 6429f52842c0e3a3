"""End-to-end acceptance gate: one test (and one summary line) per criterion.

Every criterion pits the residue pipeline against an independent route:
exact rational arithmetic against analytic spectra, and assembled
wavefunctions against grid diagonalization.  Tolerances are fixed here and
must not be loosened to make a failing criterion pass.
"""

import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from conftest import ACCEPTANCE_RESULTS
from qhj import (QES_RELATIONS, enumerate_assignments, get_model, qes_family,
                 quantize)
from qhj.exactmath import to_complex
from qhj.polynomial_system import solve_spectrum
from qhj.qmf_residues import finite_pole_residues
from qhj.schrodinger_oracle import (solve_band_edges, solve_bound,
                                    solve_inverse_square_cell, solve_pt)
from qhj.special_functions import elliptic_K, sn_cn_dn
from qhj.wavefunction_assembly import overlap, verify_against_oracle

HALF = Fraction(1, 2)

EXACT_TOL = 1e-10          # algebraic energies vs analytic closed forms
ORACLE_TOL_BOUND = 2e-4    # Coulomb / trigonometric wells vs collocation
ORACLE_TOL_BAND = 5e-4     # band edges vs cell diagonalization
ORACLE_TOL_PT = 1e-3       # complex spectra vs non-Hermitian collocation
OVERLAP_TOL = 1e-6         # eigenfunction overlap shortfall

# every model configuration exercised by the sweep criteria
ALL_CONFIGS = [
    ("hydrogen", dict(e2=2, l=0)),
    ("hydrogen", dict(e2=2, l=1)),
    ("scarf1", dict(A=2, B=HALF, alpha=1)),
    ("scarf1", dict(A=2, B=-3, alpha=1)),
    ("scarf_periodic", dict(s=Fraction(3, 10))),
    ("scarf_periodic", dict(s=Fraction(3, 2))),
    ("lame", dict(j=2, m=HALF)),
    ("assoc_lame_es", dict(j=1, m=HALF)),
    ("assoc_lame_qes", dict(a=2, b=1, m=HALF)),
    ("assoc_lame_qes", dict(a=Fraction(7, 2), b=HALF, m=HALF)),
    ("khare_mandal", dict(zeta=Fraction(1, 4), M=3)),
    ("khare_mandal", dict(zeta=Fraction(1, 4), M=2)),
    ("complex_scarf", dict(A=1, B=HALF)),
    ("complex_scarf", dict(A=1, B=2)),
]


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        ACCEPTANCE_RESULTS.append((num, label, "FAIL"))
        print("criterion %d: %s FAIL" % (num, label))
        raise
    else:
        ACCEPTANCE_RESULTS.append((num, label, "PASS"))
        print("criterion %d: %s PASS" % (num, label))


def _match_oracle_levels(result, oracle, tol):
    """Pair each solved energy with the nearest oracle eigenvalue index."""
    pairs = []
    for sol in result.solutions:
        e = to_complex(sol.energy)
        gaps = [abs(e - complex(o)) for o in oracle.eigenvalues]
        idx = int(np.argmin(gaps))
        assert gaps[idx] <= tol, (
            "energy %s is %.3e away from the closest oracle level"
            % (e, gaps[idx]))
        pairs.append((sol, idx))
    return pairs


def test_criterion_1_coulomb():
    with criterion(1, "Coulomb: exact rationals, oracle, Laguerre profiles"):
        for l in (0, 1):
            model = get_model("hydrogen", e2=2, l=l)
            out = quantize(model, levels=4)
            for n, level in enumerate(out.levels):
                expected = (Fraction(1, (l + 1) ** 2)
                            - Fraction(1, (n + l + 1) ** 2))
                assert level.energy == expected  # exact rational equality
            result = solve_spectrum(model, levels=4)
            oracle = solve_bound(model, k=4)
            for n, (sol, idx) in enumerate(
                    _match_oracle_levels(result, oracle, ORACLE_TOL_BOUND)):
                assert idx == n
                kappa = 1.0 / (n + l + 1)
                xs = oracle.xs
                reference = (xs ** (l + 1) * np.exp(-kappa * xs)
                             * eval_genlaguerre(n, 2 * l + 1, 2 * kappa * xs))
                vals = np.asarray(sol.recipe(xs), dtype=complex)
                assert overlap(vals, reference) >= 1 - OVERLAP_TOL


def test_criterion_2_trigonometric_well():
    with criterion(2, "trigonometric well: both phases, residue picks, oracle"):
        phases = [
            (HALF, {"t=+1": Fraction(3, 2), "t=-1": Fraction(1)},
             [Fraction((2 + n) ** 2 - 4) for n in range(4)]),
            (-3, {"t=+1": Fraction(5, 4), "t=-1": Fraction(11, 4)},
             [Fraction(2 * n + 7, 2) ** 2 - 4 for n in range(4)]),
        ]
        for b_param, picks, energies in phases:
            model = get_model("scarf1", A=2, B=b_param, alpha=1)
            sets = [a for a in enumerate_assignments(model) if a.admissible]
            assert len(sets) == 1
            assert sets[0].pole_residues == picks
            out = quantize(model, levels=4)
            assert [lev.energy for lev in out.levels] == energies
            result = solve_spectrum(model, levels=4)
            oracle = solve_bound(model, k=4)
            for n, (sol, idx) in enumerate(
                    _match_oracle_levels(result, oracle, ORACLE_TOL_BOUND)):
                assert idx == n


def test_criterion_3_periodic_inverse_square():
    with criterion(3, "inverse-square cell: both phases vs channel oracle"):
        s = Fraction(3, 10)
        model = get_model("scarf_periodic", s=s)
        labels = {a.set_label: a for a in enumerate_assignments(model)}
        # the (1 + λ)/2 branch is refused at every point and is not enumerated
        assert sorted(labels) == [1, 2]
        assert labels[1].admissible and labels[2].admissible
        result = solve_spectrum(model, levels=4)
        expected = sorted((Fraction(n) + HALF + sgn * s) ** 2
                          for n in range(4) for sgn in (+1, -1))
        assert [sol.energy for sol in result.solutions] == expected
        oracle = solve_inverse_square_cell(model, k=4)
        for sol, idx in _match_oracle_levels(result, oracle, ORACLE_TOL_BAND):
            pass

        bound = get_model("scarf_periodic", s=Fraction(3, 2))
        bres = solve_spectrum(bound, levels=4)
        assert [sol.energy for sol in bres.solutions] == [
            Fraction((n + 2) ** 2) for n in range(4)]
        boracle = solve_inverse_square_cell(bound, k=4)
        for n, (sol, idx) in enumerate(
                _match_oracle_levels(bres, boracle, ORACLE_TOL_BAND)):
            assert idx == n


def test_criterion_4_elliptic_band_edges():
    with criterion(4, "elliptic sn^2: five exact edges, count, level pattern"):
        for m in (Fraction(1, 10), HALF, Fraction(9, 10)):
            mf = float(m)
            delta = math.sqrt(1 - mf + mf * mf)
            expected = [0.0, 2 * delta - mf - 1, 2 * delta + 2 * mf - 1,
                        2 * delta - mf + 2, 4 * delta]
            model = get_model("lame", j=2, m=m)
            result = solve_spectrum(model, levels=6)
            got = [to_complex(sol.energy).real for sol in result.solutions]
            assert len(got) == 5
            assert got == pytest.approx(expected, abs=EXACT_TOL)
            oracle = solve_band_edges(model, k=5)
            assert list(oracle.eigenvalues) == pytest.approx(
                expected, abs=ORACLE_TOL_BAND)
        for j in range(1, 6):
            model = get_model("lame", j=j, m=HALF)
            pattern = [a.n for a in enumerate_assignments(model)
                       if a.admissible]
            assert pattern == [n for n in (j, j - 1, j - 1, j - 2) if n >= 0]
            assert len(solve_spectrum(model, levels=2 * j).solutions) == 2 * j + 1


def test_criterion_5_associated_elliptic_es():
    with criterion(5, "associated elliptic ES slice: energies and profiles"):
        m = HALF
        model = get_model("assoc_lame_es", j=1, m=m)
        result = solve_spectrum(model, levels=6)
        mf = float(m)
        expected = [0.0, 4 * math.sqrt(1 - mf), 2 - mf + 2 * math.sqrt(1 - mf)]
        got = [to_complex(sol.energy).real for sol in result.solutions]
        assert got == pytest.approx(expected, abs=EXACT_TOL)
        top = max(got)
        oracle = solve_band_edges(model, k=3, emax=top + 0.5)
        for sol, idx in _match_oracle_levels(result, oracle, ORACLE_TOL_BAND):
            report = verify_against_oracle(sol.recipe, oracle, idx)
            assert report.overlap >= 1 - OVERLAP_TOL


def test_criterion_6_associated_elliptic_qes():
    with criterion(6, "associated elliptic QES: relations, tables, degeneracy"):
        assert QES_RELATIONS == ("b - a = -n - 2", "a + b + 1 = n + 2",
                                 "b - a = -n - 1", "a + b = n")
        mf = 0.5

        model21 = get_model("assoc_lame_qes", a=2, b=1, m=HALF)
        result21 = solve_spectrum(model21, levels=8)
        expected21 = sorted([0.0,
                             5 - 3 * mf - 2 * math.sqrt(4 - 3 * mf),
                             5 - 3 * mf + 2 * math.sqrt(4 - 3 * mf),
                             5 - 2 * mf - 2 * math.sqrt(mf * mf - 5 * mf + 4),
                             5 - 2 * mf + 2 * math.sqrt(mf * mf - 5 * mf + 4)])
        got21 = [to_complex(sol.energy).real for sol in result21.solutions]
        assert got21 == pytest.approx(expected21, abs=EXACT_TOL)
        oracle21 = solve_band_edges(model21, k=5, emax=max(got21) + 0.5)
        _match_oracle_levels(result21, oracle21, ORACLE_TOL_BAND)

        model72 = get_model("assoc_lame_qes", a=Fraction(7, 2), b=HALF, m=HALF)
        result72 = solve_spectrum(model72, levels=8)
        d9 = math.sqrt(25 * mf * mf - 4 * mf + 4)
        expected72 = [0.0, d9 - mf + 2, 2 * d9, 14 - 7 * mf + d9,
                      14 - 7 * mf + d9]
        got72 = [to_complex(sol.energy).real for sol in result72.solutions]
        assert got72 == pytest.approx(expected72, abs=EXACT_TOL)
        degens = [sol.degeneracy for sol in result72.solutions]
        assert degens == [1, 1, 1, 2, 2]
        oracle72 = solve_band_edges(model72, k=5, emax=max(got72) + 0.5)
        _match_oracle_levels(result72, oracle72, ORACLE_TOL_BAND)

        family = qes_family("assoc_lame_qes", n=4, a=Fraction(7, 2))
        assert [entry["b"] for entry in family] == [
            Fraction(-5, 2), Fraction(3, 2), Fraction(-3, 2), Fraction(1, 2)]


def test_criterion_7_pt_cosh_pair():
    with criterion(7, "PT cosh pair: real triplets, conjugate pair, parity"):
        for zeta in (Fraction(1, 10), Fraction(1, 4)):
            z = float(zeta)
            model = get_model("khare_mandal", zeta=zeta, M=3)
            labels = {a.set_label: a.admissible
                      for a in enumerate_assignments(model)}
            assert labels == {1: True, 2: True, 3: False, 4: False}
            result = solve_spectrum(model, levels=6)
            gap = 2 * math.sqrt(1 - 4 * z * z)
            expected = sorted([5 - z * z, 7 - z * z - gap, 7 - z * z + gap])
            energies = [to_complex(sol.energy) for sol in result.solutions]
            assert [e.real for e in energies] == pytest.approx(expected,
                                                               abs=EXACT_TOL)
            assert all(abs(e.imag) <= EXACT_TOL for e in energies)
            oracle = solve_pt(model, k=len(energies))
            for e in energies:
                assert min(abs(e - complex(o)) for o in oracle.eigenvalues) \
                    <= ORACLE_TOL_PT

        even = get_model("khare_mandal", zeta=Fraction(1, 4), M=2)
        labels = {a.set_label: a.admissible
                  for a in enumerate_assignments(even)}
        assert labels == {1: False, 2: False, 3: True, 4: True}
        pair = [to_complex(sol.energy)
                for sol in solve_spectrum(even, levels=6).solutions]
        assert len(pair) == 2
        target = complex(3 - 0.0625, 2 * 0.25)
        assert min(abs(e - target) for e in pair) <= EXACT_TOL
        assert min(abs(e - target.conjugate()) for e in pair) <= EXACT_TOL
        assert abs(pair[0] - pair[1].conjugate()) <= 1e-8


def test_criterion_8_pt_scarf_well():
    with criterion(8, "PT Scarf well: real phase with cutoff, broken phase"):
        real_phase = get_model("complex_scarf", A=1, B=HALF)
        out = quantize(real_phase, levels=8)
        assert len(out.levels) == 1  # the admissibility range truncates here
        e0 = to_complex(out.levels[0].energy)
        assert abs(e0.imag) <= 1e-12
        oracle = solve_pt(real_phase, k=1)
        assert min(abs(e0 - complex(o)) for o in oracle.eigenvalues) \
            <= ORACLE_TOL_PT

        broken = get_model("complex_scarf", A=1, B=2)
        result = solve_spectrum(broken, levels=8)
        pair = [to_complex(sol.energy) for sol in result.solutions]
        assert len(pair) == 2
        assert abs(pair[0] - pair[1].conjugate()) <= 1e-12
        assert abs(pair[0].imag) > 0.1  # genuinely broken, not numerically real
        lo, hi = broken.x_window()
        span = hi - lo
        for sol in result.solutions:
            xs = np.linspace(lo + 0.02 * span, hi - 0.02 * span, 801)
            vals = np.abs(np.asarray(sol.recipe(xs), dtype=complex))
            # decaying exponent choice: tails far below the central peak
            assert max(vals[0], vals[-1]) <= 0.05 * vals.max()


def _ode_residual(model, sol):
    """Relative defect of psi'' + (E - V) psi on the support of psi."""
    lo, hi = model.x_window()
    span = hi - lo
    scout_x = np.linspace(lo + 0.02 * span, hi - 0.02 * span, 801)
    scout = np.abs(np.asarray(sol.recipe(scout_x), dtype=complex))
    keep = scout >= 1e-8 * scout.max()
    xlo = max(scout_x[keep][0], lo + 0.1 * span)
    xhi = min(scout_x[keep][-1], hi - 0.1 * span)
    e = to_complex(sol.energy)
    mask = (scout_x >= xlo) & (scout_x <= xhi)
    vmax = np.max(np.abs(e - np.asarray(model.potential(scout_x[mask]),
                                        dtype=complex)))
    h = min(span / 600.0, 0.04 / math.sqrt(1.0 + vmax))
    xs = np.linspace(xlo + 3 * h, xhi - 3 * h, 150)
    weights = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
    samples = [np.asarray(sol.recipe(xs + k * h), dtype=complex)
               for k in range(-3, 4)]
    second = sum(w * s for w, s in zip(weights, samples)) / h ** 2
    term = (e - np.asarray(model.potential(xs), dtype=complex)) * samples[3]
    scale = max(float(np.max(np.abs(second))), float(np.max(np.abs(term))),
                1e-300)
    return float(np.max(np.abs(second + term))) / scale


def test_criterion_9_property_sweep():
    with criterion(9, "properties: exact sums, ODE residuals, identities"):
        for mid, params in ALL_CONFIGS:
            model = get_model(mid, **params)

            # the two branch residues of every finite pole sum exactly to 1
            for pole in model.fixed_poles():
                if pole.slope:
                    continue
                branch = finite_pole_residues(pole)
                total = branch.values[0] + branch.values[1]
                assert to_complex(total) == 1.0 + 0.0j

            # residue sum rule holds exactly on every resolved assignment
            out = quantize(model, levels=3)
            resolved = out.levels or [a for a in out.assignments
                                      if a.admissible]
            assert resolved
            for assignment in resolved:
                gap = assignment.sum_rule_gap()
                assert gap is not None and to_complex(gap) == 0.0 + 0.0j

            # every emitted eigenfunction solves its differential equation
            for sol in solve_spectrum(model, levels=3).solutions:
                assert _ode_residual(model, sol) <= 1e-8

        # elliptic function identities at strict tolerance
        for m in (0.1, 0.5, 0.9):
            for u in np.linspace(-3 * elliptic_K(m), 3 * elliptic_K(m), 61):
                sn, cn, dn = sn_cn_dn(u, m)
                assert abs(sn ** 2 + cn ** 2 - 1) <= 1e-12
                assert abs(dn ** 2 + m * sn ** 2 - 1) <= 1e-12

        # oscillation theorem: node counts rise one by one
        for mid, params in [("scarf1", dict(A=2, B=HALF, alpha=1)),
                            ("hydrogen", dict(e2=2, l=0))]:
            spec = solve_bound(get_model(mid, **params), k=4)
            assert list(spec.node_counts) == [0, 1, 2, 3]
