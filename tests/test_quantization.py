"""Residue branch selection, admissibility filtering, and level counting.

Frozen numbers in this file were derived independently (exact arithmetic on
the quadratic branch pairs and the residue sum rule) and are cross-checked
against the grid oracle in the acceptance tests.
"""

import importlib.util
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhj import (QES_RELATIONS, NoAdmissibleAssignmentError,
                 enumerate_assignments, get_model, qes_family, quantize)
from qhj.errors import EnergyRequiredError
from qhj.exactmath import sqrt, to_complex
from qhj.potential_catalog import MODEL_IDS
from qhj.qmf_residues import InfinityExpansion, finite_pole_residues, infinity_residues
from qhj.quantization import ResidueAssignment, level_verdict
from test_acceptance import ALL_CONFIGS
from test_catalog import schema_points
from test_cli import _load_script


def _by_set(assignments):
    return {a.set_label: a for a in assignments}


class TestHydrogen:
    def test_origin_residue_picks_growing_branch_only(self):
        model = get_model("hydrogen", e2=2, l=0)
        sets = _by_set(enumerate_assignments(model))
        assert sets[1].admissible
        assert sets[1].pole_residues["t=0"] == Fraction(1)
        assert not sets[2].admissible
        assert sets[2].reason == "nonvanishing_at_end"
        assert sets[2].pole_residues["t=0"] == Fraction(0)

    def test_energies_are_exact_rationals(self):
        out = quantize(get_model("hydrogen", e2=2, l=0), levels=4)
        assert [a.energy for a in out.levels] == [
            Fraction(0), Fraction(3, 4), Fraction(8, 9), Fraction(15, 16)]
        out = quantize(get_model("hydrogen", e2=2, l=1), levels=4)
        assert [a.energy for a in out.levels] == [
            Fraction(0), Fraction(5, 36), Fraction(3, 16), Fraction(21, 100)]

    def test_slope_and_exponent_are_exact(self):
        out = quantize(get_model("hydrogen", e2=2, l=0), levels=3)
        assert [a.a0 for a in out.levels] == [
            Fraction(-1), Fraction(-1, 2), Fraction(-1, 3)]
        assert [a.lambda1 for a in out.levels] == [1, 2, 3]


class TestScarfWell:
    def test_exactly_one_admissible_set(self):
        model = get_model("scarf1", A=2, B=Fraction(1, 2), alpha=1)
        sets = _by_set(enumerate_assignments(model))
        assert [s for s in sets if sets[s].admissible] == [1]
        assert sets[1].pole_residues == {"t=+1": Fraction(3, 2),
                                         "t=-1": Fraction(1)}
        for label in (2, 3, 4):
            assert sets[label].reason == "nonvanishing_at_end"

    def test_sign_flip_of_asymmetry_swaps_wall_residues(self):
        plus = _by_set(enumerate_assignments(
            get_model("scarf1", A=2, B=Fraction(1, 2), alpha=1)))[1]
        minus = _by_set(enumerate_assignments(
            get_model("scarf1", A=2, B=Fraction(-1, 2), alpha=1)))[1]
        assert plus.pole_residues["t=+1"] == minus.pole_residues["t=-1"]
        assert plus.pole_residues["t=-1"] == minus.pole_residues["t=+1"]

    def test_frozen_energies_both_phases(self):
        out = quantize(get_model("scarf1", A=2, B=Fraction(1, 2), alpha=1),
                       levels=4)
        assert [a.energy for a in out.levels] == [0, 5, 12, 21]
        out = quantize(get_model("scarf1", A=2, B=-3, alpha=1), levels=4)
        assert [a.energy for a in out.levels] == [
            Fraction(33, 4), Fraction(65, 4), Fraction(105, 4), Fraction(153, 4)]


class TestInverseSquareCell:
    def test_band_phase_keeps_both_wall_exponents(self):
        model = get_model("scarf_periodic", s=Fraction(3, 10))
        sets = _by_set(enumerate_assignments(model))
        # the (1 + λ)/2 branch is refused at every point and is not enumerated
        assert sorted(sets) == [1, 2]
        assert sets[1].admissible and sets[2].admissible
        assert model.spectrum_kind == "band_edge_group"

    def test_bound_phase_keeps_only_normalizable_channel(self):
        model = get_model("scarf_periodic", s=Fraction(3, 2))
        sets = _by_set(enumerate_assignments(model))
        assert sets[1].admissible
        assert sets[2].reason == "nonvanishing_at_end"
        assert model.spectrum_kind == "es_spectrum"

    def test_band_edge_energies_are_exact(self):
        out = quantize(get_model("scarf_periodic", s=Fraction(3, 10)), levels=2)
        energies = sorted(a.energy for a in out.levels)
        assert energies == [Fraction(1, 25), Fraction(16, 25),
                            Fraction(36, 25), Fraction(81, 25)]

    def test_bound_energies_are_squares(self):
        out = quantize(get_model("scarf_periodic", s=Fraction(3, 2)), levels=4)
        assert [a.energy for a in out.levels] == [4, 9, 16, 25]


class TestEllipticFamilies:
    def test_lame_level_pattern(self):
        for j in (1, 2, 3, 4, 5):
            model = get_model("lame", j=j, m=Fraction(1, 2))
            sets = _by_set(enumerate_assignments(model))
            pattern = [sets[k].n for k in (1, 2, 3, 4) if sets[k].admissible]
            expected = [n for n in (j, j - 1, j - 1, j - 2) if n >= 0]
            assert pattern == expected

    def test_lame_raw_level_sum_is_4j(self):
        # Raw level indices sum to 4j; parity filtering inside each set then
        # halves the free coefficients so exactly 2j+1 edges are emitted.
        for j in (1, 2, 3, 4, 5):
            model = get_model("lame", j=j, m=Fraction(1, 2))
            total = sum(a.n + 1 for a in enumerate_assignments(model)
                        if a.admissible)
            assert total == 4 * j

    def test_residue_sum_rule_is_exact(self):
        model = get_model("lame", j=2, m=Fraction(1, 2))
        for a in enumerate_assignments(model):
            if a.admissible:
                assert a.sum_rule_gap() == 0
                assert a.lambda1 == 3            # a + 1

    def test_qes_half_integer_family(self):
        model = get_model("assoc_lame_qes", a=Fraction(7, 2), b=Fraction(1, 2),
                          m=Fraction(1, 2))
        sets = _by_set(enumerate_assignments(model))
        got = {k: (sets[k].pole_residues["t=+1"],
                   sets[k].pole_residues["t=+1/sqrt(m)"], sets[k].n)
               for k in sets if sets[k].admissible}
        assert got == {
            1: (Fraction(3, 4), Fraction(1), 1),
            2: (Fraction(3, 4), Fraction(0), 3),
            3: (Fraction(1, 4), Fraction(1), 2),
            4: (Fraction(1, 4), Fraction(0), 4),
        }

    def test_qes_rejects_non_integer_levels(self):
        with pytest.raises(NoAdmissibleAssignmentError) as err:
            quantize(get_model("assoc_lame_qes", a=2, b=Fraction(1, 2),
                               m=Fraction(1, 2)))
        assert "non_integer_level" in str(err.value)

    def test_mirror_branch_note_is_attached(self):
        out = quantize(get_model("lame", j=2, m=Fraction(1, 2)))
        assert any("mirror" in note for note in out.notes)


class TestQesRelations:
    def test_relation_strings_are_frozen(self):
        assert QES_RELATIONS == ("b - a = -n - 2", "a + b + 1 = n + 2",
                                 "b - a = -n - 1", "a + b = n")

    def test_outcome_carries_the_relations(self):
        out = quantize(get_model("assoc_lame_qes", a=2, b=1, m=Fraction(1, 2)))
        assert out.qes_relations == QES_RELATIONS

    def test_family_enumeration_at_fixed_level(self):
        entries = qes_family("assoc_lame_qes", n=4, a=Fraction(7, 2))
        assert [e["b"] for e in entries] == [
            Fraction(-5, 2), Fraction(3, 2), Fraction(-3, 2), Fraction(1, 2)]
        assert [e["relation"] for e in entries] == list(QES_RELATIONS)
        # representatives collapse onto the b >= -1/2 class b -> -b-1
        classes = {e["potential_class"] for e in entries}
        assert classes == {Fraction(3, 2), Fraction(1, 2)}

    def test_unknown_family_is_rejected(self):
        with pytest.raises(Exception):
            qes_family("lame", n=2, a=2)


class TestPtPair:
    def test_odd_weight_uses_equal_residue_sets(self):
        model = get_model("khare_mandal", zeta=Fraction(1, 4), M=3)
        sets = _by_set(enumerate_assignments(model))
        assert sets[1].admissible and sets[2].admissible
        assert not sets[3].admissible and not sets[4].admissible
        assert (sets[1].n, sets[2].n) == (1, 0)
        assert sets[1].lambda1 == Fraction(3, 2)
        assert to_complex(sets[1].a0) == complex(0.0, 0.125)

    def test_even_weight_uses_mixed_residue_sets(self):
        model = get_model("khare_mandal", zeta=Fraction(1, 4), M=2)
        sets = _by_set(enumerate_assignments(model))
        assert not sets[1].admissible and not sets[2].admissible
        assert sets[3].admissible and sets[4].admissible
        assert sets[3].qes_relation == "n = M/2 - 1"

    def test_rejected_exponential_branch_is_documented(self):
        out = quantize(get_model("khare_mandal", zeta=Fraction(1, 4), M=3))
        assert any("-M/2" in note for note in out.notes)

    def test_square_integrability_filter(self):
        model = get_model("complex_scarf", A=1, B=Fraction(1, 2))
        sets = _by_set(enumerate_assignments(model))
        admissible = [k for k in sets if sets[k].admissible]
        assert admissible == [4]
        assert sets[1].reason == "nonvanishing_at_end"
        out = quantize(model, levels=6)
        # strict inequality truncates the tower after a single level
        assert len(out.levels) == 1
        assert to_complex(out.levels[0].energy).real == pytest.approx(
            -0.35337143, abs=1e-7)

    def test_asymmetric_phase_gives_conjugate_pair(self):
        out = quantize(get_model("complex_scarf", A=1, B=2), levels=6)
        energies = sorted(to_complex(a.energy).imag for a in out.levels)
        assert len(energies) == 2
        assert energies[0] == pytest.approx(-energies[1], abs=1e-12)


class TestSumRuleEverywhere:
    @pytest.mark.parametrize("mid,params", [
        ("hydrogen", dict(e2=2, l=1)),
        ("scarf1", dict(A=2, B=Fraction(1, 2), alpha=1)),
        ("scarf_periodic", dict(s=Fraction(3, 10))),
        ("scarf_periodic", dict(s=Fraction(3, 2))),
        ("lame", dict(j=3, m=Fraction(1, 2))),
        ("assoc_lame_es", dict(j=1, m=Fraction(1, 2))),
        ("assoc_lame_qes", dict(a=2, b=1, m=Fraction(1, 2))),
        ("khare_mandal", dict(zeta=Fraction(1, 4), M=3)),
        ("complex_scarf", dict(A=1, B=2)),
    ])
    def test_residues_plus_moving_poles_balance_infinity(self, mid, params):
        out = quantize(get_model(mid, **params), levels=3)
        resolved = out.levels or out.admissible_sets()
        assert resolved
        for a in resolved:
            gap = a.sum_rule_gap()
            assert gap == 0 or abs(to_complex(gap)) < 1e-12


# The level formulas the closed-form families once wrote by hand, kept as
# references for the one sum-rule solve in quantize().
def _hydrogen_levels(model, sets, count):
    origin = next(a for a in sets if a.admissible)     # residue l + 1
    out = []
    for n in range(count):
        lam = Fraction(n + model.l + 1)
        out.append(replace(origin, lambda1=lam, a0=-model.e2 / (2 * lam), n=n,
                           energy=model.kappa2 - model.e2 * model.e2 / (4 * lam * lam)))
    return out


def _scarf1_energy(model, s_sum, n):
    root = model.alpha * (s_sum + n - Fraction(1, 2))     # = sqrt(E + A²)
    return root * root - model.A * model.A


def _complex_scarf_energy(model, s_sum, n):
    if not n < to_complex(Fraction(1, 2) - s_sum).real:   # strict square-integrability cut
        return None
    energy = -(to_complex(s_sum + n - Fraction(1, 2)) ** 2)
    if abs(energy.imag) < 1e-13 * max(1.0, abs(energy.real)):
        energy = energy.real
    return energy


def _two_wall_levels(energy_of):
    def levels(model, sets, count):
        out = []
        for a in sets:
            if not a.admissible:
                continue
            s_sum = a.pole_residues["t=+1"] + a.pole_residues["t=-1"]
            for n in range(count):
                energy = energy_of(model, s_sum, n)
                if energy is None:
                    break
                out.append(replace(a, lambda1=s_sum + n, n=n, energy=energy))
        return out
    return levels


def _scarf_periodic_levels(model, sets, count):
    out = []
    for a, (_label, _bsign, dsign) in zip(sets, _SCARF_PERIODIC_SETS):
        assert a.lambda1 == Fraction(1, 2) + dsign * model.s
        if not a.admissible:
            continue
        for n in range(count):
            lam = n + 1 - a.lambda1
            b = (1 - lam) / 2
            out.append(replace(a, pole_residues={"t=+i": b, "t=-i": b},
                               n=n, energy=lam * lam))
    return out


REFERENCE_LEVELS = {
    "hydrogen": _hydrogen_levels,
    "scarf1": _two_wall_levels(_scarf1_energy),
    "complex_scarf": _two_wall_levels(_complex_scarf_energy),
    "scarf_periodic": _scarf_periodic_levels,
}


class TestSumRuleSolve:
    @pytest.mark.parametrize("mid", sorted(REFERENCE_LEVELS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_the_old_formulas_over_the_whole_schema(self, mid, data):
        model = get_model(mid, **data.draw(schema_points(mid)))
        sets = enumerate_assignments(model)
        if mid == "complex_scarf":     # the old decay verdict of a set
            assert [a.admissible for a in sets] == [
                to_complex(Fraction(1, 2) - a.pole_residues["t=+1"]
                           - a.pole_residues["t=-1"]).real > 0 for a in sets]
        if not any(a.admissible for a in sets):
            with pytest.raises(NoAdmissibleAssignmentError):
                quantize(model)
            return
        got = quantize(model, levels=5).levels
        want = REFERENCE_LEVELS[mid](model, sets, 5)
        assert [(a.set_label, a.n, a.lambda1, a.a0, a.pole_residues) for a in got] == \
            [(a.set_label, a.n, a.lambda1, a.a0, a.pole_residues) for a in want]
        for a, b in zip(got, want):
            if mid == "complex_scarf":
                e = to_complex(a.energy)
                assert abs(e - to_complex(b.energy)) <= 1e-15 * max(1.0, abs(e))
            else:
                assert isinstance(a.energy, Fraction) and a.energy == b.energy

    def test_rational_complex_scarf_residues_give_an_exact_energy(self):
        out = quantize(get_model("complex_scarf", A=2, B=0), levels=4)
        assert [(a.n, a.energy) for a in out.levels] == [(0, Fraction(-1))]
        assert isinstance(out.levels[0].energy, Fraction)

    def test_infinity_residues_read_g2_only_when_g0_vanishes(self):
        # a0 = ±2 and λ1 = −G1/(2a0); the E-dependent G2 = E is never read
        slopes = (Fraction(0), Fraction(0), Fraction(1))
        branch = infinity_residues(InfinityExpansion(G0=Fraction(-4), G1=Fraction(8),
                                                     G2=Fraction(0), slopes=slopes))
        assert branch.values == (Fraction(2), Fraction(-2))
        assert branch.a0_values == (Fraction(-2), Fraction(2))
        with pytest.raises(EnergyRequiredError):       # read once G0 ≡ G1 ≡ 0
            infinity_residues(InfinityExpansion(G2=Fraction(0), slopes=slopes))
        model = get_model("khare_mandal", zeta=Fraction(1, 4), M=3)
        branch = infinity_residues(model.infinity_expansion())
        assert (branch.values[0], branch.a0_values[0]) == (
            Fraction(3, 2), Fraction(1, 8) * sqrt(-1))


# -- the reference: the five enumerations the catalog classes once carried,
# each with its residue table and verdicts --------------------------------

_SCARF_PERIODIC_SETS = (
    # (label, b-branch sign: -1 means b = (1−λ)/2, +1 means (1+λ)/2;  d1 choice sign)
    (1, -1, -1),
    (2, -1, +1),
    (3, +1, -1),
    (4, +1, +1),
)
_ELLIPTIC_SET_ORDER = {   # (b1, d1) branch signs: +1 takes b1 = 3/4 or d1 = 3/4 + b/2
    "lame": ((-1, -1), (+1, -1), (-1, +1), (+1, +1)),
    "assoc_lame_es": ((-1, -1), (+1, -1), (-1, +1), (+1, +1)),
    "assoc_lame_qes": ((+1, +1), (+1, -1), (-1, +1), (-1, -1)),
}
_KHARE_MANDAL_SETS = ((Fraction(1, 4), Fraction(1, 4)), (Fraction(3, 4), Fraction(3, 4)),
                      (Fraction(3, 4), Fraction(1, 4)), (Fraction(1, 4), Fraction(3, 4)))
# the boundary verdicts that one verdict replaced
_MERGED_VERDICTS = dict.fromkeys(("origin_exponent_nonpositive", "wall_exponent_nonpositive",
                                  "not_square_integrable", "cell_wall_divergence"),
                                 "nonvanishing_at_end")


def _ref_hydrogen(model):
    return [ResidueAssignment(set_label=label, pole_residues={"t=0": b1},
                              lambda1=None, a0=None, n=None,
                              reason=None if b1 > 0 else "origin_exponent_nonpositive")
            for label, b1 in enumerate(finite_pole_residues(model.fixed_poles()[0]).values, 1)]


def _ref_two_wall(admissible, reject_reason):
    def sets(model):
        plus, minus = (finite_pole_residues(p) for p in model.fixed_poles())
        out = []
        for bp in plus.values:
            for bm in minus.values:
                a = ResidueAssignment(set_label=len(out) + 1,
                                      pole_residues={"t=+1": bp, "t=-1": bm},
                                      lambda1=None, a0=0, n=None)
                out.append(replace(a, reason=None if admissible(a) else reject_reason))
        return out
    return sets


def _scarf1_admissible(a):      # both wall exponents b − 1/4 positive
    return all(to_complex(b - Fraction(1, 4)).real > 0 for b in a.pole_residues.values())


def _complex_scarf_admissible(a):       # 1/2 − Σb is the decay margin at infinity
    return to_complex(Fraction(1, 2) - sum(a.pole_residues.values())).real > 0


def _ref_scarf_periodic(model):
    roots = infinity_residues(model.infinity_expansion()).values     # 1/2 ± s
    bound_phase = model.s > Fraction(1, 2)
    out = []
    for label, bsign, dsign in _SCARF_PERIODIC_SETS:
        d1 = roots[0] if dsign > 0 else roots[1]
        if bsign > 0 and not d1 - 1 > 0:
            reason = "negative_energy_root"
        elif not d1 < 1 or (bound_phase and dsign > 0):
            reason = "cell_wall_divergence"
        else:
            reason = None
        out.append(ResidueAssignment(set_label=label, pole_residues={}, lambda1=d1,
                                     a0=0, n=None, reason=reason))
    return out


def _ref_elliptic(model):
    b1s = {+1: Fraction(3, 4), -1: Fraction(1, 4)}
    d1s = {+1: Fraction(3, 4) + model.b / 2, -1: Fraction(1, 4) - model.b / 2}
    lam1 = infinity_residues(model.infinity_expansion()).values[0]     # a + 1
    order = _ELLIPTIC_SET_ORDER[model.id]
    relations = model.qes_relations or (None,) * len(order)
    out = []
    for label, ((bsign, dsign), rel) in enumerate(zip(order, relations), start=1):
        b1, d1 = b1s[bsign], d1s[dsign]
        reason, n = level_verdict(lam1 - 2 * b1 - 2 * d1)
        out.append(ResidueAssignment(
            set_label=label,
            pole_residues={"t=+1": b1, "t=-1": b1, "t=+1/sqrt(m)": d1, "t=-1/sqrt(m)": d1},
            lambda1=lam1, a0=0, n=n, reason=reason, qes_relation=rel))
    return out


def _ref_khare_mandal(model):
    branch = infinity_residues(model.infinity_expansion())
    lam1, a0 = branch.values[0], branch.a0_values[0]     # M/2, iζ/2
    out = []
    for label, ((b1, b1p), rel) in enumerate(zip(_KHARE_MANDAL_SETS, model.qes_relations), start=1):
        reason, n = level_verdict(lam1 - b1 - b1p)
        out.append(ResidueAssignment(
            set_label=label, pole_residues={"t=+1": b1, "t=-1": b1p},
            lambda1=lam1, a0=a0, n=n, reason=reason, qes_relation=rel))
    return out


REFERENCE_SETS = {
    "hydrogen": _ref_hydrogen,
    "scarf1": _ref_two_wall(_scarf1_admissible, "wall_exponent_nonpositive"),
    "complex_scarf": _ref_two_wall(_complex_scarf_admissible, "not_square_integrable"),
    "scarf_periodic": _ref_scarf_periodic,
    "lame": _ref_elliptic,
    "assoc_lame_es": _ref_elliptic,
    "assoc_lame_qes": _ref_elliptic,
    "khare_mandal": _ref_khare_mandal,
}


def _typed(value):
    return type(value), value


def _record(a):
    """Every field a set keeps, each value with its exact type, and its verdict
    under the merged name."""
    return (a.set_label, [(pole, _typed(b)) for pole, b in a.pole_residues.items()],
            _typed(a.lambda1), _typed(a.a0), _typed(a.n), a.admissible,
            _MERGED_VERDICTS.get(a.reason, a.reason), a.qes_relation)


def _assert_same_sets(model):
    want = REFERENCE_SETS[model.id](model)
    if model.id == "scarf_periodic":        # the (1 + λ)/2 branch carries no level
        assert not any(a.admissible for a in want[2:])
        want = want[:2]
    assert [_record(a) for a in enumerate_assignments(model)] == [_record(a) for a in want]


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sweep_points():
    """ALL_CONFIGS, the draws of both reference censuses and the scan points
    (`scripts/scan.py`: one drawn point per family at seeds 1001–1040)."""
    census, workloads = _load_script("census"), _load_workloads()
    points = list(ALL_CONFIGS)
    points += [(mid, params) for seed in (2026, 7) for mid in MODEL_IDS
               for params in census.draws(seed, mid, 30)]
    points += [p for seed in range(1001, 1041)
               for p in workloads.family_points(random.Random(seed))]
    return points


def _edge_points():
    """Double roots, thresholds and branch crossings of each family."""
    half = Fraction(1, 2)
    points = [("scarf1", dict(A=A, B=B, alpha=alpha))      # A ± B = α/2: a double root
              for alpha in (half, 1, 3) for A in (Fraction(1, 4), half, 2, Fraction(7, 3))
              for B in (alpha / 2 - A, A - alpha / 2) if abs(B) <= 50]
    points += [("complex_scarf", dict(A=A, B=sign * (A + Fraction(1, 4))))   # the PT threshold
               for A in (Fraction(1, 4), 1, Fraction(59, 16), 6) for sign in (1, -1)]
    points += [("scarf_periodic", dict(s=Fraction(k, 8))) for k in range(1, 41) if k != 4]
    points += [("assoc_lame_qes", dict(a=a, b=Fraction(k, 2), m=half))     # both d orders
               for a in (Fraction(7, 2), 2) for k in range(-20, 21)]
    points += [("khare_mandal", dict(zeta=Fraction(1, 4), M=M)) for M in range(1, 51)]
    points += [("hydrogen", dict(e2=2, l=l)) for l in range(0, 51)]
    return points


class TestOneEnumerator:
    """PotentialModel.assignments builds the sets the five family enumerations
    built, from the branch pairs of the declared G and one boundary rule."""

    def test_sets_equal_the_reference_on_the_sweep(self):
        for mid, params in _sweep_points() + _edge_points():
            _assert_same_sets(get_model(mid, **params))

    @pytest.mark.parametrize("mid", MODEL_IDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_sets_equal_the_reference_over_the_whole_schema(self, mid, data):
        _assert_same_sets(get_model(mid, **data.draw(schema_points(mid))))

    def test_mirrored_qes_point_keeps_its_relation(self):
        # b < −1/2 puts d1 = 3/4 + b/2 second in value order: set 1 still takes it
        model = get_model("assoc_lame_qes", a=Fraction(7, 2), b=Fraction(-5, 2),
                          m=Fraction(1, 2))
        first = enumerate_assignments(model)[0]
        assert (first.n, first.qes_relation) == (4, "b - a = -n - 2")
        assert first.pole_residues["t=+1/sqrt(m)"] == Fraction(-1, 2)
