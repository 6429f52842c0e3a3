"""Potential catalog invariants.

Every model stores (a) a map x → t and (b) its one exact declaration of
Ṽ(t) = V(x(t)) and of the squared derivative u = (dt/dx)² as a polynomial
in t, from which G, the pole strengths, the expansion at infinity and the
prefactor exponents are derived.  These tests recompute G from the raw
potential callable, the declared u and finite differences, with no residue
code, and compare the derived strengths, expansion and exponents with the
hand-written formulas they replace.
"""

import ast
import cmath
import dataclasses
import importlib
import inspect
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from qhj.errors import ParameterError, SingularPointError, UnknownModelError
from qhj.exactmath import Surd, as_exact, sqrt, to_complex
from qhj.polynomial_system import solve_spectrum
from qhj.potential_catalog import (MODEL_CLASSES, MODEL_IDS, PARAM_DENOMINATOR,
                                   PARAM_SCHEMAS, AssociatedLameModel,
                                   ComplexScarfModel, HydrogenModel,
                                   KhareMandalModel, PotentialModel,
                                   ScarfOneModel, ScarfPeriodicModel,
                                   TwoWallJacobiModel, get_model)
from qhj.schrodinger_oracle import solve_oracle

ALL_CASES = [
    ("hydrogen", dict(e2=2, l=0), [0.7, 1.9, 3.3]),
    ("hydrogen", dict(e2=2, l=1), [0.7, 1.9, 3.3]),
    ("hydrogen", dict(e2=Fraction(3, 2), l=2), [0.9, 2.1, 4.7]),
    ("scarf1", dict(A=2, B=Fraction(1, 2), alpha=1), [0.25, -0.65, 1.05]),
    ("scarf1", dict(A=2, B=-3, alpha=1), [0.25, -0.65, 1.05]),
    ("scarf1", dict(A=3, B=1, alpha=2), [0.15, -0.35, 0.55]),
    ("scarf_periodic", dict(s=Fraction(3, 10)), [0.4, 1.2, 2.3]),
    ("scarf_periodic", dict(s=Fraction(3, 2)), [0.4, 1.2, 2.3]),
    ("lame", dict(j=2, m=Fraction(1, 2)), [0.35, 0.95, 1.85]),
    ("lame", dict(j=4, m=Fraction(9, 10)), [0.35, 0.95, 1.85]),
    ("assoc_lame_es", dict(j=1, m=Fraction(1, 2)), [0.35, 0.95, 1.85]),
    ("assoc_lame_qes", dict(a=2, b=1, m=Fraction(1, 2)), [0.35, 0.95, 1.85]),
    ("assoc_lame_qes", dict(a=Fraction(7, 2), b=Fraction(1, 2), m=Fraction(1, 2)),
     [0.35, 0.95, 1.85]),
    ("khare_mandal", dict(zeta=Fraction(1, 4), M=3), [0.3, -0.8, 1.3]),
    ("khare_mandal", dict(zeta=Fraction(1, 10), M=2), [0.3, -0.8, 1.3]),
    ("complex_scarf", dict(A=1, B=Fraction(1, 2)), [0.3, -0.8, 1.3]),
    ("complex_scarf", dict(A=1, B=2), [0.3, -0.8, 1.3]),
]

ENERGIES = (0.37, 2.25, -1.5)


def schema_points(mid):
    """Hypothesis strategy: parameters drawn over a family's whole declared domain."""
    def values(p):
        lo, hi = (Fraction(end) for end in p.interval[1:-1].split(","))
        if p.kind == "integer":
            return st.integers(math.ceil(lo), math.floor(hi)).filter(p.admits)
        return st.fractions(lo, hi, max_denominator=PARAM_DENOMINATOR).filter(p.admits)
    return st.fixed_dictionaries({p.name: values(p) for p in MODEL_CLASSES[mid].param_decls})


def _pole_locations(model):
    """Each pole label with its location, from the roots g_declaration gives."""
    out = {}
    for labels, root in model.g_declaration()[0]:
        if isinstance(labels, tuple):        # the pair ±√q
            t0 = cmath.sqrt(to_complex(root))
            out.update(zip(labels, (t0, -t0)))
        else:
            out[labels] = to_complex(root)
    return out


def _declared_u(model):
    """The declared exact u(t), as complex coefficients."""
    return np.array([to_complex(c) for c in model.g_declaration()[2]])


def _g_from_potential(model, x, energy):
    """G straight from the definition, using only V, the map, and u."""
    t = model.to_t(x)
    u = _declared_u(model)
    uv = P.polyval(t, u)
    upv = P.polyval(t, P.polyder(u))
    uppv = P.polyval(t, P.polyder(u, 2))
    v = model.potential(x)
    return (energy - v) / uv + (-uppv / (4 * uv) + 3 * upv ** 2 / (16 * uv ** 2))


@pytest.mark.parametrize("mid,params,xs", ALL_CASES,
                         ids=[c[0] + "-" + str(i) for i, c in enumerate(ALL_CASES)])
class TestStoredPolynomialsMatchPotential:
    def test_g_polynomials(self, mid, params, xs):
        model = get_model(mid, **params)
        for x in xs:
            for e in ENERGIES:
                direct = _g_from_potential(model, x, e)
                stored = model.g_value(model.to_t(x), e)
                assert abs(direct - stored) <= 1e-9 * max(1.0, abs(direct))

    def test_u_is_squared_map_derivative(self, mid, params, xs):
        model = get_model(mid, **params)
        h = 1e-6
        for x in xs:
            dtdx = (model.to_t(x + h) - model.to_t(x - h)) / (2 * h)
            uval = P.polyval(model.to_t(x), _declared_u(model))
            assert abs(dtdx ** 2 - uval) <= 5e-6 * max(1.0, abs(uval))


def _expansion_at(model, energy):
    """(G0, G1, G2) at energy, each its value at E = 0 plus E times its slope."""
    expansion = model.infinity_expansion()
    return [to_complex(c) + energy * to_complex(d)
            for c, d in zip((expansion.G0, expansion.G1, expansion.G2), expansion.slopes)]


class TestInfinityExpansionSampling:
    """The derived (G0, G1, G2) against G sampled far out."""

    @pytest.mark.parametrize("mid,params", [
        ("hydrogen", dict(e2=2, l=1)),
        ("khare_mandal", dict(zeta=Fraction(1, 4), M=3)),
        ("lame", dict(j=2, m=Fraction(1, 2))),
        ("assoc_lame_qes", dict(a=2, b=1, m=Fraction(1, 2))),
        ("scarf_periodic", dict(s=Fraction(3, 10))),
        ("complex_scarf", dict(A=1, B=2)),
        ("scarf1", dict(A=2, B=Fraction(1, 2), alpha=1)),
    ])
    def test_large_argument_matches_stored_coefficients(self, mid, params):
        model = get_model(mid, **params)
        energy = 1.375
        g0, g1, g2 = _expansion_at(model, energy)
        for t in (1.0e4, -1.0e4, 1.0e5):
            g = model.g_value(t, energy)
            remainder = (g - g0 - g1 / t) * t * t
            assert abs(remainder - g2) <= 1e-3 * (1.0 + abs(g2))

    @pytest.mark.parametrize("mid", MODEL_IDS)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_over_the_whole_schema(self, mid, data):
        # closed_form_levels and the pencil sets compute from these coefficients
        model = get_model(mid, **data.draw(schema_points(mid)))
        energy = 1.375
        g0, g1, g2 = _expansion_at(model, energy)
        # well outside every pole; the mean over ±t cancels the G3/t term
        t = 1.0e4 * max([1.0] + [abs(t0) for t0 in _pole_locations(model).values()])
        remainder = sum((model.g_value(y, energy) - g0 - g1 / y) * y * y for y in (t, -t)) / 2
        assert abs(remainder - g2) <= 1e-3 * (1.0 + abs(g2))


# the coefficients a closed-form family's sum rule solves for E; pencil families have none
ENERGY_SLOT = {"hydrogen": ["G0"], "scarf1": ["G2"], "complex_scarf": ["G2"],
               "scarf_periodic": ["pole strengths"]}


@pytest.mark.parametrize("mid", MODEL_IDS)
def test_the_energy_sits_in_one_affine_coefficient(mid):
    """The sum rule reads G0, G1, the pole strengths, and G2 when G0 ≡ G1 ≡ 0."""
    model = get_model(mid, **next(params for m, params, _ in ALL_CASES if m == mid))
    expansion = model.infinity_expansion()
    (d0, d1, d2), poles = expansion.slopes, model.fixed_poles()
    read = {"G0": [d0], "G1": [d1], "pole strengths": [p.slope for p in poles]}
    if (expansion.G0, d0, expansion.G1, d1) == (0, 0, 0, 0):
        read["G2"] = [d2]
    assert sorted(name for name, slopes in read.items() if any(slopes)) == \
        ENERGY_SLOT.get(mid, [])
    assert model.uses_pencil == (mid not in ENERGY_SLOT)
    # one strength shared by every E-dependent pole
    assert len({(p.g2, p.slope) for p in poles if p.slope}) <= 1


class TestFinitePoleStrengthSampling:
    """Each derived g2 against a ring average of (t − t0)²·G."""

    @pytest.mark.parametrize("mid,params", [
        ("hydrogen", dict(e2=2, l=1)),
        ("scarf1", dict(A=2, B=Fraction(1, 2), alpha=1)),
        ("scarf_periodic", dict(s=Fraction(3, 10))),
        ("lame", dict(j=2, m=Fraction(1, 2))),
        ("assoc_lame_qes", dict(a=Fraction(7, 2), b=Fraction(1, 2), m=Fraction(1, 2))),
        ("khare_mandal", dict(zeta=Fraction(1, 4), M=3)),
        ("complex_scarf", dict(A=1, B=Fraction(1, 2))),
    ])
    def test_circle_average_recovers_double_pole_strength(self, mid, params):
        model = get_model(mid, **params)
        energy = 0.8125
        eps = 1e-3
        thetas = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        for pole in model.fixed_poles():
            t0 = _pole_locations(model)[pole.label]
            ring = t0 + eps * np.exp(1j * thetas)
            avg = np.mean((ring - t0) ** 2 * model.g_value(ring, energy))
            g2 = to_complex(pole.g2) + energy * to_complex(pole.slope)
            assert abs(avg - g2) <= 1e-5 * (1.0 + abs(g2))


# The pole strengths and expansions each family wrote by hand before it
# declared G once: (model, E) → ({label: g2}, (G0, G1, G2)) at energy E.
def _hydrogen_g(model, E):
    centrifugal = Fraction(-model.l * (model.l + 1))
    kappa2 = model.e2 * model.e2 / (4 * (model.l + 1) ** 2)
    return {"t=0": centrifugal}, (E - kappa2, model.e2, centrifugal)


def _scarf1_g(model, E):
    A, B, al = model.A, model.B, model.alpha
    g2 = {label: Fraction(3, 16) - X * (X - al) / (4 * al**2)
          for label, X in (("t=+1", A + B), ("t=-1", A - B))}
    return g2, (Fraction(0), Fraction(0), Fraction(1, 4) - (E + A * A) / (al * al))


def _complex_scarf_g(model, E):
    g2 = {label: Fraction(3, 16) - X / 4
          for label, X in (("t=+1", model.A + model.B), ("t=-1", model.A - model.B))}
    return g2, (Fraction(0), Fraction(0), E + Fraction(1, 4))


def _scarf_periodic_g(model, E):
    return ({"t=+i": (1 - E) / 4, "t=-i": (1 - E) / 4},
            (Fraction(0), Fraction(0), Fraction(1, 4) - model.s * model.s))


def _elliptic_g(model, E):
    g2d = Fraction(3, 16) - model.b * (model.b + 1) / 4
    return ({"t=+1": Fraction(3, 16), "t=-1": Fraction(3, 16),
             "t=+1/sqrt(m)": g2d, "t=-1/sqrt(m)": g2d},
            (Fraction(0), Fraction(0), -model.a * (model.a + 1)))


def _khare_mandal_g(model, E):
    z, M = model.zeta, model.M
    return ({"t=+1": Fraction(3, 16), "t=-1": Fraction(3, 16)},
            (z * z / 4, -Fraction(M) * z / 2 * sqrt(-1),
             (E - M * M + z * z + 1) / 4))


REFERENCE_G = ((HydrogenModel, _hydrogen_g), (ScarfOneModel, _scarf1_g),
               (ComplexScarfModel, _complex_scarf_g), (ScarfPeriodicModel, _scarf_periodic_g),
               (AssociatedLameModel, _elliptic_g), (KhareMandalModel, _khare_mandal_g))
REFERENCE_ENERGIES = (Fraction(0), Fraction(1), Fraction(-7, 3))


def _same(derived, reference):
    return type(derived) is type(reference) and derived == reference


@pytest.mark.parametrize("mid", MODEL_IDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_derived_strengths_and_expansion_equal_the_reference(mid, data):
    # exact equality, types included: a real value or slope is a Fraction;
    # the reference at E = 0 and E = 1 gives value and slope, and the third
    # energy checks that value + E·slope is the reference there too
    model = get_model(mid, **data.draw(schema_points(mid)))
    reference = next(f for cls, f in REFERENCE_G if isinstance(model, cls))
    rows = [reference(model, E) for E in REFERENCE_ENERGIES]
    poles = model.fixed_poles()
    assert [p.label for p in poles] == list(rows[0][0])
    derived = [((p.g2, p.slope), [g2[p.label] for g2, _ in rows]) for p in poles]
    expansion = model.infinity_expansion()
    derived += [(pair, [ex[k] for _, ex in rows]) for k, pair in enumerate(
        zip((expansion.G0, expansion.G1, expansion.G2), expansion.slopes))]
    for (value, slope), want in derived:
        assert _same(value, want[0]), (value, want)
        assert _same(slope, as_exact(want[1] - want[0])), (slope, want)
        assert all(value + E * slope == w for E, w in zip(REFERENCE_ENERGIES, want)), want


# The prefactor exponents each family wrote by hand before the base class
# derived them from u: residues → exponents, in prefactor order.
REFERENCE_EXPONENTS = (
    (HydrogenModel, lambda r: (r["t=0"],)),
    (TwoWallJacobiModel, lambda r: (r["t=+1"] - Fraction(1, 4), r["t=-1"] - Fraction(1, 4))),
    (ScarfPeriodicModel, lambda r: (1 - 2 * r["t=+i"],)),
    (AssociatedLameModel, lambda r: (2 * r["t=+1"] - Fraction(1, 2),
                                     2 * r["t=+1/sqrt(m)"] - Fraction(1, 2))),
    (KhareMandalModel, lambda r: (2 * r["t=+1"] - Fraction(1, 2), 2 * r["t=-1"] - Fraction(1, 2))),
)


def reference_exponents(model, residues):
    return next(f for cls, f in REFERENCE_EXPONENTS if isinstance(model, cls))(residues)


@pytest.mark.parametrize("mid", MODEL_IDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_derived_exponents_equal_the_reference(mid, data):
    # each set's own residues, then one drawn residue per pole group
    model = get_model(mid, **data.draw(schema_points(mid)))
    sets = [a.pole_residues for a in model.assignments() if a.pole_residues]
    drawn = {}
    for labels, _root, _cofactor in model.g_polynomials()[1]:
        drawn.update(dict.fromkeys(labels, data.draw(st.fractions(-50, 50, max_denominator=97))))
    for residues in sets + [drawn]:
        got, want = model.prefactor_exponents(residues), reference_exponents(model, residues)
        assert [type(e) for e in got] == [type(e) for e in want] and got == want


@pytest.mark.parametrize("mid", MODEL_IDS)
def test_each_family_declares_g_once_and_exactly(mid):
    cls = MODEL_CLASSES[mid]
    derived = ("fixed_poles", "infinity_expansion", "g_polynomials", "g_value",
               "prefactor_exponents")
    assert [name for k in cls.__mro__ if k is not PotentialModel
            for name in derived if name in vars(k)] == []
    _poles, (v_num, v_den), u = get_model(mid, **BASE_POINTS[mid]).g_declaration()
    assert all(isinstance(c, (int, Fraction, Surd)) for c in (*v_num, *v_den, *u))


class TestParameterValidation:
    def test_unknown_model(self):
        with pytest.raises(UnknownModelError):
            get_model("nosuch")

    def test_unknown_parameter(self):
        with pytest.raises(ParameterError):
            get_model("lame", j=2, m=Fraction(1, 2), bogus=1)

    def test_missing_parameter(self):
        with pytest.raises(ParameterError):
            get_model("lame", j=2)

    @pytest.mark.parametrize("mid,params", [
        ("lame", dict(j=0, m=Fraction(1, 2))),
        ("lame", dict(j=2, m=Fraction(3, 2))),
        ("lame", dict(j=2, m=0)),
        ("hydrogen", dict(e2=-1, l=0)),
        ("hydrogen", dict(e2=2, l=-1)),
        ("scarf1", dict(A=-2, B=0, alpha=1)),
        ("scarf1", dict(A=2, B=0, alpha=0)),
        ("scarf_periodic", dict(s=0)),
        ("scarf_periodic", dict(s=Fraction(1, 2))),
        ("khare_mandal", dict(zeta=0, M=3)),
        ("khare_mandal", dict(zeta=Fraction(1, 4), M=0)),
        ("complex_scarf", dict(A=0, B=1)),
    ])
    def test_domain_violations(self, mid, params):
        with pytest.raises(ParameterError):
            get_model(mid, **params)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_are_parameter_errors(self, value):
        with pytest.raises(ParameterError, match="must be rational"):
            get_model("hydrogen", e2=value, l=0)
        with pytest.raises(ParameterError, match="must be rational"):
            get_model("lame", j=value, m=Fraction(1, 2))

    @pytest.mark.parametrize("value,reason", [
        (51, "must lie in [-50, 50]"), (-51, "must lie in [-50, 50]"),
        (10**200, "must lie in [-50, 50]"), (1e300, "must lie in [-50, 50]"),
        (Fraction(1, 10**13), "must have a denominator of at most 10^12"),
        (Fraction(1, 10**400), "must have a denominator of at most 10^12")],
        ids=["51", "-51", "1e200", "float-1e300", "1/10^13", "1/10^400"])
    def test_magnitude_and_denominator_bounds_name_the_parameter(self, value, reason):
        with pytest.raises(ParameterError) as exc:
            get_model("scarf1", A=2, B=value)
        assert str(exc.value) == "parameter B " + reason

    def test_schema_lists_every_model(self):
        assert set(PARAM_SCHEMAS) == set(MODEL_IDS)

    def test_half_integer_parameters_are_exact(self):
        model = get_model("assoc_lame_qes", a=Fraction(7, 2), b=Fraction(1, 2),
                          m=Fraction(1, 2))
        assert model.a == Fraction(7, 2)
        assert model.b == Fraction(1, 2)


def _wall_strengths(model, d=1e-6):
    """d²·V(x) at distance d inside each finite end of the oracle domain."""
    lo, hi = model.oracle_domain().ends
    return [d * d * float(model.potential(np.array([x]))[0])
            for x in (lo + d, hi - d) if math.isfinite(x)]


class TestSingularPoints:
    """Each wall's strength c of V ≈ c/d², which the oracle's wall exponents
    are built from, is the potential's own limit at that wall."""

    @pytest.mark.parametrize("e2,l", [(2, 0), (2, 1), (Fraction(3, 2), 2)])
    def test_hydrogen_origin(self, e2, l):
        model = get_model("hydrogen", e2=e2, l=l)
        assert model.oracle_domain().walls[0] == l * (l + 1)
        assert _wall_strengths(model) == pytest.approx([l * (l + 1)], abs=1e-5)

    def test_periodic_cell_walls(self):
        model = get_model("scarf_periodic", s=Fraction(3, 10))
        assert model.oracle_domain().walls == pytest.approx((0.09 - 0.25,) * 2)
        assert _wall_strengths(model) == pytest.approx([0.09 - 0.25] * 2, abs=1e-8)
        assert model.potential(1.0) == pytest.approx((0.09 - 0.25) / math.sin(1.0) ** 2)
        assert model.potential(1.0 + math.pi) == pytest.approx(model.potential(1.0))

    def test_finite_well_walls(self):
        model = get_model("scarf1", A=2, B=Fraction(1, 2), alpha=1)
        assert model.oracle_domain().walls == pytest.approx((0.75, 3.75))
        assert _wall_strengths(model) == pytest.approx([0.75, 3.75], abs=1e-8)

    @pytest.mark.parametrize("mid,params", [
        ("hydrogen", dict(e2=2, l=1)),
        ("scarf1", dict(A=2, B=Fraction(1, 2), alpha=1)),
        ("scarf_periodic", dict(s=Fraction(3, 10)))])
    def test_oracle_grid_stays_off_the_walls(self, mid, params):
        model = get_model(mid, **params)
        lo, hi = model.oracle_domain().ends
        xs = solve_oracle(model).xs
        assert lo < xs.min() and xs.max() < hi
        assert np.all(np.isfinite(model.potential(xs)))

    @pytest.mark.parametrize("s", [Fraction(3, 10), Fraction(3, 2)])
    def test_periodic_wavefunctions_refuse_the_cell_walls(self, s):
        sol = solve_spectrum(get_model("scarf_periodic", s=s), levels=2).solutions[0]
        assert np.all(np.isfinite(sol.recipe(np.array([0.5, 1.5]))))
        for wall in (0.0, math.pi):
            with pytest.raises(SingularPointError, match="cell wall"):
                sol.recipe(np.array([1.0, wall]))


class TestStructuralSymmetries:
    def test_elliptic_potentials_have_cell_period(self):
        for mid, params in [("lame", dict(j=2, m=Fraction(1, 2))),
                            ("assoc_lame_es", dict(j=1, m=Fraction(1, 2))),
                            ("assoc_lame_qes", dict(a=2, b=1, m=Fraction(1, 2)))]:
            model = get_model(mid, **params)
            period = model.x_window()[1]
            for x in (0.3, 0.9, 1.4):
                assert model.potential(x + period) == pytest.approx(
                    model.potential(x), abs=1e-10)

    def test_complex_scarf_is_pt_symmetric(self):
        model = get_model("complex_scarf", A=1, B=2)
        for x in (0.3, 0.9, 1.7):
            assert np.conj(model.potential(-x)) == pytest.approx(
                model.potential(x), abs=1e-12)

    def test_inverse_square_cell_reflects_about_midpoint(self):
        model = get_model("scarf_periodic", s=Fraction(3, 10))
        for x in (0.3, 0.9, 1.4):
            assert model.potential(math.pi - x) == pytest.approx(
                model.potential(x), abs=1e-12)

    def test_lame_strength_reproduces_literature_normalization(self):
        # V − shift must equal j(j+1)·m·sn² — checked at the cell midpoint
        # where sn = 1
        from qhj.special_functions import elliptic_K
        for j in (1, 2, 5):
            m = Fraction(1, 2)
            model = get_model("lame", j=j, m=m, shift=0)
            K = elliptic_K(float(m))
            assert model.potential(K) == pytest.approx(j * (j + 1) * float(m),
                                                       abs=1e-10)


def _id_branches(tree):
    """Lines that branch on a model id: compare it, index by it, or copy it."""
    def is_id(node):
        return isinstance(node, ast.Attribute) and node.attr in ("id", "model_id")

    copies = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and is_id(node.value):
            copies.update(t.id for t in node.targets if isinstance(t, ast.Name))
    hits = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and is_id(node.value):
            hits.add(node.lineno)
        elif isinstance(node, ast.Compare):
            operands = [node.left] + node.comparators
            if any(is_id(o) or (isinstance(o, ast.Name) and o.id in copies)
                   for o in operands):
                hits.add(node.lineno)
        elif isinstance(node, ast.Subscript) and is_id(node.slice):
            hits.add(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and node.args and is_id(node.args[0])):
            hits.add(node.lineno)
    return sorted(hits)


def test_only_the_catalog_branches_on_model_ids():
    # per-family behaviour lives on the catalog classes; everything else
    # reads their attributes, so a new family touches one module
    package = Path(__file__).resolve().parents[1] / "src" / "qhj"
    found = {}
    for path in sorted(package.glob("*.py")):
        if path.name == "potential_catalog.py":
            continue
        hits = _id_branches(ast.parse(path.read_text(encoding="utf-8")))
        if hits:
            found[path.name] = hits
    assert found == {}


def _id_literals(tree):
    """Lines holding a string literal that names a catalog model."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and node.value in MODEL_IDS})


def test_only_the_catalog_names_model_ids():
    # a family's id spelled out elsewhere is family knowledge outside its
    # class, even when it is compared through a parameter, not model.id
    package = Path(__file__).resolve().parents[1] / "src" / "qhj"
    found = {}
    for path in sorted(package.glob("*.py")):
        if path.name == "potential_catalog.py":
            continue
        hits = _id_literals(ast.parse(path.read_text(encoding="utf-8")))
        if hits:
            found[path.name] = hits
    assert found == {}


def test_literal_guard_sees_model_ids():
    code = ("if kind != 'assoc_lame_qes': pass\n"
            "TABLE = {'lame': 1}\n"
            "f('hydrogen')\n"
            "x = 'lame_like'\n"
            "y = b'lame'\n"
            "z = 'lame' + 'x'\n")
    assert _id_literals(ast.parse(code)) == [1, 2, 3, 6]


_POOL_MODULES = ("concurrent", "threading", "multiprocessing")
_ENV_READS = ("environ", "getenv")


def _runtime_knobs(tree):
    """Lines that import a pool or thread module, or read the environment."""
    hits = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bad = any(a.name.split(".")[0] in _POOL_MODULES for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            bad = (node.module or "").split(".")[0] in _POOL_MODULES or (
                node.module == "os" and any(a.name in _ENV_READS for a in node.names))
        else:
            bad = (isinstance(node, ast.Attribute) and node.attr in _ENV_READS
                   and isinstance(node.value, ast.Name) and node.value.id == "os")
        if bad:
            hits.add(node.lineno)
    return sorted(hits)


def test_no_module_starts_threads_or_reads_the_environment():
    # the package runs serially and is configured only by its arguments, so
    # no hidden pool or environment knob changes what a call computes
    package = Path(__file__).resolve().parents[1] / "src" / "qhj"
    found = {}
    for path in sorted(package.glob("*.py")):
        hits = _runtime_knobs(ast.parse(path.read_text(encoding="utf-8")))
        if hits:
            found[path.name] = hits
    assert found == {}


def test_knob_guard_sees_each_form():
    code = ("import threading\n"
            "from concurrent.futures import ThreadPoolExecutor\n"
            "import multiprocessing as mp\n"
            "n = os.environ.get('N')\n"
            "n = os.getenv('N')\n"
            "from os import environ\n"
            "import os\n"
            "p = os.path.join('a', 'b')\n")
    assert _runtime_knobs(ast.parse(code)) == [1, 2, 3, 4, 5, 6]


def _exactness_choices(tree):
    """Lines that pick exact or float arithmetic themselves: import cmath, call
    .as_fraction() or test isinstance(…, Surd)."""
    hits = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bad = any(a.name == "cmath" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            bad = node.module == "cmath"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            bad = node.func.attr == "as_fraction"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2):
            bad = any(getattr(n, "id", getattr(n, "attr", None)) == "Surd"
                      for n in ast.walk(node.args[1]))
        else:
            bad = False
        if bad:
            hits.add(node.lineno)
    return sorted(hits)


def test_only_exactmath_chooses_between_exact_and_float():
    # the rules "a root is exact, a Fraction or a Surd" and "a value is settled
    # once, a float refused" live in exactmath.sqrt and exactmath.settle; a
    # module that branches on number types itself starts a second copy of them
    package = Path(__file__).resolve().parents[1] / "src" / "qhj"
    found = {}
    for path in sorted(package.glob("*.py")):
        if path.name == "exactmath.py":
            continue
        hits = _exactness_choices(ast.parse(path.read_text(encoding="utf-8")))
        if hits:
            found[path.name] = hits
    assert found == {}


def _numpy_polynomial_uses(tree):
    """Lines that import numpy.polynomial or reach it as an attribute of numpy."""
    hits = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bad = any(a.name.startswith("numpy.polynomial") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            bad = (node.module or "").startswith("numpy.polynomial") or (
                node.module == "numpy" and any(a.name == "polynomial" for a in node.names))
        elif isinstance(node, ast.Attribute):
            bad = node.attr == "polynomial" and getattr(node.value, "id", None) in ("np", "numpy")
        else:
            bad = False
        if bad:
            hits.add(node.lineno)
    return sorted(hits)


def test_one_exact_scalar_and_no_tolerance_in_the_identity_checks():
    # Surd is the one irrational scalar: no second exact type, no float path in
    # Poly, and no tolerance left for the identity's remainder and overflow rows
    from qhj import exactmath, polynomial_system
    assert not any(hasattr(exactmath, name) for name in ("ExactComplex", "exact_sqrt"))
    with pytest.raises(TypeError):
        exactmath.Poly.of([0.5])
    assert not any(hasattr(polynomial_system, name)
                   for name in ("_DIV_TOL", "_FIXED_TOL", "_refuted"))


WORKED_SHIFTS = (
    # (family, params, the radicand r and the rest c of shift = k·√r + c, k)
    ("lame", dict(j=2), lambda m: (1 - m + m * m, -2 * m - 2), 2),
    ("assoc_lame_es", dict(j=1), lambda m: (1 - m, -m - 2), 2),
    ("assoc_lame_qes", dict(a=Fraction(7, 2), b=Fraction(1, 2)),
     lambda m: (25 * m * m - 4 * m + 4, -2 - Fraction(29, 4) * m), 1),
)


@pytest.mark.parametrize("mid,params,form,k", WORKED_SHIFTS)
@settings(max_examples=8, deadline=None)
@given(m=st.fractions(0, 1, max_denominator=97).filter(lambda m: 0 < m < 1))
def test_worked_default_shifts_are_exact_and_zero_the_lowest_edge(mid, params, form, k, m):
    model = get_model(mid, m=m, **params)
    radicand, rest = form(m)
    root = (model.shift - rest) / k
    assert as_exact(model.shift) is not None
    assert root * root == radicand and to_complex(root).real > 0
    lowest = solve_spectrum(model).solutions[0].energy
    assert abs(to_complex(lowest)) <= 1e-12


def test_no_module_uses_numpy_polynomial():
    # the identity is built once, exactly, with exactmath's polynomials; a
    # float polynomial module in src/ is the start of a second build of Π
    package = Path(__file__).resolve().parents[1] / "src" / "qhj"
    found = {}
    for path in sorted(package.glob("*.py")):
        hits = _numpy_polynomial_uses(ast.parse(path.read_text(encoding="utf-8")))
        if hits:
            found[path.name] = hits
    assert found == {}


def test_numpy_polynomial_guard_sees_each_form():
    code = ("import numpy.polynomial\n"
            "from numpy.polynomial import polynomial as P\n"
            "from numpy import polynomial\n"
            "import numpy.polynomial.polynomial as P\n"
            "c = np.polynomial.polynomial.polyfromroots(r)\n"
            "import numpy as np\n"
            "from numpy import linalg\n"
            "p = solution.polynomial\n")
    assert _numpy_polynomial_uses(ast.parse(code)) == [1, 2, 3, 4, 5]


def test_exactness_guard_sees_each_form():
    code = ("import cmath\n"
            "from cmath import sqrt\n"
            "x = z.as_fraction()\n"
            "if isinstance(z, Surd): pass\n"
            "ok = isinstance(z, (Fraction, exactmath.Surd))\n"
            "import math, os\n"
            "y = isinstance(z, Fraction)\n"
            "f = z.as_fraction\n"
            "w = Surd((1, 2), 1, (-1,))\n")
    assert _exactness_choices(ast.parse(code)) == [1, 2, 3, 4, 5]


def test_id_guard_sees_each_branch_form():
    code = ("if model.id == 'lame': pass\n"
            "if model.id in ('a', 'b'): pass\n"
            "mid = model.id\n"
            "if mid == 'x': pass\n"
            "tol = TABLE[model.id]\n"
            "f = TABLE.get(model.id)\n"
            "print(model.id)\n")
    assert _id_branches(ast.parse(code)) == [1, 2, 3, 4, 5, 6]


def _unread_fields(classes, trees):
    """Dataclass fields of classes that no tree reads as an attribute."""
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return ["%s.%s" % (cls.__name__, f.name)
            for cls in classes for f in dataclasses.fields(cls) if f.name not in read]


def _uncalled_functions(modules, outside):
    """Non-dunder functions and methods of modules whose name nothing loads.

    A name is loaded when it appears as a Name or an Attribute read in one
    of the modules (a string, such as an entry of `__init__.py`'s export
    lists, does not count), or in one of the outside trees as a Name, an
    Attribute or a string constant: the benchmark tracer names its targets
    by string.  Matching is by bare name, so a dead method that shares a
    live attribute's name, like `overlap`, passes.  A method that overrides
    one of a base class from outside the package is called by that library
    (argparse calls `_Parser.error`) and is not listed.
    """
    trees = {module: ast.parse(inspect.getsource(module)) for module in modules}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    used |= {node.id if isinstance(node, ast.Name) else
             node.attr if isinstance(node, ast.Attribute) else node.value
             for tree in outside for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))
             or isinstance(node, ast.Constant) and isinstance(node.value, str)}
    dead = []
    for module, tree in trees.items():
        owners = {id(f): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                  for f in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or node.name in used \
                    or node.name.startswith("__") and node.name.endswith("__"):
                continue
            owner = owners.get(id(node))
            if owner is None:
                dead.append(node.name)
            elif not any(hasattr(base, node.name)
                         for base in getattr(module, owner.name).__mro__[1:]
                         if not base.__module__.startswith("qhj")):
                dead.append("%s.%s" % (owner.name, node.name))
    return sorted(dead)


def test_no_function_only_tests_call():
    # a function or method that only tests call is code the program carries
    # for no consumer; the three listed probe other live code for tests
    root = Path(__file__).resolve().parents[1]
    modules = [importlib.import_module("qhj" if path.stem == "__init__" else "qhj." + path.stem)
               for path in sorted((root / "src" / "qhj").glob("*.py"))]
    outside = [ast.parse(path.read_text(encoding="utf-8")) for folder in ("scripts", "perfbench")
               for path in sorted((root / folder).rglob("*.py"))]
    assert _uncalled_functions(modules, outside) == [
        "PotentialModel.g_value", "closed_form_deviation", "parity_deviation"]


def test_every_level_record_field_is_read():
    # a field that is written at every construction but read nowhere is
    # state the residue route carries for no consumer
    from qhj.polynomial_system import BandEdgeSolution, SpectrumResult
    from qhj.potential_catalog import WavefunctionRecipe
    from qhj.qmf_residues import FixedPole
    from qhj.quantization import QuantizationOutcome, ResidueAssignment
    package = Path(__file__).resolve().parents[1] / "src" / "qhj"
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))]
    assert _unread_fields((ResidueAssignment, QuantizationOutcome,
                           BandEdgeSolution, SpectrumResult, FixedPole,
                           WavefunctionRecipe), trees) == []


def test_one_wavefunction_assembler():
    # families declare prefactors and a recipe_form; PotentialModel.recipe
    # alone turns them into ψ = Π f_j^e_j · e^(a0·t) · P(t)
    own = sorted({k.__name__ for cls in MODEL_CLASSES.values()
                  for k in cls.__mro__
                  if k is not PotentialModel and "recipe" in vars(k)})
    assert own == []


@pytest.mark.parametrize("mid,params,form", [
    ("scarf1", dict(A=2, B=Fraction(1, 2), alpha=1),
     "(1-sin)^(5/4) * (1+sin)^(3/4) * P0(sin(alpha*x))"),
    ("complex_scarf", dict(A=1, B=Fraction(1, 2)),
     "(1-i*sinh)^((1 - sqrt(7))/4) * (1+i*sinh)^((1 - sqrt(3))/4) * P0(i*sinh(x))"),
    ("scarf_periodic", dict(s=Fraction(3, 10)), "sin(x)^(1/5) * P0(cot(x))"),
    ("hydrogen", dict(e2=2, l=1), "r^2 * exp(-0.5*r) * P0(r)"),
    ("lame", dict(j=2, m=Fraction(1, 2)), "cn^0 * dn^0 * P2(sn(x|m))"),
])
def test_recipe_form_parenthesizes_each_non_integer_exponent(mid, params, form):
    # f^5/4 would read as a power divided by 4; an integer exponent stays bare
    assert solve_spectrum(get_model(mid, **params)).solutions[0].recipe.form == form


def test_the_route_flags_follow_from_the_declared_g():
    # uses_pencil and parity_constraint are read off each family's declared
    # G (the slopes of what the sum rule reads, and its ± pole pairs); no
    # family states them again
    stated = sorted({k.__name__ for cls in MODEL_CLASSES.values() for k in cls.__mro__
                     if k is not PotentialModel
                     and {"uses_pencil", "parity_constraint"} & set(vars(k))})
    assert stated == []
    paired = {"scarf_periodic", "lame", "assoc_lame_es", "assoc_lame_qes"}
    assert {mid for mid, _, _ in ALL_CASES} == set(MODEL_IDS)
    for mid, params, _ in ALL_CASES:
        assert get_model(mid, **params).parity_constraint == (mid in paired), mid


def test_one_residue_set_enumerator():
    # PotentialModel.assignments builds every family's sets from the branch
    # pairs of its declared G and judges them by one boundary rule
    # (normalizable); a family declares its ends and set order, never its
    # sets, their residues or a filter of its own
    members = ("assignments", "normalizable", "_SETS", "reject_reason", "_admissible")
    stated = sorted({"%s.%s" % (k.__name__, name) for cls in MODEL_CLASSES.values()
                     for k in cls.__mro__ if k is not PotentialModel
                     for name in members if name in vars(k)})
    assert stated == []


def test_field_guard_sees_a_write_only_field():
    @dataclasses.dataclass
    class Level:
        energy: float
        note: str

    code = ("lvl = Level(energy=1.0, note='x')\n"
            "print(lvl.energy)\n"
            "lvl.note = 'y'\n"
            "other = replace(lvl, note='z')\n")
    assert _unread_fields((Level,), [ast.parse(code)]) == ["Level.note"]


def test_tracer_targets_exist():
    # perfbench/tracer.py wraps these names from outside src/; a rename or an
    # inlined function must fail the suite, not only a traced benchmark run
    import importlib
    import inspect
    import types
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tracer = types.ModuleType("tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracer.__dict__)
    for module, function in tracer.SPAN_TARGETS:
        target = getattr(importlib.import_module("qhj." + module), function, None)
        assert inspect.isfunction(target), (module, function)
    oracle = importlib.import_module("qhj.schrodinger_oracle")
    assert all(hasattr(oracle, name) for name in tracer.EIG_TARGETS)
    assert tracer.SPAN_TARGETS and tracer.EIG_TARGETS


class TestRegistry:
    def test_ids_and_schemas_come_from_the_classes_in_catalog_order(self):
        assert MODEL_IDS == ("hydrogen", "scarf1", "scarf_periodic", "lame",
                             "assoc_lame_es", "assoc_lame_qes", "khare_mandal",
                             "complex_scarf")
        assert list(PARAM_SCHEMAS) == list(MODEL_IDS)
        assert list(PARAM_SCHEMAS["lame"]) == ["j", "m", "shift"]
        assert list(PARAM_SCHEMAS["scarf1"]) == ["A", "B", "alpha"]


# The parameter domains as the family constructors checked them before the
# Param declarations: (kind, lo, hi, ends, excluded, default), where a
# default of REQUIRED means the parameter must be given and None that the
# family derives it.  Every value also had to pass _fraction's [-50, 50].
REQUIRED = "required"
_POSITIVE = ("rational", 0, 50, "(]", (), REQUIRED)
_SIGNED = ("rational", -50, 50, "[]", (), REQUIRED)
_M = ("rational", 0, 1, "()", (), REQUIRED)
_SHIFT = ("rational", -50, 50, "[]", (), None)
_ORDER = ("integer", 1, 50, "[]", (), REQUIRED)
PARENT_DOMAINS = {
    "hydrogen": {"e2": _POSITIVE, "l": ("integer", 0, 50, "[]", (), REQUIRED)},
    "scarf1": {"A": _POSITIVE, "B": _SIGNED, "alpha": ("rational", 0, 50, "(]", (), 1)},
    "scarf_periodic": {"s": ("rational", 0, 50, "(]", (Fraction(1, 2),), REQUIRED)},
    "lame": {"j": _ORDER, "m": _M, "shift": _SHIFT},
    "assoc_lame_es": {"j": _ORDER, "m": _M, "shift": _SHIFT},
    "assoc_lame_qes": {"a": _POSITIVE, "b": _SIGNED, "m": _M, "shift": _SHIFT},
    "khare_mandal": {"zeta": _POSITIVE, "M": _ORDER},
    "complex_scarf": {"A": _POSITIVE, "B": _SIGNED},
}
# one admitted point per family; each probe replaces one of its values
BASE_POINTS = {
    "hydrogen": dict(e2=2, l=0),
    "scarf1": dict(A=2, B=Fraction(1, 2), alpha=1),
    "scarf_periodic": dict(s=Fraction(3, 10)),
    "lame": dict(j=2, m=Fraction(1, 2)),
    "assoc_lame_es": dict(j=1, m=Fraction(1, 2)),
    "assoc_lame_qes": dict(a=2, b=1, m=Fraction(1, 2)),
    "khare_mandal": dict(zeta=Fraction(1, 4), M=3),
    "complex_scarf": dict(A=1, B=2),
}


def _admitted(domain, value):
    kind, lo, hi, ends, excluded, _ = domain
    above = value >= lo if ends[0] == "[" else value > lo
    below = value <= hi if ends[1] == "]" else value < hi
    return (above and below and value not in excluded
            and (kind == "rational" or value.denominator == 1))


def _probes(domain):
    kind, lo, hi, _, excluded, _ = domain
    step = Fraction(1, 97)
    values = {Fraction(end) + d for end in (lo, hi) for d in (-step, 0, step)}
    values.update(excluded)
    if kind == "integer":
        values.add(Fraction(2 * lo + 1, 2))
    return sorted(values)


_DOMAIN_CASES = [(mid, name) for mid, params in PARENT_DOMAINS.items() for name in params]


@pytest.mark.parametrize("mid,name", _DOMAIN_CASES,
                         ids=["%s-%s" % case for case in _DOMAIN_CASES])
def test_declared_domains_match_the_parent_constructors(mid, name):
    domain = PARENT_DOMAINS[mid][name]
    kind, lo, hi, ends, excluded, default = domain
    assert list(PARAM_SCHEMAS[mid]) == list(PARENT_DOMAINS[mid])
    doc = PARAM_SCHEMAS[mid][name]
    assert doc.startswith("%s in %s%s, %s%s" % (kind, ends[0], lo, hi, ends[1]))
    for value in excluded:
        assert "%s != %s" % (name, value) in doc
    for value in _probes(domain):
        params = dict(BASE_POINTS[mid], **{name: value})
        try:
            model = get_model(mid, **params)
        except ParameterError:
            accepted = False
        else:
            accepted = True
            assert getattr(model, name) == value
            assert isinstance(getattr(model, name), int if kind == "integer" else Fraction)
        assert accepted == _admitted(domain, value), (mid, name, value)
    params = {k: v for k, v in BASE_POINTS[mid].items() if k != name}
    if default is REQUIRED:
        with pytest.raises(ParameterError, match="missing parameter %s" % name):
            get_model(mid, **params)
    else:
        model = get_model(mid, **params)
        if default is None:
            assert "optional" in doc and getattr(model, name) is not None
        else:
            assert "default %s" % default in doc and getattr(model, name) == default


def _validating_classes(tree):
    """Catalog classes, other than PotentialModel, that call _fraction or
    raise ParameterError: parameter checks outside the one declared path."""
    found = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or cls.name == "PotentialModel":
            continue
        for node in ast.walk(cls):
            called = node.func if isinstance(node, ast.Call) else None
            raised = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(raised, ast.Call):
                raised = raised.func
            if (isinstance(called, ast.Name) and called.id == "_fraction") or \
                    (isinstance(raised, ast.Name) and raised.id == "ParameterError"):
                found.add(cls.name)
    return sorted(found)


def test_only_the_base_class_checks_parameters():
    # each family declares its parameters as Param records; only
    # PotentialModel.__init__ turns them into checks
    path = Path(__file__).resolve().parents[1] / "src" / "qhj" / "potential_catalog.py"
    assert _validating_classes(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_validation_guard_sees_each_form():
    code = ("class PotentialModel:\n"
            "    def __init__(self, x):\n"
            "        raise ParameterError('fine here')\n"
            "class Converts(PotentialModel):\n"
            "    def __init__(self, x):\n"
            "        self.x = _fraction(x, 'x')\n"
            "class Refuses(PotentialModel):\n"
            "    def check(self):\n"
            "        if self.x < 0:\n"
            "            raise ParameterError\n"
            "class Derives(PotentialModel):\n"
            "    def __init__(self, **params):\n"
            "        self.y = fraction(2)\n"
            "def helper(x):\n"
            "    raise ParameterError('not a class')\n")
    assert _validating_classes(ast.parse(code)) == ["Converts", "Refuses"]
