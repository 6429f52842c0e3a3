"""Potential catalog invariants.

Every model stores (a) a map x → t, (b) the squared derivative u = (dt/dx)²
as a polynomial in t, and (c) the cleared polynomial pair behind the
transformed coefficient function G.  These tests recompute everything from
the raw potential callable and finite differences, with no residue code.
"""

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from qhj.errors import ParameterError, SingularPointError, UnknownModelError
from qhj.exactmath import to_complex
from qhj.potential_catalog import (MODEL_IDS, PARAM_SCHEMAS,
                                   evaluate_potential, get_model)

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


def _g_from_potential(model, x, energy):
    """G straight from the definition, using only V, the map, and u."""
    t = model.to_t(x)
    u = np.asarray(model.u_poly(), dtype=complex)
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
            uval = P.polyval(model.to_t(x), np.asarray(model.u_poly(), dtype=complex))
            assert abs(dtdx ** 2 - uval) <= 5e-6 * max(1.0, abs(uval))


class TestInfinityExpansionSampling:
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
        g0, g1, g2 = (to_complex(c)
                      for c in model.infinity_expansion().coefficients(energy))
        for t in (1.0e4, -1.0e4, 1.0e5):
            g = model.g_value(t, energy)
            remainder = (g - g0 - g1 / t) * t * t
            assert abs(remainder - g2) <= 1e-3 * (1.0 + abs(g2))


class TestFinitePoleStrengthSampling:
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
            t0 = to_complex(pole.location)
            ring = t0 + eps * np.exp(1j * thetas)
            avg = np.mean((ring - t0) ** 2 * model.g_value(ring, energy))
            g2 = to_complex(pole.strength(energy))
            assert abs(avg - g2) <= 1e-5 * (1.0 + abs(g2))


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

    def test_schema_lists_every_model(self):
        assert set(PARAM_SCHEMAS) == set(MODEL_IDS)

    def test_half_integer_parameters_are_exact(self):
        model = get_model("assoc_lame_qes", a=Fraction(7, 2), b=Fraction(1, 2),
                          m=Fraction(1, 2))
        assert model.a == Fraction(7, 2)
        assert model.b == Fraction(1, 2)


class TestSingularPoints:
    def test_hydrogen_origin(self):
        model = get_model("hydrogen", e2=2, l=0)
        with pytest.raises(SingularPointError):
            evaluate_potential(model, 0.0)
        with pytest.raises(SingularPointError):
            evaluate_potential(model, -1.0)

    def test_periodic_cell_walls(self):
        model = get_model("scarf_periodic", s=Fraction(3, 10))
        for x in (0.0, math.pi, 2 * math.pi):
            with pytest.raises(SingularPointError):
                evaluate_potential(model, x)
        assert evaluate_potential(model, 1.0) == pytest.approx(
            (0.09 - 0.25) / math.sin(1.0) ** 2)

    def test_finite_well_walls(self):
        model = get_model("scarf1", A=2, B=Fraction(1, 2), alpha=1)
        with pytest.raises(SingularPointError):
            evaluate_potential(model, math.pi / 2)

    def test_hydrogen_refuses_points_within_the_wall_band(self):
        model = get_model("hydrogen", e2=2, l=0)
        with pytest.raises(SingularPointError):
            evaluate_potential(model, 1e-13)


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


def test_id_guard_sees_each_branch_form():
    code = ("if model.id == 'lame': pass\n"
            "if model.id in ('a', 'b'): pass\n"
            "mid = model.id\n"
            "if mid == 'x': pass\n"
            "tol = TABLE[model.id]\n"
            "f = TABLE.get(model.id)\n"
            "print(model.id)\n")
    assert _id_branches(ast.parse(code)) == [1, 2, 3, 4, 5, 6]


class TestRegistry:
    def test_ids_and_schemas_come_from_the_classes_in_catalog_order(self):
        assert MODEL_IDS == ("hydrogen", "scarf1", "scarf_periodic", "lame",
                             "assoc_lame_es", "assoc_lame_qes", "khare_mandal",
                             "complex_scarf")
        assert list(PARAM_SCHEMAS) == list(MODEL_IDS)
        assert list(PARAM_SCHEMAS["lame"]) == ["j", "m", "shift"]
        assert list(PARAM_SCHEMAS["scarf1"]) == ["A", "B", "alpha"]
