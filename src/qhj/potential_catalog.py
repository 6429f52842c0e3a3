"""Catalog of solvable potentials and their quantum-momentum-function data.

Every entry describes one potential family in units ħ = 1, 2m = 1.  The map
t = f(x) makes the Riccati equation χ² + χ' + G(t) = 0 rational, with
G = (E − Ṽ(t))/u + [−u''/(4u) + 3u'²/(16u²)], Ṽ(t) = V(x(t)), u = (dt/dx)²
a polynomial in t (u_poly) and primes d/dt.

A family states G once, exactly (g_declaration): the roots of Πclear, the
product of its pole monomials, and A(t), B(t) with Πclear²·G = A + E·B, in
Fraction or ExactComplex coefficients.  PotentialModel derives from it, once
per model, each pole's strength g2 = (A + E·B)/Πclear'² there (fixed_poles),
G0, G1, G2 of G at infinity (infinity_expansion), each a constant or affine
in E, Πclear and each pole group's cofactor Πclear/factor, exactly, for the
polynomial identity (g_polynomials), and G itself (g_value).
Besides G a family declares:

* the physical potential V(x), the map t(x) and u(t),
* the residue sets with their admissibility verdicts (quantization turns
  them into closed-form levels, or hands them to the pencil), where a level
  tower stops (normalizable), the classical-polynomial twin of the node
  polynomial and the oracle channel of each level (periodicity class or
  wall roots),
* the wavefunction prefactors f_j(x) and the mapped variable t at sample
  points (prefactors), the exponents e_j a residue set gives them, the
  change of variable's offset at each pole included (prefactor_exponents),
  and a display template (recipe_form); one assembler, PotentialModel.recipe,
  builds ψ = Π_j f_j^e_j · e^(a0·t) · P(t) for every family,
* which oracle solves the family, on which domain, and how `verify` scores it.

A new family is one PotentialModel subclass here plus its parameter
declarations (param_decls) and its entry in the class tuple behind
MODEL_CLASSES; no other module knows the family ids.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, reduce
from types import SimpleNamespace
from typing import Callable, Dict, Tuple

from .domain import OracleDomain, channel_tag
from .errors import ParameterError, QhjError, SingularPointError, UnknownModelError
from .exactmath import (ExactComplex, as_exact, expansion_at_infinity, poly_add, poly_at,
                        poly_der, poly_divmod, poly_mul, real_or_complex, to_complex)
from .qmf_residues import (FixedPole, InfinityExpansion, finite_pole_residues,
                           infinity_residues)
from .quantization import ResidueAssignment, level_verdict
from .special_functions import elliptic_K, jacobi_polynomial, laguerre, np, sn_cn_dn


# ---------------------------------------------------------------------------
# wavefunction recipe
# ---------------------------------------------------------------------------

@dataclass
class WavefunctionRecipe:
    """Closed-form factorization of one eigenfunction.

    form is the display string (prefactors × polynomial in the mapped
    variable).  evaluator(xs) returns complex ψ values on physical points xs;
    PotentialModel.recipe builds it from the model's prefactors.
    """

    form: str
    evaluator: Callable[[np.ndarray], np.ndarray] = field(repr=False, default=None)

    def __call__(self, xs):
        return self.evaluator(np.asarray(xs))


def poly_eval(coeffs, t):
    """Horner evaluation of ascending coefficients at scalar/array t."""
    acc = np.zeros_like(np.asarray(t, dtype=complex))
    for c in reversed(list(coeffs)):
        acc = acc * t + c
    return acc


# Every parameter is a rational with |value| <= PARAM_BOUND and a denominator
# of at most PARAM_DENOMINATOR (floats are rounded to one).  Larger values
# overflow the float stages, and as orders (l, j, M, a, b) they set the
# sizes of the polynomial systems; finer ones underflow them (1/m, 1 - m).
PARAM_BOUND = 50
PARAM_DENOMINATOR = 10**12


def _fraction(value, name):
    try:
        if isinstance(value, float):
            f = Fraction(value).limit_denominator(PARAM_DENOMINATOR)
        else:
            f = Fraction(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError("parameter %s must be rational, got %r" % (name, value)) from exc
    if abs(f) > PARAM_BOUND:
        raise ParameterError("parameter %s must lie in [-%d, %d]"
                             % (name, PARAM_BOUND, PARAM_BOUND))
    if f.denominator > PARAM_DENOMINATOR:
        raise ParameterError("parameter %s must have a denominator of at most 10^12" % name)
    return f


@dataclass(frozen=True)
class Param:
    """One declared parameter: its documented domain and its check.

    kind is "integer" or "rational"; interval is written "(lo, hi]" with
    open or closed ends; excluded values are refused inside it.  An omitted
    parameter takes default: None lets the family derive it, and a default
    of inspect.Parameter.empty, as in a signature, makes it required.
    """

    name: str
    kind: str
    interval: str
    meaning: str
    excluded: Tuple[Fraction, ...] = ()
    default: object = inspect.Parameter.empty

    def describe(self):
        """The domain as `qhj list` prints it: kind, interval, exclusions (meaning; default)."""
        default = "" if self.default is inspect.Parameter.empty else \
            "; optional" if self.default is None else "; default %s" % self.default
        return "%s in %s%s (%s%s)" % (
            self.kind, self.interval, "".join(", %s != %s" % (self.name, v) for v in self.excluded),
            self.meaning, default)

    def admits(self, value):
        lo, hi = (Fraction(end) for end in self.interval[1:-1].split(","))
        return (lo <= value if self.interval[0] == "[" else lo < value) and \
            (value <= hi if self.interval[-1] == "]" else value < hi) and \
            value not in self.excluded


_ELLIPTIC_M = Param("m", "rational", "(0, 1)", "elliptic parameter")
_SHIFT = Param("shift", "rational", "[-50, 50]", "additive constant", default=None)


def _in_energy(at0, slope):
    """The coefficient at0 + E·slope: a constant when E-free, else a callable of E."""
    at0, slope = as_exact(at0), as_exact(slope)
    return at0 if slope == 0 else (lambda E: at0 + E * slope)


# ---------------------------------------------------------------------------
# model base
# ---------------------------------------------------------------------------

class PotentialModel:
    """Base class for catalog entries.

    Subclasses fill in the per-family data listed in the module docstring.
    Scalar parameters are kept as exact fractions wherever the caller gives
    rational input, so residue algebra downstream stays exact.
    """

    id = None
    summary = ""                   # one line for `qhj list`
    param_decls: Tuple[Param, ...] = ()   # the parameters, in order
    spectrum_kind = None           # es_spectrum | band_edge_group | qes_condition | pt_group
    parity_constraint = False
    uses_pencil = False            # energy stays an unknown in the identity
    energy_formula = None
    notes: Tuple[str, ...] = ()
    qes_relations = None           # one level relation per residue set, or None
    oracle = "bound"               # bound | band_edges | inverse_square_cell | pt
    verify_tol = 2e-4              # default energy tolerance of verify()
    recipe_form = None             # str.format: {0}, {1}, … exponents, {n} degree, {a0} slope

    def __init__(self, **params):
        """Check params against param_decls and set each as an attribute."""
        names = [p.name for p in self.param_decls]
        unknown = [name for name in params if name not in names]
        if unknown:
            raise ParameterError("unknown parameter(s) %s for model %s (accepted: %s)"
                                 % (", ".join(unknown), self.id, ", ".join(names)))
        for p in self.param_decls:
            if p.name not in params and p.default is inspect.Parameter.empty:
                raise ParameterError("missing parameter %s for model %s: %s"
                                     % (p.name, self.id, p.describe()))
        values = {p: params.get(p.name, p.default) for p in self.param_decls}
        values = {p: v if v is None else _fraction(v, p.name) for p, v in values.items()}
        self.params: Dict[str, object] = {}
        for p, v in values.items():
            if v is not None and not p.admits(v):
                raise ParameterError("parameter %s must be %s %s, got %s" % (
                    p.name, "an" if p.kind == "integer" else "a", p.describe(), v))
            if p.kind == "integer" and v.denominator != 1:
                raise ParameterError("parameter %s must be an integer, got %s" % (p.name, v))
            self.params[p.name] = int(v) if p.kind == "integer" else v
        vars(self).update(self.params)

    # -- geometry -----------------------------------------------------------
    def potential(self, x):
        raise NotImplementedError

    def to_t(self, x):
        raise NotImplementedError

    def singular(self, xs):
        """Why V cannot be evaluated at some of xs (walls, r ≤ 0), or None."""
        return None

    def x_window(self):
        """Physical interval where eigenfunctions are sampled (one period if periodic)."""
        return self.oracle_domain().ends

    def oracle_domain(self) -> OracleDomain:
        """Ends, wall strengths, map scale and contour for the collocation oracle."""
        raise NotImplementedError

    # -- G, declared once -----------------------------------------------------
    def g_declaration(self):
        """(poles, A, B) with G = (A(t) + E·B(t))/Πclear(t)²: the family's one statement of G.

        poles lists Πclear's roots in label order, each as (label, t0), or as
        ((label+, label−), q) for the pair ±√q of an even Πclear²·G.  A and B
        are ascending Fraction or ExactComplex coefficients.
        """
        raise NotImplementedError

    @cached_property
    def _g(self):
        """Πclear with its pole groups, strengths and expansion at infinity, exactly."""
        poles, a, b = self.g_declaration()
        factors = [(-r, 0, 1) if isinstance(labels, tuple) else (-r, 1) for labels, r in poles]
        clear = reduce(poly_mul, factors, [Fraction(1)])
        square, slope2 = poly_mul(clear, clear), poly_mul(poly_der(clear), poly_der(clear))
        paired = any(isinstance(labels, tuple) for labels, _ in poles)
        if paired and any(c != 0 for p in (square, a, b) for c in p[1::2]):  # a pair's g2 is read in t² = q
            raise QhjError("%s declares a pole pair ±√q, but its Πclear²·G is not even in t"
                           % (self.id or type(self).__name__))
        fixed, groups = [], []
        for (labels, root), factor in zip(poles, factors):
            labels = labels if isinstance(labels, tuple) else (labels,)
            at = lambda p: poly_at(p[::len(labels)], root)    # a pair's: even, read in t² = q
            g2 = _in_energy(at(a) / at(slope2), at(b) / at(slope2))
            fixed += [FixedPole(g2=g2, label=label) for label in labels]
            groups.append((labels, root, poly_divmod(clear, factor)[0]))
        expansion = InfinityExpansion(*map(_in_energy, expansion_at_infinity(a, square),
                                           expansion_at_infinity(b, square)))
        return SimpleNamespace(poles=tuple(fixed), expansion=expansion,
                               polynomials=(clear, tuple(groups), a, b))

    def fixed_poles(self) -> Tuple[FixedPole, ...]:
        """Πclear's roots, each with its strength g2: lim (t − t0)²·G."""
        return self._g.poles

    def infinity_expansion(self) -> InfinityExpansion:
        """(G0, G1, G2) of G = G0 + G1/t + G2/t² + O(1/t³) at |t| → ∞."""
        return self._g.expansion

    def g_polynomials(self):
        """(Πclear, groups, A, B), exact; a group is (labels, root, Πclear/factor)."""
        return self._g.polynomials

    @cached_property
    def _g_view(self):
        """Πclear, A and B as float arrays, for g_value alone: a solve loads no numpy."""
        clear, _groups, a, b = self._g.polynomials
        return [np.array([real_or_complex(c) for c in p]) for p in (clear, a, b)]

    def g_value(self, t, energy):
        """G(t) at scalar or array t: the one evaluator of the declared G."""
        (pi, a, b), t = self._g_view, np.asarray(t, dtype=complex)
        return (poly_eval(a, t) + to_complex(energy) * poly_eval(b, t)) / poly_eval(pi, t) ** 2

    def u_poly(self):
        """Ascending coefficients of u(t) = F²."""
        raise NotImplementedError

    # -- residue sets and levels -----------------------------------------------
    def assignments(self):
        """Every candidate residue set, in set-label order, with its verdict."""
        raise NotImplementedError

    def normalizable(self, level):
        """Whether a resolved level row is a bound state; its set stops at the first that is not."""
        return True

    def classical_polynomial(self, assignment):
        """(family, indices, evaluator(t)) of the classical node polynomial, or None."""
        return None

    def classical_range(self, n):
        """(lo, hi) of the t samples comparing a degree-n kernel with its twin."""
        return (-0.9, 0.9)

    def bc_class(self, assignment):
        """Tag of the oracle channel that checks a level, or None for any channel."""
        return None

    # -- wavefunction assembly -------------------------------------------------
    def prefactor_exponents(self, residues):
        """Exponents of the natural x-space prefactors for given pole residues.

        residues: mapping pole label → residue value.  Returns a tuple in the
        model's prefactor order (see each subclass docstring).
        """
        raise NotImplementedError

    def prefactors(self, xs):
        """(t, (f_1, …)): the mapped variable and the prefactors at xs."""
        raise NotImplementedError

    def recipe(self, assignment, coeffs) -> WavefunctionRecipe:
        """ψ(x) = Π_j f_j(x)^{e_j} · e^{a0·t} · P(t) for an assignment and its kernel."""
        exps = self.prefactor_exponents(assignment.pole_residues)
        powers = tuple(real_or_complex(e) for e in exps)
        a0 = to_complex(assignment.a0)
        coeffs = tuple(complex(c) for c in coeffs)

        def evaluator(xs):
            t, factors = self.prefactors(xs)
            psi = 1.0
            for f, e in zip(factors, powers):
                psi = psi * f ** e
            return psi * np.exp(a0 * t) * poly_eval(coeffs, t)

        return WavefunctionRecipe(
            form=self.recipe_form.format(*exps, n=len(coeffs) - 1, a0=a0),
            evaluator=evaluator)

    # -- misc -------------------------------------------------------------------
    def describe_params(self):
        return {k: (str(v) if isinstance(v, Fraction) else v) for k, v in self.params.items()}


# ---------------------------------------------------------------------------
# hydrogen-like radial problem (angular momentum l, charge parameter e2)
# ---------------------------------------------------------------------------

class HydrogenModel(PotentialModel):
    """Radial Coulomb problem for the reduced function u(r), offset so E0 = 0.

        V(r) = −e2/r + l(l+1)/r² + e2²/(4(l+1)²),   r > 0.

    t = r (no change of variable), u = 1.  One fixed pole at r = 0 with
    g2 = −l(l+1) and prefactor offset 0; decaying exponential at infinity.
    Prefactor order: (r,).
    """

    id = "hydrogen"
    summary = "radial Coulomb problem with centrifugal term"
    param_decls = (Param("e2", "rational", "(0, 50]", "charge-squared strength"),
                   Param("l", "integer", "[0, 50]", "angular momentum"))
    spectrum_kind = "es_spectrum"
    energy_formula = "E_n = e2^2/(4(l+1)^2) - e2^2/(4(n+l+1)^2)"
    recipe_form = "r^{0} * exp({a0.real:.6g}*r) * P{n}(r)"

    def __init__(self, **params):
        super().__init__(**params)
        self.kappa2 = self.e2 * self.e2 / (4 * (self.l + 1) ** 2)

    def potential(self, x):
        r = np.asarray(x, dtype=float)
        return -float(self.e2) / r + self.l * (self.l + 1) / r**2 + float(self.kappa2)

    def to_t(self, x):
        return np.asarray(x, dtype=float)

    def singular(self, xs):
        if np.any(np.real(xs) < 1e-12):
            return "radial coordinate must be positive"
        return None

    def x_window(self):
        # far wall sized for the slowest decay among the first few levels
        return (0.0, 40.0 * (self.l + 5) / float(self.e2))

    def oracle_domain(self):
        # the map scale spans the radii 2(n+l+1)²/e2 of the first few levels
        return OracleDomain((0.0, math.inf), walls=(self.l * (self.l + 1), 0.0),
                            scale=2.0 * (self.l + 1) * (self.l + 5) / float(self.e2))

    def g_declaration(self):
        # t²·G = −l(l+1) + e2·t + (E − κ²)·t²
        return (("t=0", 0),), (-self.l * (self.l + 1), self.e2, -self.kappa2), (0, 0, 1)

    def u_poly(self):
        return np.array([1.0])

    def assignments(self):
        return [ResidueAssignment(set_label=label, pole_residues={"t=0": b1},
                                  lambda1=None, a0=None, n=None,
                                  reason=None if b1 > 0 else "origin_exponent_nonpositive")
                for label, b1 in enumerate(finite_pole_residues(self.fixed_poles()[0]).values, 1)]

    def classical_polynomial(self, assignment):
        n = int(assignment.n)
        k = 2 * self.l + 1
        slope = -2.0 * to_complex(assignment.a0).real

        def evaluator(t):
            return laguerre(n, k, slope * np.asarray(t, dtype=float))
        return ("laguerre", (k,), evaluator)

    def classical_range(self, n):
        return (0.5, 2.0 * (n + self.l + 2))

    def prefactor_exponents(self, residues):
        return (residues["t=0"],)

    def prefactors(self, xs):
        r = self.to_t(xs)
        return r, (r,)


# ---------------------------------------------------------------------------
# two-wall Jacobi wells: the trigonometric and the complex Scarf potential
# ---------------------------------------------------------------------------

_UNIT_POLES = (("t=+1", 1), ("t=-1", -1))


class TwoWallJacobiModel(PotentialModel):
    """Shared algebra of the Scarf wells, parametrized by strengths A and B.

    Fixed poles at t = ±1 with strengths g2(A ± B) and offsets 1/4; each
    wall takes one of its two residues, giving four sets.  Admissible sets
    carry closed-form levels λ1 = b1 + b1' + n with G2(E) = λ1 − λ1², their
    node polynomials are Jacobi polynomials P_n^(2b1−1, 2b1'−1)(t), and
    ψ = (1−t)^e₊ (1+t)^e₋ P(t) with e = b − 1/4.  Prefactor order:
    (1 − t, 1 + t).

    Subclasses declare G with the poles _UNIT_POLES and give the set filter
    _admissible(set).
    """

    spectrum_kind = "es_spectrum"
    reject_reason = None           # verdict of an inadmissible set

    def assignments(self):
        plus, minus = (finite_pole_residues(p) for p in self.fixed_poles())
        out = []
        for bp in plus.values:
            for bm in minus.values:
                a = ResidueAssignment(set_label=len(out) + 1,
                                      pole_residues={"t=+1": bp, "t=-1": bm},
                                      lambda1=None, a0=0, n=None)
                out.append(replace(a, reason=None if self._admissible(a) else self.reject_reason))
        return out

    def classical_polynomial(self, assignment):
        n = int(assignment.n)
        al = 2 * real_or_complex(assignment.pole_residues["t=+1"]) - 1
        be = 2 * real_or_complex(assignment.pole_residues["t=-1"]) - 1

        def evaluator(t):
            return jacobi_polynomial(n, al, be, np.asarray(t, dtype=complex))
        return ("jacobi", (al, be), evaluator)

    def prefactor_exponents(self, residues):
        return (residues["t=+1"] - Fraction(1, 4), residues["t=-1"] - Fraction(1, 4))

    def prefactors(self, xs):
        t = self.to_t(xs)
        return t, (1.0 - t, 1.0 + t)


class ScarfOneModel(TwoWallJacobiModel):
    """Trigonometric Scarf well on (−π/(2α), π/(2α)), offset so E0 = 0.

        V(x) = (A² + B² − Aα)·sec²(αx) + B(2A − α)·sec(αx)tan(αx) − A².

    t = sin(αx), u = α²(1−t²).  Fixed poles at t = ±1 with
    g2(±1) = 3/16 − X(X−α)/(4α²), X = A±B; offsets 1/4.
    Prefactor order: (1−sin(αx), 1+sin(αx)).
    """

    id = "scarf1"
    summary = "trigonometric Scarf well on a finite interval"
    param_decls = (Param("A", "rational", "(0, 50]", "well depth scale"),
                   Param("B", "rational", "[-50, 50]", "asymmetry strength"),
                   Param("alpha", "rational", "(0, 50]", "inverse width", default=1))
    energy_formula = "E_n = alpha^2*(b1 + b1' + n - 1/2)^2 - A^2"
    reject_reason = "wall_exponent_nonpositive"
    recipe_form = "(1-sin)^{0} * (1+sin)^{1} * P{n}(sin(alpha*x))"

    def potential(self, x):
        A, B, al = float(self.A), float(self.B), float(self.alpha)
        x = np.asarray(x, dtype=float)
        sec = 1.0 / np.cos(al * x)
        tan = np.tan(al * x)
        return (A * A + B * B - A * al) * sec**2 + B * (2 * A - al) * sec * tan - A * A

    def to_t(self, x):
        return np.sin(float(self.alpha) * np.asarray(x, dtype=float))

    def singular(self, xs):
        if np.any(np.abs(np.cos(float(self.alpha) * xs)) < 1e-12):
            return "potential scarf1 is singular at its box walls"
        return None

    def oracle_domain(self):
        # V ≈ X(X − α)/(α d)² at the wall of t = ∓1, X = A ∓ B
        w = math.pi / (2 * float(self.alpha))
        return OracleDomain((-w, w), walls=tuple(float(X * (X - self.alpha) / self.alpha ** 2)
                                                 for X in (self.A - self.B, self.A + self.B)))

    def bc_class(self, assignment):   # principal: the pole's first residue
        return channel_tag([assignment.pole_residues[p.label] == finite_pole_residues(p).values[0]
                            for p in reversed(self.fixed_poles())])

    def _admissible(self, a):
        return all(to_complex(e).real > 0 for e in self.prefactor_exponents(a.pole_residues))

    def g_declaration(self):
        # Ṽ = (n0 + n1·t)/(1 − t²) − A²; Πclear²·G = ((E + A²)(1 − t²) − n0 − n1·t)/α² + 1/2 + t²/4
        A, al2 = self.A, self.alpha ** 2
        n0, n1 = A * A + self.B ** 2 - A * self.alpha, self.B * (2 * A - self.alpha)
        return (_UNIT_POLES, ((A * A - n0) / al2 + Fraction(1, 2), -n1 / al2,
                              Fraction(1, 4) - A * A / al2), (1 / al2, 0, -1 / al2))

    def u_poly(self):
        al2 = float(self.alpha) ** 2
        return np.array([al2, 0.0, -al2])


class ComplexScarfModel(TwoWallJacobiModel):
    """PT-symmetric hyperbolic well V(x) = −A·sech²x − iB·sechx·tanhx.

    t = i·sinh(x), u = t²−1.  Fixed poles at t = ±1 with
    g2 = 3/16 − (A±B)/4; the large-argument expansion has G2 = E + 1/4.
    For |B| ≤ A + 1/4 the spectrum is real; beyond that threshold the
    eigenvalues form conjugate pairs.  Prefactor order:
    (1 − i·sinh x, 1 + i·sinh x).
    """

    id = "complex_scarf"
    summary = "complex PT-symmetric Scarf well"
    param_decls = (Param("A", "rational", "(0, 50]", "real well depth"),
                   Param("B", "rational", "[-50, 50]", "imaginary asymmetry"))
    spectrum_kind = "pt_group"
    energy_formula = "E_n = -(b1 + b1' + n - 1/2)^2"
    oracle = "pt"
    verify_tol = 1e-3
    reject_reason = "not_square_integrable"
    recipe_form = "(1-i*sinh)^{0} * (1+i*sinh)^{1} * P{n}(i*sinh(x))"

    def potential(self, x):
        z = np.asarray(x, dtype=complex)
        sech = 1.0 / np.cosh(z)
        return -float(self.A) * sech**2 - 1j * float(self.B) * sech * np.tanh(z)

    def to_t(self, x):
        return 1j * np.sinh(np.asarray(x, dtype=complex))

    def x_window(self):
        return (-16.0, 16.0)

    def oracle_domain(self):
        # V(−x) = conj V(x): the flip x ↦ −x conjugates the operator
        return OracleDomain((-math.inf, math.inf), scale=4.0, mirror="pt")

    def normalizable(self, level):
        # 1/2 − λ1 is the decay margin at infinity: strict square-integrability cut
        return to_complex(Fraction(1, 2) - level.lambda1).real > 0

    def _admissible(self, a):
        return self.normalizable(replace(a, lambda1=sum(a.pole_residues.values()), n=0))

    def g_declaration(self):
        # Ṽ = (A + B·t)/(t² − 1):  Πclear²·G = E(t² − 1) − A − B·t + 1/2 + t²/4
        return (_UNIT_POLES, (Fraction(1, 2) - self.A, -self.B, Fraction(1, 4)), (-1, 0, 1))

    def u_poly(self):
        return np.array([-1.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# periodic inverse-sin² cell (band phase s < 1/2, bound phase s > 1/2)
# ---------------------------------------------------------------------------

class ScarfPeriodicModel(PotentialModel):
    """Inverse-sin² cell of period π:  V(x) = (s² − 1/4)/sin²(x).

    t = cot(x), u = (1+t²)².  The pole pair sits at t = ±i (double zeros of u,
    offsets 1/2); the large-argument expansion has G2 = 1/4 − s².  For
    s < 1/2 the cell walls are penetrable and the spectrum forms bands whose
    edges carry wall exponents 1/2 ± s; for s > 1/2 the walls confine and the
    spectrum is discrete.  Prefactor order: (sin(x),).
    """

    id = "scarf_periodic"
    summary = "inverse-square periodic cell (band edges or bound)"
    param_decls = (Param("s", "rational", "(0, 50]", "wall-singularity index",
                         excluded=(Fraction(1, 2),)),)
    parity_constraint = True
    energy_formula = "E_n = (n + 1/2 +/- s)^2"
    oracle = "inverse_square_cell"
    verify_tol = 5e-4
    recipe_form = "sin(x)^{0} * P{n}(cot(x))"

    _SETS = (
        # (label, b-branch sign: -1 means b = (1−λ)/2, +1 means (1+λ)/2;  d1 choice sign)
        (1, -1, -1),
        (2, -1, +1),
        (3, +1, -1),
        (4, +1, +1),
    )

    @property
    def spectrum_kind(self):
        return "band_edge_group" if self.s < Fraction(1, 2) else "es_spectrum"

    @property
    def bound_phase(self):
        return self.s > Fraction(1, 2)

    def potential(self, x):
        x = np.asarray(x, dtype=float)
        return (float(self.s) ** 2 - 0.25) / np.sin(x) ** 2

    def to_t(self, x):
        return 1.0 / np.tan(np.asarray(x, dtype=float))

    def singular(self, xs):
        if np.any(np.abs(np.sin(xs)) < 1e-12):
            return "potential scarf_periodic is singular at multiples of pi"
        return None

    def oracle_domain(self):
        c = float(self.s * self.s - Fraction(1, 4))
        return OracleDomain((0.0, math.pi), walls=(c, c))

    def g_declaration(self):
        # Ṽ = (s² − 1/4)(1 + t²), u = Πclear² = (1 + t²)²:  Πclear²·G = E − Ṽ − 1
        c = Fraction(1, 4) - self.s * self.s
        return ((("t=+i", "t=-i"), -1),), (c - 1, 0, c), (1, 0, 0)

    def u_poly(self):
        return np.array([1.0, 0.0, 2.0, 0.0, 1.0])

    def assignments(self):
        roots = infinity_residues(self.infinity_expansion()).values     # 1/2 ± s
        out = []
        for label, bsign, dsign in self._SETS:
            d1 = roots[0] if dsign > 0 else roots[1]
            # the sum rule puts b = (d1 − n)/2 on each pole, so the sin exponent
            # is λ = n + 1 − d1 on the (1−λ)/2 branch; the (1+λ)/2 branch has
            # λ = d1 − 1 − n, whose λ(0) = d1 − 1 > 0 already breaks d1 < 1
            if bsign > 0 and not d1 - 1 > 0:
                reason = "negative_energy_root"
            elif not d1 < 1 or (self.bound_phase and dsign > 0):
                reason = "cell_wall_divergence"
            else:
                reason = None
            out.append(ResidueAssignment(set_label=label, pole_residues={}, lambda1=d1,
                                         a0=0, n=None, reason=reason))
        return out

    def classical_polynomial(self, assignment):
        n = int(assignment.n)
        nu = 2 * to_complex(assignment.pole_residues["t=+i"]).real - 1

        def evaluator(t):
            return jacobi_polynomial(n, nu, nu, -1j * np.asarray(t, dtype=complex))
        return ("jacobi", (nu, nu), evaluator)

    def bc_class(self, assignment):
        return None if self.bound_phase else channel_tag([assignment.lambda1 < 0.5] * 2)

    def prefactor_exponents(self, residues):
        # (t∓i)^{b−1/2} pairs combine to (1+t²)^{b−1/2} = sin(x)^{−2(b−1/2)};
        # with b = (1−λ)/2 the sin exponent is λ ± 0 — return that exponent.
        b = residues["t=+i"]
        return (1 - 2 * b,)

    def prefactors(self, xs):
        sx = np.sin(np.asarray(xs, dtype=float))
        if np.any(np.abs(sx) < 1e-12):
            raise SingularPointError("wavefunction sampled at a cell wall")
        return self.to_t(xs), (sx,)


# ---------------------------------------------------------------------------
# elliptic families (single and associated)
# ---------------------------------------------------------------------------

class AssociatedLameModel(PotentialModel):
    """Elliptic sn²/cn²-dn² family on one period (0, 2K(m)).

        V(x) = a(a+1)·m·sn²(x|m) + b(b+1)·m·cn²(x|m)/dn²(x|m) + shift.

    b = 0 reduces to the single elliptic family.  t = sn(x|m),
    u = (1−t²)(1−mt²).  Fixed poles at t = ±1 (g2 = 3/16) and t = ±1/√m
    (g2 = 3/16 − b(b+1)/4), all with offset 1/4; the polynomial has definite
    parity because the poles pair up.  Prefactor order: (cn, dn) with
    exponents (2b₁ − 1/2, 2d₁ − 1/2).
    """

    spectrum_kind = "band_edge_group"
    parity_constraint = True
    uses_pencil = True
    energy_formula = "band edges from the (n+1)-term polynomial identity per set"
    notes = ("the mirror branch lambda1 = -a reproduces the same spectra "
             "under a -> -a-1, b -> -b-1 and is not enumerated separately",)
    oracle = "band_edges"
    min_band_edges = 5             # the oracle solves at least this many edges
    verify_tol = 5e-4
    recipe_form = "cn^{0} * dn^{1} * P{n}(sn(x|m))"
    # residue sets in label order as (b1, d1) branch signs: +1 takes
    # b1 = 3/4 or d1 = 3/4 + b/2, −1 takes b1 = 1/4 or d1 = 1/4 − b/2
    set_order = ((-1, -1), (+1, -1), (-1, +1), (+1, +1))

    def __init__(self, **params):
        super().__init__(**params)
        if self.shift is None:
            self.shift = self.params["shift"] = self._default_shift()

    # -- geometry ---------------------------------------------------------
    def _sn_cn_dn(self, x):
        return sn_cn_dn(x, self.m)

    def potential(self, x):
        sn, cn, dn = self._sn_cn_dn(x)
        af, bf, mf = float(self.a), float(self.b), float(self.m)
        return (af * (af + 1) * mf * sn**2
                + bf * (bf + 1) * mf * cn**2 / dn**2
                + float(self.shift))

    def to_t(self, x):
        return self._sn_cn_dn(x)[0]

    def x_window(self):
        return (0.0, 2.0 * elliptic_K(float(self.m)))

    # -- algebraic data -----------------------------------------------------
    def g_declaration(self):
        # Π = Πclear = (t² − 1)(t² − w), w = 1/m, u = m·Π:
        # Π²·G = (E − shift − a(a+1)m·t²)·w·Π − b(b+1)(1 − t²)²·w − Π''·Π/4 + 3Π'²/16
        a, b, w = self.a, self.b, 1 / self.m
        pi = (w, 0, -1 - w, 0, 1)
        d = poly_der(pi)
        A = poly_add(poly_mul((-self.shift * w, 0, -a * (a + 1)), pi),
                     [-b * (b + 1) * w * c for c in (1, 0, -2, 0, 1)],
                     [-c / 4 for c in poly_mul(poly_der(d), pi)],
                     [3 * c / 16 for c in poly_mul(d, d)])
        return ((("t=+1", "t=-1"), 1), (("t=+1/sqrt(m)", "t=-1/sqrt(m)"), w)), A, [w * c for c in pi]

    def u_poly(self):
        return np.array([1.0, 0.0, -float(1 + self.m), 0.0, float(self.m)])

    def assignments(self):
        b1s = {+1: Fraction(3, 4), -1: Fraction(1, 4)}
        d1s = {+1: Fraction(3, 4) + self.b / 2, -1: Fraction(1, 4) - self.b / 2}
        lam1 = infinity_residues(self.infinity_expansion()).values[0]     # a + 1
        relations = self.qes_relations or (None,) * len(self.set_order)
        out = []
        for label, ((bsign, dsign), rel) in enumerate(zip(self.set_order, relations), start=1):
            b1, d1 = b1s[bsign], d1s[dsign]
            reason, n = level_verdict(lam1 - 2 * b1 - 2 * d1)
            out.append(ResidueAssignment(
                set_label=label,
                pole_residues={"t=+1": b1, "t=-1": b1, "t=+1/sqrt(m)": d1, "t=-1/sqrt(m)": d1},
                lambda1=lam1, a0=0, n=n, reason=reason, qes_relation=rel,
            ))
        return out

    def bc_class(self, assignment):
        # the basis fixes P's parity to n's; the cn exponent is 0 or 1
        cn_exp, _dn = self.prefactor_exponents(assignment.pole_residues)
        flips = int(2 * to_complex(cn_exp).real) // 2 + int(assignment.n) % 2
        return "periodic" if flips % 2 == 0 else "antiperiodic"

    def prefactor_exponents(self, residues):
        b1 = residues["t=+1"]
        d1 = residues["t=+1/sqrt(m)"]
        return (2 * b1 - Fraction(1, 2), 2 * d1 - Fraction(1, 2))

    def prefactors(self, xs):
        sn, cn, dn = self._sn_cn_dn(xs)
        return sn, (cn, dn)


class IntegerLameModel(AssociatedLameModel):
    """Elliptic entry on an integer line a = j ≥ 1 (b = 0, or b = j).

    Its 2j+1 band edges are all algebraic, so the oracle solves at least
    that many.  The default shifts read only j and m.
    """

    b_equals_j = False

    def __init__(self, **params):
        super().__init__(**params)
        self.a = Fraction(self.j)
        self.b = self.a if self.b_equals_j else Fraction(0)
        self.min_band_edges = 2 * self.j + 1


class LameModel(IntegerLameModel):
    """Single elliptic family: V = j(j+1)·m·sn² + shift, integer j ≥ 1.

    The worked j = 2 entry ships with the additive constant
    2√(1−m+m²) − 2m − 2 that zeroes its lowest band edge.
    """

    id = "lame"
    summary = "elliptic sn^2 band-edge potential"
    param_decls = (Param("j", "integer", "[1, 50]", "band family order"), _ELLIPTIC_M, _SHIFT)

    def _default_shift(self):
        if self.j == 2:
            m = self.m
            delta = math.sqrt(float(1 - m + m * m))
            return Fraction(2 * delta) - 2 * m - 2
        return Fraction(0)


class AssociatedLameESModel(IntegerLameModel):
    """Associated family on the exactly-solvable line a = b = j (integer).

    The worked j = 1 entry ships with the additive constant 2√(1−m) − m − 2.
    """

    id = "assoc_lame_es"
    summary = "associated elliptic potential, exactly solvable slice"
    param_decls = (Param("j", "integer", "[1, 50]", "a = b = j line"), _ELLIPTIC_M, _SHIFT)
    b_equals_j = True

    def _default_shift(self):
        if self.j == 1:
            m = self.m
            root = math.sqrt(float(1 - m))
            return Fraction(2 * root) - m - 2
        return Fraction(0)


QES_RELATIONS = ("b - a = -n - 2", "a + b + 1 = n + 2", "b - a = -n - 1", "a + b = n")


class AssociatedLameQESModel(AssociatedLameModel):
    """Associated family at general (a, b): quasi-exactly-solvable entries.

    Worked entries (a,b) = (2,1) and (7/2,1/2) carry the additive constants
    −4m and √(25m²−4m+4) − 2 − 29m/4 that zero their lowest listed edges.
    """

    id = "assoc_lame_qes"
    summary = "associated elliptic potential, quasi-exact slice"
    param_decls = (Param("a", "rational", "(0, 50]", "sn^2 strength index"),
                   Param("b", "rational", "[-50, 50]", "cn^2/dn^2 strength index"),
                   _ELLIPTIC_M, _SHIFT)
    spectrum_kind = "qes_condition"
    qes_relations = QES_RELATIONS
    set_order = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))

    def _default_shift(self):
        a, b, m = self.a, self.b, self.m
        if (a, b) == (Fraction(2), Fraction(1)):
            return -4 * m
        if (a, b) == (Fraction(7, 2), Fraction(1, 2)):
            d9 = math.sqrt(float(25 * m * m - 4 * m + 4))
            return Fraction(d9) - 2 - Fraction(29, 4) * m
        return Fraction(0)


def qes_family(model_class, n, a):
    """Partner strengths b that make level n algebraically reachable.

    For the associated elliptic family at fixed a, each residue set demands
    one linear relation between a, b and n; solving them for b gives four
    candidates.  b and −b−1 generate the same potential, so entries carry a
    canonical class representative; classes appearing twice are flagged.
    """
    if model_class != AssociatedLameQESModel.id:
        raise ParameterError("qes_family supports model_class=%r"
                             % AssociatedLameQESModel.id)
    a = Fraction(a)
    n = Fraction(n)
    if n.denominator != 1 or n < 0:
        raise ParameterError("level n must be a nonnegative integer")
    solutions = [a - n - 2, n + 1 - a, a - n - 1, n - a]
    entries = []
    seen = {}
    for (label, rel), b in zip(enumerate(QES_RELATIONS, start=1), solutions):
        canon = b if b >= Fraction(-1, 2) else -b - 1
        first = seen.setdefault(canon, label)
        entries.append({
            "set_label": label,
            "relation": rel,
            "b": b,
            "potential_class": canon,
            "duplicate_of_set": None if first == label else first,
        })
    return entries


# ---------------------------------------------------------------------------
# hyperbolic PT-symmetric family with purely imaginary strength (−(ζcosh2x − iM)²)
# ---------------------------------------------------------------------------

class KhareMandalModel(PotentialModel):
    """PT-symmetric hyperbolic family V(x) = −(ζ·cosh(2x) − iM)².

    t = cosh(2x), u = 4(t²−1).  Fixed poles at t = ±1 with g2 = 3/16
    (offsets 1/4); G0 = ζ²/4 gives oscillatory large-argument behavior with
    a0 = ±iζ/2 and λ1 = ±M/2.  Eigenfunctions decay only on a bent contour
    Im x → ±π/4.  Prefactor order: (sinh x, cosh x) with integer exponents
    (2b₁ − 1/2, 2b'₁ − 1/2).
    """

    id = "khare_mandal"
    summary = "complex PT-symmetric cosh pair"
    param_decls = (Param("zeta", "rational", "(0, 50]", "hyperbolic strength"),
                   Param("M", "integer", "[1, 50]", "imaginary offset"))
    spectrum_kind = "pt_group"
    uses_pencil = True
    energy_formula = "levels from the (n+1)-term polynomial identity per set"
    notes = ("lambda1 = -M/2 pairs with the exponential branch growing on "
             "the decay contour and is not enumerated",)
    qes_relations = ("n = (M - 1)/2", "n = (M - 3)/2", "n = M/2 - 1", "n = M/2 - 1")
    oracle = "pt"
    verify_tol = 1e-3
    recipe_form = "sinh^{0} * cosh^{1} * exp(i*zeta*cosh(2x)/2) * P{n}(cosh(2x))"
    # (b1, b1') per residue set, in label order
    _SETS = ((Fraction(1, 4), Fraction(1, 4)), (Fraction(3, 4), Fraction(3, 4)),
             (Fraction(3, 4), Fraction(1, 4)), (Fraction(1, 4), Fraction(3, 4)))

    def potential(self, x):
        z = np.asarray(x, dtype=complex)
        return -(float(self.zeta) * np.cosh(2 * z) - 1j * self.M) ** 2

    def to_t(self, x):
        return np.cosh(2 * np.asarray(x, dtype=complex))

    def oracle_domain(self):
        # eigenfunctions decay only off the real axis: x(σ) = σ + i(π/4)·tanh(1.5σ)
        def contour(sig):
            th = np.tanh(1.5 * sig)
            return (sig + 0.25j * np.pi * th, 1.0 + 0.375j * np.pi * (1.0 - th * th),
                    -1.125j * np.pi * (1.0 - th * th) * th)
        # V is even and the contour odd: the flip σ ↦ −σ commutes with the operator
        return OracleDomain((-4.5, 4.5), contour=contour, mirror="parity")

    def g_declaration(self):
        # Π = Πclear = t² − 1, u = 4·Π:  Π²·G = (E + (ζt − iM)²)·Π/4 + (t² + 2)/4
        v = (ExactComplex(0, -self.M), self.zeta)         # ζt − iM
        pi = (-1, 0, 1)
        A = poly_add([c / 4 for c in poly_mul(poly_mul(v, v), pi)],
                     (Fraction(1, 2), 0, Fraction(1, 4)))
        return _UNIT_POLES, A, [Fraction(c, 4) for c in pi]

    def u_poly(self):
        return np.array([-4.0, 0.0, 4.0])

    def assignments(self):
        branch = infinity_residues(self.infinity_expansion())
        lam1, a0 = branch.values[0], branch.a0_values[0]     # M/2, iζ/2
        out = []
        for label, ((b1, b1p), rel) in enumerate(zip(self._SETS, self.qes_relations), start=1):
            reason, n = level_verdict(lam1 - b1 - b1p)
            out.append(ResidueAssignment(
                set_label=label,
                pole_residues={"t=+1": b1, "t=-1": b1p},
                lambda1=lam1, a0=a0, n=n, reason=reason, qes_relation=rel,
            ))
        return out

    def prefactor_exponents(self, residues):
        return (2 * residues["t=+1"] - Fraction(1, 2), 2 * residues["t=-1"] - Fraction(1, 2))

    def prefactors(self, xs):
        z = np.asarray(xs, dtype=complex)
        return self.to_t(z), (np.sinh(z), np.cosh(z))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

MODEL_CLASSES = {cls.id: cls for cls in (
    HydrogenModel, ScarfOneModel, ScarfPeriodicModel, LameModel,
    AssociatedLameESModel, AssociatedLameQESModel, KhareMandalModel,
    ComplexScarfModel)}

MODEL_IDS = tuple(MODEL_CLASSES)

PARAM_SCHEMAS = {mid: {p.name: p.describe() for p in cls.param_decls}
                 for mid, cls in MODEL_CLASSES.items()}


def get_model(model_id, **params):
    """Instantiate a catalog entry by id.

    Raises UnknownModelError for an unknown id and ParameterError for an
    unknown, missing or out-of-domain parameter (see PotentialModel).
    """
    if model_id not in MODEL_CLASSES:
        raise UnknownModelError("unknown model id %r; known ids: %s"
                                % (model_id, ", ".join(MODEL_IDS)))
    return MODEL_CLASSES[model_id](**params)


def evaluate_potential(model, x):
    """V(x) with an explicit singular-point check for scalar arguments."""
    xs = np.asarray(x, dtype=float) if not np.iscomplexobj(np.asarray(x)) else np.asarray(x)
    reason = model.singular(xs)
    if reason:
        raise SingularPointError(reason)
    return model.potential(x)
