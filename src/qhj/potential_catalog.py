"""Catalog of solvable potentials and their quantum-momentum-function data.

Every entry describes one potential family in units ħ = 1, 2m = 1.  The map
t = f(x) makes the Riccati equation χ² + χ' + G(t) = 0 rational, with
G = (E − Ṽ(t))/u + [−u''/(4u) + 3u'²/(16u²)], Ṽ(t) = V(x(t)), u = (dt/dx)²
a polynomial in t and primes d/dt.

A family states Ṽ and u once, exactly (g_declaration), with the roots of
Πclear, the product of its pole monomials.  PotentialModel derives from them,
once per model and by exact division, A and B with Πclear²·G = A + E·B, each
pole's strength g2 (fixed_poles), G0, G1, G2 of G at infinity
(infinity_expansion), each as its exact value at E = 0 plus its exact slope
in E, the exact polynomials of the identity (g_polynomials), G itself
(g_value) and the prefactor exponents (prefactor_exponents).  Two flags
follow from that data, not from the family: uses_pencil, when no
coefficient the sum rule reads moves with E, and parity_constraint, when
the family declares ± pole pairs.  Besides Ṽ and u a family declares:

* the physical potential V(x) and the map t(x),
* each end of its real x-domain in t (t_ends) and, where the product
  order does not fit, its residue sets as branch indices (set_order);
  PotentialModel.assignments builds the sets from the branch pairs of G
  and judges them by one boundary rule (normalizable),
* the classical twin of the node polynomial and each level's oracle channel,
* the wavefunction prefactors f_j(x) and the mapped variable t at sample
  points (prefactors), for each f_j a pole and the power p_j with f_j^p_j ∝
  the factor of that pole's group (prefactor_poles), and a display template
  (recipe_form); one assembler, PotentialModel.recipe, builds
  ψ = Π_j f_j^e_j · e^(a0·t) · P(t) for every family,
* which oracle solves the family, on which domain, and how `verify` scores it.

A new family is one PotentialModel subclass here plus its parameter
declarations (param_decls) and its entry in the class tuple behind
MODEL_CLASSES; no other module knows the family ids.
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, reduce
from types import SimpleNamespace
from typing import Callable, Dict, Tuple

from .domain import OracleDomain, channel_tag
from .errors import EnergyRequiredError, InvalidStateError, ParameterError, QhjError
from .errors import SingularPointError, UnknownModelError
from .exactmath import Poly, real_or_complex, sign, sqrt, to_complex
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
    variable).  prefactors(xs) gives the mapped variable t and the prefactors
    f_j at physical points xs (the model's), and evaluator(t, factors) the
    complex ψ values there; PotentialModel.recipe builds both.  A call
    refuses any value that overflows or is undefined (InvalidStateError).
    """

    form: str
    evaluator: Callable = field(repr=False, default=None)
    prefactors: Callable = field(repr=False, default=None)

    def __call__(self, xs, prefactors=None):
        """ψ at xs; prefactors, when given, are self.prefactors(xs), which every
        level of one model shares on one grid."""
        with np.errstate(over="ignore", invalid="ignore"):   # refused below, with a reason
            t, factors = self.prefactors(np.asarray(xs)) if prefactors is None else prefactors
            values = np.asarray(self.evaluator(t, factors), dtype=complex)
        if not np.all(np.isfinite(values)):
            raise InvalidStateError("wavefunction is not finite on the grid: it overflows "
                                    "or the grid touches a singular point")
        return values


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


def _quotient(num, den):
    """num/den of exact polynomials, trailing zeros dropped, or None when den does
    not divide num."""
    quo, rem = num.divmod(den)
    return None if rem else quo.trimmed()


def _multiplicity(factor, poly):
    """How many times factor divides the nonzero poly."""
    k = 0
    while (poly := _quotient(poly, factor)) is not None:
        k += 1
    return k


# ---------------------------------------------------------------------------
# model base
# ---------------------------------------------------------------------------

T_INFINITY = "t=inf"        # a t_ends entry: the end of the x-domain where |t| → ∞


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
    energy_formula = None
    notes: Tuple[str, ...] = ()
    qes_relations = None           # one level relation per residue set, or None
    prefactor_poles: Tuple[Tuple[str, int], ...] = ()   # (label, p) per f_j: prefactor_exponents
    oracle = "bound"               # bound | band_edges | inverse_square_cell | pt
    verify_tol = 2e-4              # default energy tolerance of verify()
    recipe_form = None             # str.format: {0}, {1}, … exponents, {n} degree, {a0} slope
    t_ends: Tuple[str, ...] = ()   # each end of the real x-domain in t: a pole label or T_INFINITY
    set_order = None               # branch indices per set in label order, or None: the product

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

    def x_window(self):
        """Physical interval where eigenfunctions are sampled (one period if periodic)."""
        return self.oracle_domain().ends

    def oracle_domain(self) -> OracleDomain:
        """Ends, wall strengths, map scale and contour for the collocation oracle."""
        raise NotImplementedError

    # -- G, declared once -----------------------------------------------------
    def g_declaration(self):
        """(poles, (Ṽ numerator, Ṽ denominator), u): the family's one statement of G.

        poles lists Πclear's roots in label order, each as (label, t0), or as
        ((label+, label−), q) for the pair ±√q of an even Πclear²·G.  Ṽ(t) =
        V(x(t)) and u(t) = (dt/dx)² are ascending Fraction or Surd coefficients;
        _g derives G = (A + E·B)/Πclear² from them.
        """
        raise NotImplementedError

    @cached_property
    def _g(self):
        """Πclear with its pole groups, A and B, the strengths, the expansion at infinity
        and the prefactor exponent rule, exactly."""
        poles, (v_num, v_den), u = self.g_declaration()
        name = self.id or type(self).__name__
        factors = [Poly.of((-r, 0, 1) if isinstance(labels, tuple) else (-r, 1))
                   for labels, r in poles]
        clear = reduce(Poly.__mul__, factors, Poly.of((1,)))
        square, dclear2 = clear * clear, clear.der() * clear.der()
        # Πclear²·G = A + E·B:  B = Πclear²/u, A = B·(3u'² − 4u·u'' − 16u·Ṽ)/(16u)
        u, v_num, v_den = Poly.of(u), Poly.of(v_num), Poly.of(v_den)
        b = _quotient(square, u)
        if b is None:
            raise QhjError("%s declares poles and u whose Πclear²/u is not a polynomial" % name)
        du, u16 = u.der(), u.scale(16)
        curvature = du.scale(3) * du + u.scale(-4) * du.der()
        a = _quotient(b * (curvature * v_den - u16 * v_num), u16 * v_den)
        if a is None:
            raise QhjError("%s declares poles, Ṽ and u whose Πclear²·(−Ṽ/u − u''/(4u) + "
                           "3u'²/(16u²)) is not a polynomial" % name)
        paired = any(isinstance(labels, tuple) for labels, _ in poles)
        if paired and any(p[1::2] for p in (square, a, b)):  # a pair's g2 is read in t² = q
            raise QhjError("%s declares a pole pair ±√q, but its Πclear²·G is not even in t" % name)
        fixed, groups, factor_of = [], [], {}
        for (labels, root), factor in zip(poles, factors):
            labels = labels if isinstance(labels, tuple) else (labels,)
            at = lambda p: p[::len(labels)].at(root)    # a pair's: even, read in t² = q
            g2, slope = (at(p) / at(dclear2) for p in (a, b))
            fixed += [FixedPole(g2=g2, label=label, slope=slope) for label in labels]
            groups.append((labels, root, clear.divmod(factor)[0]))
            factor_of.update(dict.fromkeys(labels, factor))
        values, slopes = (tuple(p.expansion_at_infinity(square)) for p in (a, b))
        expansion = InfinityExpansion(*values, slopes=slopes)
        # f_j^p ∝ the factor of its pole's group, which divides u k times
        exponents = tuple((label, p, Fraction(_multiplicity(factor_of[label], u), 4))
                          for label, p in self.prefactor_poles)
        energy_part, rem = b.divmod(clear)      # NR's energy part, the same for every set
        return SimpleNamespace(poles=tuple(fixed), expansion=expansion, exponents=exponents,
                               polynomials=(clear, tuple(groups), a, b, None if rem else energy_part),
                               paired=paired, u_degree=len(u.trimmed()) - 1)

    @property
    def parity_constraint(self):
        """Whether the family declares ± pole pairs: one branch per pair, and P of n's parity."""
        return self._g.paired

    @property
    def uses_pencil(self):
        """Whether E stays a pencil unknown: no coefficient the sum rule reads (G0, G1,
        the pole strengths, and G2 when G0 ≡ G1 ≡ 0) has a nonzero slope."""
        ex = self.infinity_expansion()
        d0, d1, d2 = ex.slopes
        read = [d0, d1] + [p.slope for p in self.fixed_poles()]
        if not any((ex.G0, d0, ex.G1, d1)):
            read.append(d2)
        return not any(read)

    def fixed_poles(self) -> Tuple[FixedPole, ...]:
        """Πclear's roots, each with its strength g2 + E·slope: lim (t − t0)²·G."""
        return self._g.poles

    def infinity_expansion(self) -> InfinityExpansion:
        """(G0, G1, G2) of G = G0 + G1/t + G2/t² + O(1/t³) at |t| → ∞, with their slopes in E."""
        return self._g.expansion

    def g_polynomials(self):
        """(Πclear, groups, A, B, B/Πclear), exact Polys; a group is (labels, root,
        Πclear/factor), and B/Πclear is None when Πclear does not divide B."""
        return self._g.polynomials

    @cached_property
    def _g_view(self):
        """Πclear, A and B as float arrays, for g_value alone: a solve loads no numpy."""
        clear, _groups, a, b, _ = self._g.polynomials
        return [np.array(p.floats()) for p in (clear, a, b)]

    def g_value(self, t, energy):
        """G(t) at scalar or array t: the one evaluator of the declared G."""
        (pi, a, b), t = self._g_view, np.asarray(t, dtype=complex)
        return (poly_eval(a, t) + to_complex(energy) * poly_eval(b, t)) / poly_eval(pi, t) ** 2

    # -- residue sets and levels -----------------------------------------------
    @cached_property
    def _branches(self):
        """((labels, residue pair) per pole group with an E-free strength, infinity's
        branch or None where the sum rule does not read it), once per model."""
        strength = {p.label: p for p in self.fixed_poles()}
        groups = tuple((labels, finite_pole_residues(strength[labels[0]]).values)
                       for labels, _root, _cofactor in self.g_polynomials()[1]
                       if not strength[labels[0]].slope)
        try:
            infinity = infinity_residues(self.infinity_expansion())
        except EnergyRequiredError:
            infinity = None
        return groups, infinity

    def assignments(self):
        """Every candidate residue set, in set-label order, with its verdict.

        A set takes one branch per _branches entry (a ± pair one for both
        poles), by set_order's indices or in product order.  a0 is 0 where
        G0 ≡ 0.  Where λ1 and every residue are E-free, n = λ1 − Σb is judged
        (level_verdict); else the boundary rule (normalizable) judges the set.
        """
        groups, infinity = self._branches
        ex = self.infinity_expansion()
        order = self.set_order or itertools.product((0, 1), repeat=len(groups) + bool(infinity))
        out = []
        for label, index in enumerate(order, 1):
            residues = {pole: values[i] for (labels, values), i in zip(groups, index)
                        for pole in labels}
            lambda1 = a0 = reason = n = None
            if infinity:
                lambda1, a0 = infinity.values[index[-1]], infinity.a0_values[index[-1]]
                if len(residues) == len(self.fixed_poles()):
                    reason, n = level_verdict(lambda1 - sum(residues.values()))
            a = ResidueAssignment(
                set_label=label, pole_residues=residues, lambda1=lambda1,
                a0=0 if ex.G0 == ex.slopes[0] == 0 else a0, n=n, reason=reason,
                qes_relation=self.qes_relations[label - 1] if self.qes_relations else None)
            if reason is None and not self.normalizable(a):
                a = replace(a, reason="nonvanishing_at_end")
            out.append(a)
        return out

    def normalizable(self, level):
        """The boundary rule for a set or a level row: ψ → 0 at each of t_ends.  A pole
        end needs its prefactor exponent's Re > 0; |t| → ∞ with a0 = 0 needs
        Re λ1 < deg(u)/4, as ψ ~ t^(λ1 − deg u/4) (λ1 = Σb where infinity is
        not read).  A set's level rows stop at the first that breaks it."""
        exponent = {label: (p, k) for label, p, k in self._g.exponents}
        lambda1 = sum(level.pole_residues.values()) if level.lambda1 is None else level.lambda1
        margins = [Fraction(self._g.u_degree, 4) - lambda1 if end == T_INFINITY
                   else exponent[end][0] * (level.pole_residues[end] - exponent[end][1])
                   for end in self.t_ends if end != T_INFINITY or level.a0 == 0]
        return all(sign(m) > 0 for m in margins)

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
        """Exponents e_j = p_j·(b − k/4) of the prefactors f_j, in prefactor_poles order.

        residues maps pole label → residue b.  f_j^p_j ∝ the factor of the
        pole group of f_j's label, and k is how many times that factor
        divides u: near a simple root of u, t − t0 ∝ (x − x0)².
        """
        return tuple(p * (residues[label] - offset) for label, p, offset in self._g.exponents)

    def prefactors(self, xs):
        """(t, (f_1, …)): the mapped variable and the prefactors at xs."""
        raise NotImplementedError

    def recipe(self, assignment, coeffs) -> WavefunctionRecipe:
        """ψ(x) = Π_j f_j(x)^{e_j} · e^{a0·t} · P(t) for an assignment and its kernel."""
        exps = self.prefactor_exponents(assignment.pole_residues)
        powers = tuple(real_or_complex(e) for e in exps)
        a0 = to_complex(assignment.a0)
        coeffs = tuple(complex(c) for c in coeffs)

        def evaluator(t, factors):
            psi = 1.0
            for f, e in zip(factors, powers):
                psi = psi * f ** e
            return psi * np.exp(a0 * t) * poly_eval(coeffs, t)

        # an integer exponent prints bare, any other in parentheses: f^(5/4)
        texts = (str(e) if getattr(e, "denominator", 0) == 1 else "(%s)" % e for e in exps)
        return WavefunctionRecipe(
            form=self.recipe_form.format(*texts, n=len(coeffs) - 1, a0=a0),
            evaluator=evaluator, prefactors=self.prefactors)

    # -- misc -------------------------------------------------------------------
    def describe_params(self):
        return {k: v if isinstance(v, int) else str(v) for k, v in self.params.items()}


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
    prefactor_poles = (("t=0", 1),)       # r = t
    t_ends = ("t=0", T_INFINITY)

    def __init__(self, **params):
        super().__init__(**params)
        self.kappa2 = self.e2 * self.e2 / (4 * (self.l + 1) ** 2)

    def potential(self, x):
        r = np.asarray(x, dtype=float)
        return -float(self.e2) / r + self.l * (self.l + 1) / r**2 + float(self.kappa2)

    def to_t(self, x):
        return np.asarray(x, dtype=float)

    def x_window(self):
        # far wall sized for the slowest decay among the first few levels
        return (0.0, 40.0 * (self.l + 5) / float(self.e2))

    def oracle_domain(self):
        # the map scale spans the radii 2(n+l+1)²/e2 of the first few levels
        return OracleDomain((0.0, math.inf), walls=(self.l * (self.l + 1), 0.0),
                            scale=2.0 * (self.l + 1) * (self.l + 5) / float(self.e2))

    def g_declaration(self):
        # Ṽ = (l(l+1) − e2·t + κ²·t²)/t², u = 1
        return (("t=0", 0),), ((self.l * (self.l + 1), -self.e2, self.kappa2), (0, 0, 1)), (1,)

    def classical_polynomial(self, assignment):
        n = int(assignment.n)
        k = 2 * self.l + 1
        slope = -2.0 * to_complex(assignment.a0).real

        def evaluator(t):
            return laguerre(n, k, slope * np.asarray(t, dtype=float))
        return ("laguerre", (k,), evaluator)

    def classical_range(self, n):
        return (0.5, 2.0 * (n + self.l + 2))

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
    pole takes one of its two residues, giving four sets.  Admissible sets
    carry closed-form levels λ1 = b1 + b1' + n with G2(E) = λ1 − λ1², their
    node polynomials are Jacobi polynomials P_n^(2b1−1, 2b1'−1)(t), and
    ψ = (1−t)^e₊ (1+t)^e₋ P(t) with e = b − 1/4.  Prefactor order:
    (1 − t, 1 + t).

    Subclasses declare G with the poles _UNIT_POLES and the ends of their
    domain in t (t_ends).
    """

    spectrum_kind = "es_spectrum"
    prefactor_poles = (("t=+1", 1), ("t=-1", 1))       # 1 − t, 1 + t

    def classical_polynomial(self, assignment):
        n = int(assignment.n)
        al = 2 * real_or_complex(assignment.pole_residues["t=+1"]) - 1
        be = 2 * real_or_complex(assignment.pole_residues["t=-1"]) - 1

        def evaluator(t):
            return jacobi_polynomial(n, al, be, np.asarray(t, dtype=complex))
        return ("jacobi", (al, be), evaluator)

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
    recipe_form = "(1-sin)^{0} * (1+sin)^{1} * P{n}(sin(alpha*x))"
    t_ends = ("t=-1", "t=+1")            # the walls x = ∓π/(2α)

    def potential(self, x):
        A, B, al = float(self.A), float(self.B), float(self.alpha)
        x = np.asarray(x, dtype=float)
        sec = 1.0 / np.cos(al * x)
        tan = np.tan(al * x)
        return (A * A + B * B - A * al) * sec**2 + B * (2 * A - al) * sec * tan - A * A

    def to_t(self, x):
        return np.sin(float(self.alpha) * np.asarray(x, dtype=float))

    def oracle_domain(self):
        # V ≈ X(X − α)/(α d)² at the wall of t = ∓1, X = A ∓ B
        w = math.pi / (2 * float(self.alpha))
        return OracleDomain((-w, w), walls=tuple(float(X * (X - self.alpha) / self.alpha ** 2)
                                                 for X in (self.A - self.B, self.A + self.B)))

    def bc_class(self, assignment):   # principal: the pole's first residue, walls in x order
        principal = {labels[0]: values[0] for labels, values in self._branches[0]}
        return channel_tag([assignment.pole_residues[end] == principal[end] for end in self.t_ends])

    def g_declaration(self):
        # Ṽ = (n0 + n1·t)/(1 − t²) − A², u = α²(1 − t²)
        A, al2 = self.A, self.alpha ** 2
        n0, n1 = A * A + self.B ** 2 - A * self.alpha, self.B * (2 * A - self.alpha)
        return _UNIT_POLES, ((n0 - A * A, n1, A * A), (1, 0, -1)), (al2, 0, -al2)


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
    recipe_form = "(1-i*sinh)^{0} * (1+i*sinh)^{1} * P{n}(i*sinh(x))"
    t_ends = (T_INFINITY, T_INFINITY)     # x → ∓∞

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

    def g_declaration(self):
        # Ṽ = (A + B·t)/(t² − 1), u = t² − 1
        return _UNIT_POLES, ((self.A, self.B), (-1, 0, 1)), (-1, 0, 1)


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
    energy_formula = "E_n = (n + 1/2 +/- s)^2"
    oracle = "inverse_square_cell"
    verify_tol = 5e-4
    recipe_form = "sin(x)^{0} * P{n}(cot(x))"
    prefactor_poles = (("t=+i", -2),)      # sin⁻² = 1 + t²

    t_ends = (T_INFINITY, T_INFINITY)     # the cell walls: cot x → ±∞
    set_order = ((1,), (0,))                # the smaller λ1 first

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

    def oracle_domain(self):
        c = float(self.s * self.s - Fraction(1, 4))
        return OracleDomain((0.0, math.pi), walls=(c, c))

    def g_declaration(self):
        # Ṽ = (s² − 1/4)(1 + t²), u = (1 + t²)²
        c = self.s * self.s - Fraction(1, 4)
        return ((("t=+i", "t=-i"), -1),), ((c, 0, c), (1,)), (1, 0, 2, 0, 1)

    def classical_polynomial(self, assignment):
        n = int(assignment.n)
        nu = 2 * to_complex(assignment.pole_residues["t=+i"]).real - 1

        def evaluator(t):
            return jacobi_polynomial(n, nu, nu, -1j * np.asarray(t, dtype=complex))
        return ("jacobi", (nu, nu), evaluator)

    def bc_class(self, assignment):
        return None if self.bound_phase else channel_tag([assignment.lambda1 < 0.5] * 2)

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
    energy_formula = "band edges from the (n+1)-term polynomial identity per set"
    notes = ("the mirror branch lambda1 = -a reproduces the same spectra "
             "under a -> -a-1, b -> -b-1 and is not enumerated separately",)
    oracle = "band_edges"
    min_band_edges = 5             # the oracle solves at least this many edges
    verify_tol = 5e-4
    recipe_form = "cn^{0} * dn^{1} * P{n}(sn(x|m))"
    prefactor_poles = (("t=+1", 2), ("t=+1/sqrt(m)", 2))     # cn² = 1 − t², dn² = 1 − m·t²
    # branch indices (b1, d1, λ1) per set, 0 for the larger root: the mirror
    # λ1 = −a is not enumerated
    set_order = ((1, 1, 0), (0, 1, 0), (1, 0, 0), (0, 0, 0))

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
                + to_complex(self.shift).real)

    def to_t(self, x):
        return self._sn_cn_dn(x)[0]

    def x_window(self):
        return (0.0, 2.0 * elliptic_K(float(self.m)))

    # -- algebraic data -----------------------------------------------------
    def g_declaration(self):
        # t = sn:  Ṽ = ((shift + α·t²)·dn² + β·cn²)/dn², α = a(a+1)m, β = b(b+1)m,
        # cn² = 1 − t², dn² = 1 − m·t²;  u = cn²·dn²
        m, shift = self.m, self.shift
        al, be = self.a * (self.a + 1) * m, self.b * (self.b + 1) * m
        v = (shift + be, 0, al - shift * m - be, 0, -al * m)
        poles = (("t=+1", "t=-1"), 1), (("t=+1/sqrt(m)", "t=-1/sqrt(m)"), 1 / m)
        return poles, (v, (1, 0, -m)), (1, 0, -1 - m, 0, m)

    def bc_class(self, assignment):
        # the basis fixes P's parity to n's; the cn exponent is 0 or 1
        cn_exp, _dn = self.prefactor_exponents(assignment.pole_residues)
        flips = int(2 * to_complex(cn_exp).real) // 2 + int(assignment.n) % 2
        return "periodic" if flips % 2 == 0 else "antiperiodic"

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
        return 2 * sqrt(1 - self.m + self.m ** 2) - 2 * self.m - 2 if self.j == 2 else Fraction(0)


class AssociatedLameESModel(IntegerLameModel):
    """Associated family on the exactly-solvable line a = b = j (integer).

    The worked j = 1 entry ships with the additive constant 2√(1−m) − m − 2.
    """

    id = "assoc_lame_es"
    summary = "associated elliptic potential, exactly solvable slice"
    param_decls = (Param("j", "integer", "[1, 50]", "a = b = j line"), _ELLIPTIC_M, _SHIFT)
    b_equals_j = True

    def _default_shift(self):
        return 2 * sqrt(1 - self.m) - self.m - 2 if self.j == 1 else Fraction(0)


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

    @property
    def set_order(self):
        # QES_RELATIONS name d1 by its signed root 3/4 + b/2, the second of the
        # value-ordered pair when b < −1/2 (the mirror b ↦ −b − 1)
        d = int(self.b < Fraction(-1, 2))
        return ((0, d, 0), (0, 1 - d, 0), (1, d, 0), (1, 1 - d, 0))

    def _default_shift(self):
        a, b, m = self.a, self.b, self.m
        if (a, b) == (Fraction(2), Fraction(1)):
            return -4 * m
        if (a, b) == (Fraction(7, 2), Fraction(1, 2)):
            return sqrt(25 * m * m - 4 * m + 4) - 2 - Fraction(29, 4) * m
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
    energy_formula = "levels from the (n+1)-term polynomial identity per set"
    notes = ("lambda1 = -M/2 pairs with the exponential branch growing on "
             "the decay contour and is not enumerated",)
    qes_relations = ("n = (M - 1)/2", "n = (M - 3)/2", "n = M/2 - 1", "n = M/2 - 1")
    oracle = "pt"
    verify_tol = 1e-3
    recipe_form = "sinh^{0} * cosh^{1} * exp(i*zeta*cosh(2x)/2) * P{n}(cosh(2x))"
    prefactor_poles = (("t=+1", 2), ("t=-1", 2))     # sinh² = (t − 1)/2, cosh² = (t + 1)/2
    # branch indices (b1, b1', λ1) per set: 0 for the larger b, and λ1 = M/2
    set_order = ((1, 1, 0), (0, 0, 0), (0, 1, 0), (1, 0, 0))

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
        # t = cosh 2x:  Ṽ = −(ζt − iM)² = M² + 2iMζ·t − ζ²t², u = 4(t² − 1)
        v = (Fraction(self.M ** 2), 2 * self.M * self.zeta * sqrt(-1), -self.zeta ** 2)
        return _UNIT_POLES, (v, (1,)), (-4, 0, 4)

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
