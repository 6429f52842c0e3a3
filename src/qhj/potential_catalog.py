"""Catalog of solvable potentials and their quantum-momentum-function data.

Every entry describes one potential family in units ħ = 1, 2m = 1 and carries
the full algebraic data the solver needs:

* the physical potential V(x) and the change of variable t = f(x) that makes
  the logarithmic-derivative Riccati equation rational in t,
* u(t) = F(t)² with F = df/dx expressed in t (a polynomial),
* the fixed poles of G(t) with their strengths g2,
* the large-argument expansion coefficients (G0, G1, G2) of G,
* the polynomials Πclear²·G = A(t) + E·B(t) (Πclear = product of pole
  monomials), which drive the polynomial-identity construction,
* the residue sets with their admissibility verdicts, the closed-form levels
  where they exist, the classical-polynomial twin of the node polynomial and
  the oracle channel of each level (periodicity class or wall roots),
* the wavefunction prefactors f_j(x) and the mapped variable t at sample
  points (prefactors), the exponents e_j a residue set gives them, the
  change of variable's offset at each pole included (prefactor_exponents),
  and a display template (recipe_form); one assembler, PotentialModel.recipe,
  builds ψ = Π_j f_j^e_j · e^(a0·t) · P(t) for every family,
* which oracle solves the family, on which domain, and how `verify` scores it.

The transformed Riccati equation is χ² + χ' + G(t) = 0 with
G = (E − Ṽ(t))/u + [−u''/(4u) + 3u'²/(16u²)], where Ṽ(t) = V(x(t)) and
primes are d/dt.  Everything here is either exact rational data or plain
polynomial coefficient arrays; no provenance strings, just math.

A new family is one PotentialModel subclass here plus its parameter
declarations (param_decls) and its entry in the class tuple behind
MODEL_CLASSES; no other module knows the family ids.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Dict, Tuple

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import ParameterError, SingularPointError, UnknownModelError
from .exactmath import ExactComplex, real_or_complex, to_complex
from .qmf_residues import FixedPole, InfinityExpansion, finite_pole_residues
from .quantization import ResidueAssignment, level_verdict
from .schrodinger_oracle import OracleDomain, channel_tag
from .special_functions import elliptic_K, jacobi_polynomial, laguerre, sn_cn_dn


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

    # -- pole/expansion data --------------------------------------------------
    def fixed_poles(self) -> Tuple[FixedPole, ...]:
        raise NotImplementedError

    def infinity_expansion(self) -> InfinityExpansion:
        raise NotImplementedError

    def u_poly(self):
        """Ascending coefficients of u(t) = F²."""
        raise NotImplementedError

    def pi2_g_polys(self):
        """(A, B): ascending coefficient arrays with Πclear²·G = A(t) + E·B(t)."""
        raise NotImplementedError

    # -- derived helpers ------------------------------------------------------
    def g_value(self, t, energy):
        """G(t) evaluated from the stored polynomials (for diagnostics)."""
        a, b = self.pi2_g_polys()
        pi = P.polyfromroots([to_complex(p.location) for p in self.fixed_poles()])
        t = np.asarray(t, dtype=complex)
        num = poly_eval(a, t) + to_complex(energy) * poly_eval(b, t)
        den = poly_eval(pi, t) ** 2
        return num / den

    # -- residue sets and levels -----------------------------------------------
    def assignments(self):
        """Every candidate residue set, in set-label order, with its verdict."""
        raise NotImplementedError

    def levels(self, sets, count):
        """Exact level rows from assignments() sets; [] for pencil families."""
        return []

    def classical_polynomial(self, assignment):
        """(family, indices, evaluator(t)) of the classical node polynomial, or None."""
        return None

    def classical_range(self, n):
        """(lo, hi) of the t samples comparing a degree-n kernel with its twin."""
        return (-0.9, 0.9)

    def bc_class(self, assignment, parity):
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

    def fixed_poles(self):
        return (FixedPole(location=0.0, g2=Fraction(-self.l * (self.l + 1)), label="t=0"),)

    def infinity_expansion(self):
        kappa2 = self.kappa2
        return InfinityExpansion(G0=lambda E: E - kappa2,
                                 G1=self.e2,
                                 G2=Fraction(-self.l * (self.l + 1)))

    def u_poly(self):
        return np.array([1.0])

    def pi2_g_polys(self):
        lf = float(self.l)
        a = np.array([-lf * (lf + 1), float(self.e2), -float(self.kappa2)])
        b = np.array([0.0, 0.0, 1.0])
        return a, b

    def assignments(self):
        branch = finite_pole_residues(self.fixed_poles()[0])
        out = []
        for label, b1 in enumerate(branch.values, start=1):
            out.append(ResidueAssignment(
                set_label=label,
                pole_residues={"t=0": b1},
                lambda1=None, a0=None, n=None,
                reason=None if b1 > 0 else "origin_exponent_nonpositive",
            ))
        return out

    def levels(self, sets, count):
        origin = next(a for a in sets if a.admissible)     # residue l + 1
        out = []
        for n in range(count):
            lam = Fraction(n + self.l + 1)
            out.append(replace(
                origin, lambda1=lam, a0=-self.e2 / (2 * lam), n=n,
                energy=self.kappa2 - self.e2 * self.e2 / (4 * lam * lam)))
        return out

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

class TwoWallJacobiModel(PotentialModel):
    """Shared algebra of the Scarf wells, parametrized by strengths A and B.

    Fixed poles at t = ±1 with strengths g2(A ± B) and offsets 1/4; each
    wall takes one of its two residues, giving four sets.  Admissible sets
    carry closed-form levels λ1 = b1 + b1' + n, their node polynomials are
    Jacobi polynomials P_n^(2b1−1, 2b1'−1)(t), and ψ = (1−t)^e₊ (1+t)^e₋ P(t)
    with e = b − 1/4.  Prefactor order: (1 − t, 1 + t).

    Subclasses give the wall strength _g2(X), the set filter
    _admissible(b₊, b₋) and _energy(b₊ + b₋, n), which is None past the
    last normalizable level.
    """

    spectrum_kind = "es_spectrum"
    reject_reason = None           # verdict of an inadmissible set

    def fixed_poles(self):
        return (
            FixedPole(location=1.0, g2=self._g2(self.A + self.B), label="t=+1"),
            FixedPole(location=-1.0, g2=self._g2(self.A - self.B), label="t=-1"),
        )

    def assignments(self):
        plus, minus = (finite_pole_residues(p) for p in self.fixed_poles())
        out = []
        for bp in plus.values:
            for bm in minus.values:
                out.append(ResidueAssignment(
                    set_label=len(out) + 1,
                    pole_residues={"t=+1": bp, "t=-1": bm},
                    lambda1=None, a0=0, n=None,
                    reason=None if self._admissible(bp, bm) else self.reject_reason,
                ))
        return out

    def levels(self, sets, count):
        out = []
        for a in sets:
            if not a.admissible:
                continue
            s_sum = a.pole_residues["t=+1"] + a.pole_residues["t=-1"]
            for n in range(count):
                energy = self._energy(s_sum, n)
                if energy is None:
                    break
                out.append(replace(a, lambda1=s_sum + n, n=n, energy=energy))
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

    def _g2(self, X):
        return Fraction(3, 16) - X * (X - self.alpha) / (4 * self.alpha**2)

    def bc_class(self, assignment, parity):   # principal: the pole's first residue
        return channel_tag([assignment.pole_residues[p.label] == finite_pole_residues(p).values[0]
                            for p in reversed(self.fixed_poles())])

    def _admissible(self, bp, bm):
        exps = self.prefactor_exponents({"t=+1": bp, "t=-1": bm})
        return all(to_complex(e).real > 0 for e in exps)

    def _energy(self, s_sum, n):
        root = self.alpha * (s_sum + n - Fraction(1, 2))     # = sqrt(E + A²)
        return root * root - self.A * self.A

    def infinity_expansion(self):
        A, al = self.A, self.alpha
        return InfinityExpansion(G0=Fraction(0), G1=Fraction(0),
                                 G2=lambda E: Fraction(1, 4) - (E + A * A) / (al * al))

    def u_poly(self):
        al2 = float(self.alpha) ** 2
        return np.array([al2, 0.0, -al2])

    def pi2_g_polys(self):
        A, B, al = self.A, self.B, self.alpha
        al2 = float(al * al)
        n0 = float(A * A + B * B - A * al)
        n1 = float(B * (2 * A - al))
        a = np.array([0.5 + (float(A * A) - n0) / al2,
                      -n1 / al2,
                      0.25 - float(A * A) / al2])
        b = np.array([1.0 / al2, 0.0, -1.0 / al2])
        return a, b


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

    def _g2(self, X):
        return Fraction(3, 16) - X / 4

    def _admissible(self, bp, bm):
        # −(S − 1/2) is the decay margin; level n needs Re > n ≥ 0
        return to_complex(Fraction(1, 2) - bp - bm).real > 0

    def _energy(self, s_sum, n):
        if not n < to_complex(Fraction(1, 2) - s_sum).real:   # strict square-integrability cut
            return None
        energy = -(to_complex(s_sum + n - Fraction(1, 2)) ** 2)
        if abs(energy.imag) < 1e-13 * max(1.0, abs(energy.real)):
            energy = energy.real
        return energy

    def infinity_expansion(self):
        return InfinityExpansion(G0=Fraction(0), G1=Fraction(0),
                                 G2=lambda E: E + Fraction(1, 4))

    def u_poly(self):
        return np.array([-1.0, 0.0, 1.0])

    def pi2_g_polys(self):
        a = np.array([complex(0.5 - float(self.A)), complex(-float(self.B)), complex(0.25)])
        b = np.array([-1.0 + 0j, 0j, 1.0 + 0j])
        return a, b


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

    def fixed_poles(self):
        def g2(E):
            return (1 - E) / 4
        return (
            FixedPole(location=1j, g2=g2, label="t=+i"),
            FixedPole(location=-1j, g2=g2, label="t=-i"),
        )

    def infinity_expansion(self):
        return InfinityExpansion(G0=Fraction(0), G1=Fraction(0),
                                 G2=Fraction(1, 4) - self.s * self.s)

    def u_poly(self):
        return np.array([1.0, 0.0, 2.0, 0.0, 1.0])

    def pi2_g_polys(self):
        c = float(Fraction(1, 4) - self.s * self.s)
        a = np.array([-1.0 + c, 0.0, c])
        b = np.array([1.0, 0.0, 0.0])
        return a, b

    def assignments(self):
        out = []
        for label, bsign, dsign in self._SETS:
            d1 = Fraction(1, 2) + dsign * self.s
            # level formula: λ = n + 1 − d1 for the (1−λ)/2 branch,
            #                λ = d1 − 1 − n for the (1+λ)/2 branch, whose
            #                λ(0) = d1 − 1 > 0 already breaks d1 < 1
            if bsign > 0 and not d1 - 1 > 0:
                reason = "negative_energy_root"
            elif not d1 < 1 or (self.bound_phase and dsign > 0):
                reason = "cell_wall_divergence"
            else:
                reason = None
            out.append(ResidueAssignment(set_label=label, pole_residues={}, lambda1=d1,
                                         a0=0, n=None, reason=reason))
        return out

    def levels(self, sets, count):
        out = []
        for a in sets:
            if not a.admissible:
                continue
            for n in range(count):
                lam = n + 1 - a.lambda1
                if lam < 0:
                    continue
                b = (1 - lam) / 2
                out.append(replace(a, pole_residues={"t=+i": b, "t=-i": b},
                                   n=n, energy=lam * lam))
        return out

    def classical_polynomial(self, assignment):
        n = int(assignment.n)
        nu = 2 * to_complex(assignment.pole_residues["t=+i"]).real - 1

        def evaluator(t):
            return jacobi_polynomial(n, nu, nu, -1j * np.asarray(t, dtype=complex))
        return ("jacobi", (nu, nu), evaluator)

    def bc_class(self, assignment, parity):
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

def _elliptic_clear_polys(m):
    """Πclear = (t²−1)(t²−1/m) and u = m·Πclear for the sn-mapped families."""
    mf = float(m)
    pi = np.array([1.0 / mf, 0.0, -(1.0 + 1.0 / mf), 0.0, 1.0])
    u = mf * pi
    return pi, u


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
    def fixed_poles(self):
        g2d = Fraction(3, 16) - self.b * (self.b + 1) / 4
        inv_sqrt_m = 1.0 / math.sqrt(float(self.m))
        return (
            FixedPole(location=1.0, g2=Fraction(3, 16), label="t=+1"),
            FixedPole(location=-1.0, g2=Fraction(3, 16), label="t=-1"),
            FixedPole(location=inv_sqrt_m, g2=g2d, label="t=+1/sqrt(m)"),
            FixedPole(location=-inv_sqrt_m, g2=g2d, label="t=-1/sqrt(m)"),
        )

    def infinity_expansion(self):
        return InfinityExpansion(G0=Fraction(0), G1=Fraction(0),
                                 G2=-self.a * (self.a + 1))

    def u_poly(self):
        return _elliptic_clear_polys(self.m)[1]

    def pi2_g_polys(self):
        pi, _u = _elliptic_clear_polys(self.m)
        mf = float(self.m)
        af, bf = float(self.a), float(self.b)
        # (E − shift − a(a+1)m t²)·Π/m  − b(b+1)(1−t²)²/m  + [−Π''Π/4 + 3Π'²/16]
        const_part = P.polymul(np.array([-float(self.shift), 0.0, -af * (af + 1) * mf]), pi) / mf
        bterm = -bf * (bf + 1) / mf * P.polymul(np.array([1.0, 0.0, -1.0]),
                                                np.array([1.0, 0.0, -1.0]))
        d2 = P.polyder(pi, 2)
        fpart = P.polyadd(-P.polymul(d2, pi) / 4.0, 3.0 * P.polymul(P.polyder(pi), P.polyder(pi)) / 16.0)
        a_poly = P.polyadd(P.polyadd(const_part, bterm), fpart)
        b_poly = pi / mf
        return a_poly, b_poly

    def assignments(self):
        b1s = {+1: Fraction(3, 4), -1: Fraction(1, 4)}
        d1s = {+1: Fraction(3, 4) + self.b / 2, -1: Fraction(1, 4) - self.b / 2}
        lam1 = self.a + 1
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

    def bc_class(self, assignment, parity):
        cn_exp, _dn = self.prefactor_exponents(assignment.pole_residues)
        flips = int(2 * to_complex(cn_exp).real) // 2  # cn exponent is 0 or 1
        flips += 1 if parity == "odd" else 0
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
             "the decay contour and is rejected by contour_decay",)
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

    def fixed_poles(self):
        return (
            FixedPole(location=1.0, g2=Fraction(3, 16), label="t=+1"),
            FixedPole(location=-1.0, g2=Fraction(3, 16), label="t=-1"),
        )

    def infinity_expansion(self):
        z, M = self.zeta, self.M
        return InfinityExpansion(
            G0=z * z / 4,
            G1=ExactComplex(Fraction(0), -Fraction(M) * z / 2),
            G2=lambda E: (E - M * M + z * z + 1) / 4,
        )

    def u_poly(self):
        return np.array([-4.0, 0.0, 4.0])

    def pi2_g_polys(self):
        zf, M = float(self.zeta), self.M
        pi = np.array([-1.0, 0.0, 1.0])
        # (E + (ζt − iM)²)·Π/4 + (t² + 2)/4
        vsq = np.array([complex(-M * M), complex(0, -2 * M * zf), complex(zf * zf)])
        a_poly = P.polyadd(P.polymul(vsq, pi) / 4.0, np.array([0.5, 0.0, 0.25], dtype=complex))
        b_poly = pi.astype(complex) / 4.0
        return a_poly, b_poly

    def assignments(self):
        lam1 = Fraction(self.M, 2)
        a0 = ExactComplex(Fraction(0), self.zeta / 2)
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
