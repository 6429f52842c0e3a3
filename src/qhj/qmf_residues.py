"""Residues of the quantum momentum function at its fixed and moving poles.

The logarithmic-derivative form χ = ψ'/ψ of the quantum momentum function
satisfies the Riccati equation χ² + χ' + G(y) = 0 (units ħ = 1, 2m = 1).
Near a fixed double pole of G, G ~ g2/(y−y0)², the residue b of χ obeys
b² − b + g2 = 0.  At infinity, χ ~ a0 + λ1/y with a0² = −G0 and
2·a0·λ1 + G1 = 0 when a0 ≠ 0, or λ1² − λ1 + G2 = 0 when G0 = G1 = 0.
Moving poles (zeros of ψ) all carry residue exactly 1 in χ
(equivalently −iħ in the momentum convention p = −iħχ).

Wherever the inputs are rational the branch pairs are produced in exact
arithmetic, with the second branch computed as (1 − first) so the root sum
is exactly 1 by construction.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple, Union

from .errors import EnergyRequiredError, UnsupportedExpansionError
from .exactmath import ExactComplex, as_exact, exact_sqrt, sort_key, to_complex

Scalar = Union[int, float, complex, Fraction, ExactComplex]
Coefficient = Union[Scalar, Callable[[Scalar], Scalar]]

ORIGIN_FINITE = "finite_pole"
ORIGIN_INFINITY_A0_NONZERO = "infinity_a0_nonzero"
ORIGIN_INFINITY_A0_ZERO = "infinity_a0_zero"


@dataclass(frozen=True)
class FixedPole:
    """A fixed double pole of G(y) at a parameter-determined location.

    g2 is the coefficient of 1/(y−location)²; it may be a plain scalar or a
    callable of the energy for models whose pole strength moves with E.
    prefactor_offset is the exponent share the change of variable contributes
    at this pole (it is subtracted from the residue when building the
    wavefunction prefactor exponent).
    """

    location: complex
    g2: Coefficient
    prefactor_offset: Fraction = Fraction(0)
    label: str = ""

    def strength(self, energy=None):
        return _eval_coefficient(self.g2, energy, "pole strength g2")


@dataclass(frozen=True)
class InfinityExpansion:
    """Leading coefficients of G(y) = G0 + G1/y + G2/y² + O(1/y³) at |y|→∞."""

    G0: Coefficient = 0
    G1: Coefficient = 0
    G2: Coefficient = 0

    def coefficients(self, energy=None):
        return (_eval_coefficient(self.G0, energy, "G0"),
                _eval_coefficient(self.G1, energy, "G1"),
                _eval_coefficient(self.G2, energy, "G2"))


@dataclass(frozen=True)
class ResidueBranch:
    """The ordered pair of residue values produced by one quadratic branch.

    values are ordered by descending real part (ties: descending imaginary
    part).  For the infinity origin with a0 ≠ 0, a0_values[i] is the
    exponential slope paired with values[i] (the large-argument residue λ1).
    """

    values: Tuple[Scalar, Scalar]
    origin: str
    a0_values: Optional[Tuple[Scalar, Scalar]] = None


def _eval_coefficient(coeff, energy, what):
    if callable(coeff):
        if energy is None:
            raise EnergyRequiredError("%s depends on the energy; pass one" % what)
        return coeff(energy)
    return coeff


def _is_zero(value):
    e = as_exact(value)
    if e is not None:
        return e == 0
    return to_complex(value) == 0


def _quadratic_branch_pair(q):
    """Ordered roots (r, 1−r) of  b² − b + q = 0, exact when q is rational."""
    e = as_exact(q)
    if e is not None:
        disc = 1 - 4 * e
        root = exact_sqrt(disc)
        if root is not None:
            first = (1 + root) / 2
            if isinstance(first, ExactComplex) and first.is_real:
                first = first.as_fraction()
            second = 1 - first
            pair = [first, second]
            pair.sort(key=sort_key)
            return tuple(pair)
        q = to_complex(e)
    disc = 1 - 4 * to_complex(q)
    root = cmath.sqrt(disc)
    first = (1 + root) / 2
    second = 1 - first
    if abs(first.imag) < 1e-14 * max(1.0, abs(first.real)):
        first, second = first.real, second.real
    pair = [first, second]
    pair.sort(key=sort_key)
    return tuple(pair)


def finite_pole_residues(pole, energy=None):
    """Residue branch pair of χ at a fixed pole: roots of b² − b + g2 = 0."""
    g2 = pole.strength(energy)
    return ResidueBranch(values=_quadratic_branch_pair(g2), origin=ORIGIN_FINITE)


def infinity_residues(expansion, energy=None):
    """Large-argument residue data of χ from the expansion of G.

    Returns a ResidueBranch.  With G0 ≠ 0 the two entries are
    (a0, λ1) = (±sqrt(−G0), −G1/(2a0)); with G0 = G1 = 0 they are the two
    roots of λ1² − λ1 + G2 = 0 (a0 = 0).  G0 = 0 with G1 ≠ 0 has no
    expansion of the assumed form and raises UnsupportedExpansionError.
    """
    g0, g1, g2 = expansion.coefficients(energy)
    if _is_zero(g0):
        if not _is_zero(g1):
            raise UnsupportedExpansionError(
                "expansion with G0 = 0 but G1 != 0 is outside the supported form")
        values = _quadratic_branch_pair(g2)
        zero = Fraction(0)
        return ResidueBranch(values=values, origin=ORIGIN_INFINITY_A0_ZERO,
                             a0_values=(zero, zero))

    # a0² = −G0 branch pair, exact when possible
    pairs = []
    e0 = as_exact(g0)
    e1 = as_exact(g1)
    a0_exact = exact_sqrt(-e0) if e0 is not None else None
    if a0_exact is not None and e1 is not None:
        for a0 in (a0_exact, -a0_exact):
            lam = -e1 / (2 * a0) if isinstance(a0, ExactComplex) else Fraction(-e1, 1) / (2 * a0)
            if isinstance(lam, ExactComplex) and lam.is_real:
                lam = lam.as_fraction()
            if isinstance(a0, ExactComplex) and a0.is_real:
                a0 = a0.as_fraction()
            pairs.append((lam, a0))
    else:
        root = cmath.sqrt(-to_complex(g0))
        for a0 in (root, -root):
            lam = -to_complex(g1) / (2 * a0)
            if abs(lam.imag) < 1e-14 * max(1.0, abs(lam.real)):
                lam = lam.real
            pairs.append((lam, a0))
    pairs.sort(key=lambda p: sort_key(p[0]) + sort_key(p[1]))
    return ResidueBranch(values=(pairs[0][0], pairs[1][0]),
                         origin=ORIGIN_INFINITY_A0_NONZERO,
                         a0_values=(pairs[0][1], pairs[1][1]))


def moving_pole_residue(convention="chi"):
    """Residue at a moving pole (node of ψ): 1 for χ, −i for p = −iħχ (ħ=1)."""
    if convention == "chi":
        return 1
    if convention == "p":
        return complex(0.0, -1.0)
    raise ValueError("unknown convention %r (use 'chi' or 'p')" % (convention,))
