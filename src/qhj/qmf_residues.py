"""Residues of the quantum momentum function at its fixed and moving poles.

The logarithmic-derivative form χ = ψ'/ψ of the quantum momentum function
satisfies the Riccati equation χ² + χ' + G(y) = 0 (units ħ = 1, 2m = 1).
Near a fixed double pole of G, G ~ g2/(y−y0)², the residue b of χ obeys
b² − b + g2 = 0.  At infinity, χ ~ a0 + λ1/y with a0² = −G0 and
2·a0·λ1 + G1 = 0 when a0 ≠ 0, or λ1² − λ1 + G2 = 0 when G0 = G1 = 0.
Moving poles (zeros of ψ) all carry residue exactly 1 in χ
(equivalently −iħ in the momentum convention p = −iħχ).  Each coefficient of
G is exact data, its value at E = 0 plus its exact slope in E; the residues
refuse one they read with a nonzero slope (EnergyRequiredError), since there
the sum rule solves for E instead (quantization.closed_form_levels).

Each pair is computed once, on exactmath's rules: every coefficient read is
settled (a float is refused), and a square root is exact, a Fraction when it
is rational and a quadratic surd (Surd) otherwise.  So every pair is exact,
and the second branch is computed as (1 − first), so the root sum is exactly
1 by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .errors import EnergyRequiredError, UnsupportedExpansionError
from .exactmath import Surd, settle, sort_key, sqrt

Scalar = Union[int, Fraction, Surd]

ORIGIN_FINITE = "finite_pole"
ORIGIN_INFINITY_A0_NONZERO = "infinity_a0_nonzero"
ORIGIN_INFINITY_A0_ZERO = "infinity_a0_zero"


@dataclass(frozen=True)
class FixedPole:
    """A fixed double pole of G(y) at a location y0 the model declares.

    g2 + E·slope is the coefficient of 1/(y−y0)², the slope nonzero where
    the pole strength moves with E.  label keys the pole's residue b in
    ResidueAssignment.pole_residues; the catalog's one rule,
    PotentialModel.prefactor_exponents, turns b into the exponent p·(b − k/4)
    of a wavefunction prefactor f with f^p ∝ the pole's factor, k being how
    many times that factor divides u = (dy/dx)².
    """

    g2: Scalar
    label: str = ""
    slope: Scalar = 0


@dataclass(frozen=True)
class InfinityExpansion:
    """G(y) = G0 + G1/y + G2/y² + O(1/y³) at |y|→∞: Gk at E = 0, Gk + E·slopes[k] at E."""

    G0: Scalar = 0
    G1: Scalar = 0
    G2: Scalar = 0
    slopes: Tuple[Scalar, Scalar, Scalar] = (0, 0, 0)


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


def _energy_free(value, slope, what):
    """value, settled; refused when the coefficient moves with E (the sum rule solves for E)."""
    if slope != 0:
        raise EnergyRequiredError("%s depends on the energy" % what)
    return settle(value)


def _quadratic_branch_pair(q):
    """Ordered roots (r, 1−r) of  b² − b + q = 0, exactly."""
    first = (1 + sqrt(1 - 4 * q)) / 2
    return tuple(sorted((first, 1 - first), key=sort_key))


def finite_pole_residues(pole):
    """Residue branch pair of χ at a fixed pole: roots of b² − b + g2 = 0."""
    g2 = _energy_free(pole.g2, pole.slope, "pole strength g2")
    return ResidueBranch(values=_quadratic_branch_pair(g2), origin=ORIGIN_FINITE)


def infinity_residues(expansion):
    """Large-argument residue data of χ from the expansion of G.

    Returns a ResidueBranch.  With G0 ≠ 0 the two entries are
    (a0, λ1) = (±sqrt(−G0), −G1/(2a0)); with G0 = G1 = 0 they are the two
    roots of λ1² − λ1 + G2 = 0 (a0 = 0).  A coefficient it reads with a
    nonzero slope raises EnergyRequiredError; G2 is read only when G0 ≡ G1 ≡
    0, so an E-dependent G2 is no obstacle when G0 ≠ 0.  G0 = 0 with G1 ≠ 0
    has no expansion of the assumed form and raises UnsupportedExpansionError.
    """
    d0, d1, d2 = expansion.slopes
    g0 = _energy_free(expansion.G0, d0, "G0")
    g1 = _energy_free(expansion.G1, d1, "G1")
    if g0 == 0:
        if g1 != 0:
            raise UnsupportedExpansionError(
                "expansion with G0 = 0 but G1 != 0 is outside the supported form")
        values = _quadratic_branch_pair(_energy_free(expansion.G2, d2, "G2"))
        zero = Fraction(0)
        return ResidueBranch(values=values, origin=ORIGIN_INFINITY_A0_ZERO,
                             a0_values=(zero, zero))
    root = sqrt(-g0)
    pairs = sorted(((-g1 / (2 * a0), a0) for a0 in (root, -root)),
                   key=lambda p: sort_key(p[0]) + sort_key(p[1]))
    return ResidueBranch(values=(pairs[0][0], pairs[1][0]),
                         origin=ORIGIN_INFINITY_A0_NONZERO,
                         a0_values=(pairs[0][1], pairs[1][1]))
