"""Residue extraction rules, checked against independent oracles.

The moving-pole convention (residue of ψ'/ψ at a node of ψ is exactly 1)
is established here by a contour integral around a numerically located node
of an ODE solution — computed before the library value is compared.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from qhj.errors import EnergyRequiredError, UnsupportedExpansionError
from qhj.exactmath import Surd, sqrt, to_complex
from qhj.qmf_residues import (ORIGIN_FINITE, ORIGIN_INFINITY_A0_NONZERO,
                              ORIGIN_INFINITY_A0_ZERO, FixedPole,
                              InfinityExpansion, finite_pole_residues,
                              infinity_residues)

rational_g2 = st.fractions(min_value=-50, max_value=50)


def _winding_around_node():
    """Oracle: (1/2πi)∮ v'/v dz around a node of v'' + (1 + 0.3 z)v = 0.

    The solution v is produced by direct integration (no library code), the
    node is bisected on the real axis, and the contour integral accumulates
    along a circle around it.
    """
    def rhs_real(x, y):
        v, w = y
        return [w, -(1.0 + 0.3 * x) * v]

    sol = solve_ivp(rhs_real, (0.0, 6.0), [0.7, 1.0], dense_output=True,
                    rtol=1e-12, atol=1e-12)
    xs = np.linspace(0.2, 5.8, 2001)
    vals = sol.sol(xs)[0]
    sign_flip = np.nonzero(np.diff(np.sign(vals)) != 0)[0][0]
    lo, hi = xs[sign_flip], xs[sign_flip + 1]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if sol.sol(lo)[0] * sol.sol(mid)[0] <= 0:
            hi = mid
        else:
            lo = mid
    node = 0.5 * (lo + hi)

    v0, w0 = sol.sol(node - 0.35)[:2]
    radius = 0.35

    def rhs_contour(theta, y):
        z = node + radius * cmath.exp(1j * (theta + cmath.pi))
        dz = radius * 1j * cmath.exp(1j * (theta + cmath.pi))
        v, w, _acc = y
        return [w * dz, -(1.0 + 0.3 * z) * v * dz, (w / v) * dz]

    y0 = np.array([v0, w0, 0.0], dtype=complex)
    contour = solve_ivp(rhs_contour, (0.0, 2.0 * np.pi), y0,
                        rtol=1e-12, atol=1e-12)
    return contour.y[2, -1] / (2j * np.pi)


class TestMovingPole:
    def test_contour_oracle_and_convention(self):
        winding = _winding_around_node()
        assert abs(winding - 1.0) < 1e-6


class TestFinitePoleResidues:
    def test_integer_pole_strength_gives_exact_pair(self):
        pole = FixedPole(g2=Fraction(-2), label="t=0")
        branch = finite_pole_residues(pole)
        assert branch.origin == ORIGIN_FINITE
        assert branch.values == (Fraction(2), Fraction(-1))

    def test_second_root_is_one_minus_first_exactly(self):
        pole = FixedPole(g2=Fraction(3, 16), label="t=+1")
        branch = finite_pole_residues(pole)
        assert branch.values == (Fraction(3, 4), Fraction(1, 4))
        assert branch.values[0] + branch.values[1] == 1

    def test_energy_dependent_strength_requires_energy(self):
        # g2 = (1 − E)/4: a nonzero slope is where the sum rule solves for E
        pole = FixedPole(g2=Fraction(1, 4), label="t=i", slope=Fraction(-1, 4))
        with pytest.raises(EnergyRequiredError):
            finite_pole_residues(pole)

    def test_complex_strength(self):
        # every catalog strength is rational, so the residues take roots of rationals
        # only: a complex strength is refused, even where 1 − 4·g2 = 2i = (1 + i)²
        i = sqrt(-1)
        for g2 in (Fraction(1, 4) - i / 2, i / 4):
            with pytest.raises(ValueError):
                finite_pole_residues(FixedPole(g2=g2, label="t=+1"))

    def test_rational_complex_root_gives_an_exact_complex_pair(self):
        # 1 − 4·g2 = −4 = (2i)²: b = 1/2 ± i, Gaussian and exact
        i = sqrt(-1)
        pole = FixedPole(g2=Fraction(5, 4), label="t=0")
        branch = finite_pole_residues(pole)
        assert branch.values == (Fraction(1, 2) + i, Fraction(1, 2) - i)
        assert all(type(b) is Surd and b.p.gens == (-1,) for b in branch.values)
        assert all(b * b - b + pole.g2 == 0 for b in branch.values)

    def test_irrational_root_gives_surds(self):
        # 1 − 4·g2 = 2: b = (1 ± √2)/2, exact, with the root sum exactly 1
        pole = FixedPole(g2=Fraction(-1, 4), label="t=0")
        b1, b2 = finite_pole_residues(pole).values
        assert (type(b1), type(b2)) == (Surd, Surd)
        assert (b1, b2) == ((1 + sqrt(2)) / 2, (1 - sqrt(2)) / 2)
        assert b1 + b2 == 1 and b1 * b2 == pole.g2
        assert to_complex(b1) == pytest.approx((1 + math.sqrt(2)) / 2, rel=1e-15)

    def test_float_strength_is_refused(self):
        # a float carries no exactness claim: the residues refuse it, exact or not
        for g2 in (0.1875, 0.5):
            with pytest.raises(TypeError):
                finite_pole_residues(FixedPole(g2=g2, label="t=0"))
        pole = FixedPole(g2=Fraction(1, 2), label="t=0")     # 1 − 4·g2 = −1
        assert finite_pole_residues(pole).values == (
            Fraction(1, 2) + sqrt(-1) / 2, Fraction(1, 2) - sqrt(-1) / 2)

    @settings(max_examples=150, deadline=None)
    @given(g2=rational_g2)
    def test_root_sum_is_exactly_one(self, g2):
        pole = FixedPole(g2=g2, label="t=0")
        branch = finite_pole_residues(pole)
        b1, b2 = branch.values
        assert b1 + b2 == 1 and b1 * b2 == g2

    @settings(max_examples=150, deadline=None)
    @given(g2=rational_g2)
    def test_roots_satisfy_the_quadratic(self, g2):
        pole = FixedPole(g2=g2, label="t=0")
        for b in finite_pole_residues(pole).values:
            z = to_complex(b)
            assert abs(z * z - z + float(g2)) < 1e-10 * max(1.0, abs(float(g2)))

    @settings(max_examples=100, deadline=None)
    @given(g2=rational_g2)
    def test_larger_real_part_listed_first(self, g2):
        branch = finite_pole_residues(
            FixedPole(g2=g2, label="t=0"))
        z1, z2 = (to_complex(v) for v in branch.values)
        assert z1.real >= z2.real - 1e-15


class TestInfinityResidues:
    def test_nonzero_leading_coefficient(self):
        # G → −1 at infinity with G1 = 2: slopes ±1, exponents ∓1
        exp = InfinityExpansion(G0=Fraction(-1), G1=Fraction(2), G2=Fraction(0))
        branch = infinity_residues(exp)
        assert branch.origin == ORIGIN_INFINITY_A0_NONZERO
        pairs = list(zip(branch.values, branch.a0_values))
        assert (Fraction(1), Fraction(-1)) in pairs
        assert (Fraction(-1), Fraction(1)) in pairs

    def test_imaginary_slope_pair_is_exact(self):
        # G0 = ζ²/4 > 0 forces a0 = ±iζ/2 and exponents ±M/2
        zeta, M = Fraction(1, 4), 3
        exp = InfinityExpansion(G0=zeta * zeta / 4,
                                G1=-M * zeta / 2 * sqrt(-1),
                                G2=Fraction(0))
        branch = infinity_residues(exp)
        pairs = {(to_complex(l), to_complex(a)) for l, a in
                 zip(branch.values, branch.a0_values)}
        z = complex(0.0, float(zeta) / 2)
        assert pairs == {(complex(M / 2), z), (complex(-M / 2), -z)}
        exact = [l for l in branch.values if isinstance(l, Fraction)]
        assert len(exact) == 2          # the exponents come out exactly rational

    def test_irrational_slope_pair_is_exact(self):
        # a0² = −G0 = 2 has no rational root: a0 = ±√2 and λ1 = −G1/(2a0) = ∓1/√2
        branch = infinity_residues(InfinityExpansion(G0=Fraction(-2), G1=Fraction(2)))
        assert branch.origin == ORIGIN_INFINITY_A0_NONZERO
        r = sqrt(2)
        assert branch.values == (r / 2, -r / 2)
        assert branch.a0_values == (-r, r)
        assert all(type(v) is Surd for v in branch.values + branch.a0_values)
        assert all(2 * a0 * lam == -2 for lam, a0 in zip(branch.values, branch.a0_values))

    def test_float_leading_coefficient_is_refused(self):
        for expansion in (InfinityExpansion(G0=-1.0, G1=2.0),
                          InfinityExpansion(G0=Fraction(-1), G1=2.0)):
            with pytest.raises(TypeError):
                infinity_residues(expansion)

    def test_vanishing_leading_terms_give_quadratic_exponents(self):
        exp = InfinityExpansion(G0=Fraction(0), G1=Fraction(0), G2=Fraction(-6))
        branch = infinity_residues(exp)
        assert branch.origin == ORIGIN_INFINITY_A0_ZERO
        assert branch.values == (Fraction(3), Fraction(-2))
        assert branch.a0_values == (Fraction(0), Fraction(0))

    def test_odd_decay_is_rejected(self):
        exp = InfinityExpansion(G0=Fraction(0), G1=Fraction(1), G2=Fraction(0))
        with pytest.raises(UnsupportedExpansionError):
            infinity_residues(exp)

    def test_energy_dependent_leading_term(self):
        # G0 = E − 1, and G0 = E: a slope on G0 is refused whatever its value
        for g0 in (Fraction(-1), Fraction(0)):
            exp = InfinityExpansion(G0=g0, G1=Fraction(2), G2=Fraction(0),
                                    slopes=(Fraction(1), Fraction(0), Fraction(0)))
            with pytest.raises(EnergyRequiredError):
                infinity_residues(exp)
