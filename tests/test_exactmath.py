"""Exact rational/complex helpers used by the residue algebra."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qhj.exactmath import (ExactComplex, as_exact, exact_sqrt, expansion_at_infinity,
                           poly_add, poly_at, poly_der, poly_divmod, poly_mul, real_or_complex,
                           settle, sort_key, sqrt, sqrt_fraction, to_complex)

rationals = st.fractions(min_value=-100, max_value=100)


class TestSqrtFraction:
    def test_perfect_square(self):
        assert sqrt_fraction(Fraction(9, 4)) == Fraction(3, 2)

    def test_imperfect_square_is_none(self):
        assert sqrt_fraction(Fraction(2)) is None

    def test_negative_argument_is_rejected(self):
        with pytest.raises(ValueError):
            sqrt_fraction(Fraction(-1))

    @settings(max_examples=100, deadline=None)
    @given(q=rationals)
    def test_square_roundtrip(self, q):
        root = sqrt_fraction(q * q)
        assert root == abs(q)


class TestExactComplex:
    def test_arithmetic(self):
        z = ExactComplex(Fraction(1, 2), Fraction(3, 4))
        w = ExactComplex(Fraction(2), Fraction(-1))
        assert to_complex(z + w) == complex(2.5, -0.25)
        assert to_complex(z * w) == to_complex(z) * to_complex(w)
        q = z / w
        assert to_complex(q * w) == pytest.approx(to_complex(z), abs=1e-15)

    def test_sqrt_of_negative_real(self):
        z = ExactComplex(Fraction(-9, 4), Fraction(0))
        root = z.sqrt()
        assert root is not None
        assert to_complex(root) == complex(0.0, 1.5)

    def test_sqrt_general_exact_case(self):
        # (1 + 2i)² = −3 + 4i: the root of −3+4i is exactly representable
        z = ExactComplex(Fraction(-3), Fraction(4))
        root = z.sqrt()
        assert root is not None
        assert to_complex(root * root) == pytest.approx(-3 + 4j, abs=1e-15)

    def test_sqrt_inexact_case_is_none(self):
        assert ExactComplex(Fraction(1), Fraction(1)).sqrt() is None

    def test_only_zero_is_false(self):
        assert not ExactComplex(0, 0)
        assert ExactComplex(0, Fraction(1, 3)) and ExactComplex(-2, 0)

    def test_parts_are_fractions_and_fractions_are_kept(self):
        half = Fraction(1, 2)
        z = ExactComplex(half, Fraction(0))
        assert z.re is half
        w = ExactComplex(1, 2)
        assert (type(w.re), type(w.im)) == (Fraction, Fraction)

    @pytest.mark.parametrize("other", [3, Fraction(3), True])
    def test_exact_real_operands_stay_exact(self, other):
        z = ExactComplex(Fraction(1, 2), Fraction(-1))
        value = int(other)
        for got, want in [(z + other, (Fraction(1, 2) + value, -1)),
                          (other - z, (value - Fraction(1, 2), 1)),
                          (z * other, (Fraction(value, 2), -value))]:
            assert isinstance(got, ExactComplex) and (got.re, got.im) == want
        assert ExactComplex(value, 0) == other


class TestConversions:
    def test_as_exact(self):
        assert as_exact(3) == Fraction(3)
        assert as_exact(Fraction(1, 3)) == Fraction(1, 3)
        assert as_exact(0.5) is None          # floats are never trusted as exact
        assert as_exact(1 + 2j) is None       # same for float-backed complex
        z = ExactComplex(Fraction(1), Fraction(2))
        assert as_exact(z) is z

    def test_real_or_complex_drops_only_an_exactly_zero_imaginary_part(self):
        for value, want in [(Fraction(1, 4), 0.25), (ExactComplex(-3, 0), -3.0), (2 + 0j, 2.0)]:
            got = real_or_complex(value)
            assert type(got) is float and got == want
        for value in (ExactComplex(1, Fraction(1, 10 ** 20)), 1 + 1e-300j):
            got = real_or_complex(value)
            assert type(got) is complex and got.imag != 0.0

    def test_exact_sqrt(self):
        assert exact_sqrt(Fraction(16, 25)) == Fraction(4, 5)
        assert exact_sqrt(Fraction(-4)) == ExactComplex(Fraction(0), Fraction(2))
        assert exact_sqrt(Fraction(3)) is None


class TestOneRule:
    def test_sqrt_is_exact_when_rational_else_complex_float(self):
        assert sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert sqrt(-4) == ExactComplex(0, 2)
        assert sqrt(ExactComplex(3, 4)) == ExactComplex(2, 1)
        for value in (Fraction(2), 2.25, ExactComplex(1, 1)):
            assert type(sqrt(value)) is complex
        assert sqrt(Fraction(2)) == pytest.approx(2 ** 0.5)

    def test_settle(self):
        assert type(settle(ExactComplex(Fraction(1, 3), 0))) is Fraction
        assert type(settle(3)) is Fraction
        assert settle(ExactComplex(1, 2)) == ExactComplex(1, 2)
        assert settle(complex(2.0, 1e-15)) == 2.0 and type(settle(complex(2.0, 1e-15))) is float
        assert type(settle(complex(2.0, 1e-13))) is complex
        assert type(settle(0.5)) is float


class TestSortKey:
    def test_larger_real_sorts_first(self):
        vals = [Fraction(1, 2), Fraction(3, 2), complex(1.5, -1), complex(1.5, 2)]
        ordered = sorted(vals, key=sort_key)
        assert to_complex(ordered[0]) == complex(1.5, 2)
        assert to_complex(ordered[1]) == complex(1.5, 0)
        assert to_complex(ordered[2]) == complex(1.5, -1)
        assert to_complex(ordered[3]) == complex(0.5, 0)


polys = st.lists(rationals, min_size=1, max_size=5)


class TestExactPolynomials:
    @settings(max_examples=100, deadline=None)
    @given(p=polys, q=polys, t=rationals)
    def test_sum_product_and_derivative_at_a_point(self, p, q, t):
        assert poly_at(poly_add(p, q), t) == poly_at(p, t) + poly_at(q, t)
        assert poly_at(poly_mul(p, q), t) == poly_at(p, t) * poly_at(q, t)
        # d/dt (t − a)·p = p + (t − a)·p'
        assert poly_der(poly_mul((-t, 1), p)) == poly_add(p, poly_mul((-t, 1), poly_der(p)))

    @settings(max_examples=100, deadline=None)
    @given(p=polys, q=polys, r=polys)
    def test_division_by_an_exact_leading_coefficient(self, p, q, r):
        # (p·q + r) ÷ q = p with remainder r, whatever q's nonzero leading coefficient
        assume(q[-1] != 0)
        r = r[:len(q) - 1]
        quo, rem = poly_divmod(poly_add(poly_mul(p, q), r), q)
        assert quo == p and rem == r + [0] * (len(q) - 1 - len(r))

    def test_complex_coefficients_stay_exact(self):
        i = ExactComplex(0, 1)
        assert poly_mul((i, 1), (-i, 1)) == [1, 0, 1]         # (t + i)(t − i)
        assert poly_at((1, 0, 1), i) == 0

    def test_exact_complex_zeros_are_skipped(self):
        # a zero coefficient adds no term, so its slot keeps the Fraction 0
        zero, i = ExactComplex(0, 0), ExactComplex(0, 1)
        out = poly_mul((zero, 1), (i, zero))
        assert out == [0, i, 0] and [type(c) for c in out] == [Fraction, ExactComplex, Fraction]

    @settings(max_examples=100, deadline=None)
    @given(a=rationals, b=rationals, c=rationals)
    def test_expansion_at_infinity(self, a, b, c):
        # (b + c·t)/(t − a) = c + (b + ac)/t + a(b + ac)/t² + …
        assert expansion_at_infinity([b, c], [-a, 1]) == [c, b + a * c, a * (b + a * c)]
        # a lower-degree numerator starts the series later: 1/(t² − a) = 1/t² + …
        assert expansion_at_infinity([1], [-a, 0, 1]) == [0, 0, 1]
