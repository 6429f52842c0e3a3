"""Exact rational/complex helpers used by the residue algebra."""

from fractions import Fraction
from functools import reduce
from itertools import zip_longest

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qhj.exactmath import (ExactComplex, Poly, as_exact, exact_sqrt, real_or_complex, settle,
                           sort_key, sqrt, sqrt_fraction, to_complex)

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


# -- the reference: ascending coefficient lists of Fraction/ExactComplex ------

def _ref_add(*polys):
    return [sum(cs, Fraction(0)) for cs in zip_longest(*polys, fillvalue=0)]


def _ref_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        for k, d in enumerate(q):
            if c and d:
                out[i + k] += c * d
    return out


def _ref_der(p):
    return [Fraction(k) * c for k, c in enumerate(p)][1:]


def _ref_divmod(num, den):
    d, rem, lead = len(den) - 1, list(num), den[-1]
    quo = [Fraction(0)] * max(len(num) - d, 1)
    for k in range(len(num) - d - 1, -1, -1):
        quo[k] = rem[k + d] / lead
        for i, c in enumerate(den):
            rem[k + i] -= quo[k] * c
    return quo, rem[:d]


def _ref_at(p, t):
    return reduce(lambda acc, c: acc * t + c, reversed(p), Fraction(0))


def _ref_expansion(num, den, terms=3):
    d = len(den) - 1
    n, m = ([p[d - k] if k <= d < len(p) + k else 0 for k in range(terms)] for p in (num, den))
    out = []
    for k in range(terms):
        out.append(n[k] - sum((m[j] * out[k - j] for j in range(1, k + 1)), Fraction(0)))
    return out


small = st.fractions(min_value=-20, max_value=20, max_denominator=30)
gaussian = st.one_of(small, st.builds(ExactComplex, small, small))
SCALARS = {"rational": small, "gaussian": gaussian}


def _polys(scalars, min_size=0):
    return st.lists(scalars, min_size=min_size, max_size=6)


@pytest.mark.parametrize("kind", sorted(SCALARS))
class TestExactPolynomials:
    """Poly against the Fraction-list reference, value and length alike."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_sum_product_derivative_and_value(self, kind, data):
        scalars = SCALARS[kind]
        p, q = data.draw(_polys(scalars)), data.draw(_polys(scalars))
        t, c = data.draw(small), data.draw(scalars)            # the point is rational
        assert list(Poly.of(p)) == p
        assert list(Poly.of(p) + Poly.of(q)) == _ref_add(p, q)
        assert list(Poly.of(p) - Poly.of(q)) == _ref_add(p, [-c for c in q])
        assert list(Poly.of(p) * Poly.of(q)) == _ref_mul(p, q)
        assert list(Poly.of(p).scale(c)) == [c * x for x in p]
        assert list(Poly.of(p).der()) == _ref_der(p)
        assert list(Poly.of(p).shift(2)) == [0, 0] + p
        assert Poly.of(p).at(t) == _ref_at(p, t)
        assert bool(Poly.of(p)) == any(x != 0 for x in p)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_division_and_the_refusal_of_a_remainder(self, kind, data):
        scalars = SCALARS[kind]
        # a Gaussian numerator over a real divisor, as every caller divides
        num, den = data.draw(_polys(scalars)), data.draw(_polys(small, min_size=1))
        assume(den[-1] != 0)
        quo, rem = Poly.of(num).divmod(Poly.of(den))
        want_quo, want_rem = _ref_divmod(num, den)
        assert list(quo) == want_quo and list(rem) == want_rem
        # a remainder refuses exact division whenever it is not exactly zero
        assert bool(rem) == any(c != 0 for c in want_rem)
        # (p·q + r) ÷ q = p with remainder r, whatever q's nonzero leading coefficient
        p, r = data.draw(_polys(scalars, min_size=1)), data.draw(_polys(scalars))[:len(den) - 1]
        quo, rem = (Poly.of(p) * Poly.of(den) + Poly.of(r)).divmod(Poly.of(den))
        assert list(quo.trimmed()) == list(Poly.of(p).trimmed())
        assert list(rem) == r + [0] * (len(den) - 1 - len(r))
        assert not (Poly.of(p) * Poly.of(den)).divmod(Poly.of(den))[1]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_expansion_at_infinity(self, kind, data):
        scalars = SCALARS[kind]
        den = data.draw(_polys(small, min_size=1)) + [1]      # real and monic, as Πclear²
        num = data.draw(_polys(scalars, min_size=1))[:len(den)]
        assert Poly.of(num).expansion_at_infinity(Poly.of(den)) == _ref_expansion(num, den)


class TestExactPolynomialExamples:
    @settings(max_examples=100, deadline=None)
    @given(a=rationals, b=rationals, c=rationals)
    def test_expansion_at_infinity(self, a, b, c):
        # (b + c·t)/(t − a) = c + (b + ac)/t + a(b + ac)/t² + …
        assert Poly.of([b, c]).expansion_at_infinity(Poly.of([-a, 1])) == \
            [c, b + a * c, a * (b + a * c)]
        # a lower-degree numerator starts the series later: 1/(t² − a) = 1/t² + …
        assert Poly.of([1]).expansion_at_infinity(Poly.of([-a, 0, 1])) == [0, 0, 1]

    def test_complex_coefficients_stay_exact(self):
        i = ExactComplex(0, 1)
        assert list(Poly.of((i, 1)) * Poly.of((-i, 1))) == [1, 0, 1]         # (t + i)(t − i)
        assert Poly.of((i, 1)).at(Fraction(-1, 2)) == ExactComplex(Fraction(-1, 2), 1)

    def test_exact_complex_zeros_read_as_fractions(self):
        # a coefficient with no imaginary part reads as a Fraction
        zero, i = ExactComplex(0, 0), ExactComplex(0, 1)
        out = list(Poly.of((zero, 1)) * Poly.of((i, zero)))
        assert out == [0, i, 0] and [type(c) for c in out] == [Fraction, ExactComplex, Fraction]

    def test_integer_numerators_over_one_denominator(self):
        p = Poly.of((Fraction(1, 6), Fraction(-1, 4), ExactComplex(0, Fraction(1, 3))))
        assert (p.re, p.im, p.den) == ([2, -3, 0], [0, 0, 4], 12)
        assert (p.scale(12).den, p.scale(12).re) == (1, [2, -3, 0])     # content taken once

    @settings(max_examples=100, deadline=None)
    @given(p=st.lists(small, min_size=1, max_size=5),
           f=st.lists(st.floats(-10, 10), min_size=1, max_size=5))
    def test_a_float_makes_it_inexact_term_by_term(self, p, f):
        # a float coefficient rounds the exact one it meets, as the reference does
        assert list(Poly.of(p) * Poly.of(f)) == _ref_mul(p, f)
        assert list(Poly.of(p) + Poly.of(f)) == _ref_add(p, f)
        assert (Poly.of(p) * Poly.of(f)).den is None
