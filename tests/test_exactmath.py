"""Exact scalars (Fraction and Surd) and polynomials used by the residue algebra."""

import cmath
from fractions import Fraction
from functools import reduce
from itertools import zip_longest

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qhj.exactmath import (Poly, Surd, as_exact, real_or_complex, settle, sign, sort_key, sqrt,
                           to_complex)

rationals = st.fractions(min_value=-100, max_value=100)


I = sqrt(-1)
small = st.fractions(min_value=-20, max_value=20, max_denominator=30)
# radicands: squares, ±1, rationals, and pairs (2, 8) and (3, 12) a square apart
radicands = st.one_of(st.sampled_from([2, 8, 3, 12, -1, -3, -4, 5, Fraction(9, 4)]),
                      st.fractions(min_value=-40, max_value=40, max_denominator=12))


def _element(coords, d1, d2):
    """a + b·√d1 + c·√d2 + e·√d1·√d2, as a Surd or a Fraction."""
    a, b, c, e = coords
    return a + b * sqrt(d1) + c * sqrt(d2) + e * sqrt(d1) * sqrt(d2)


def _element_float(coords, d1, d2):
    """The same expression in cmath, and the sum of its terms' moduli."""
    a, b, c, e = (float(x) for x in coords)
    r1, r2 = cmath.sqrt(float(d1)), cmath.sqrt(float(d2))
    terms = (a, b * r1, c * r2, e * r1 * r2)
    return sum(terms), sum(abs(t) for t in terms)


quadruples = st.tuples(small, small, small, small)


class TestSurd:
    def test_arithmetic(self):
        z = Fraction(1, 2) + Fraction(3, 4) * I
        w = 2 - I
        assert to_complex(z + w) == complex(2.5, -0.25)
        assert to_complex(z * w) == to_complex(z) * to_complex(w)
        q = z / w
        assert q * w == z
        assert to_complex(q * w) == pytest.approx(to_complex(z), abs=1e-15)

    def test_sqrt_of_negative_real(self):
        root = sqrt(Fraction(-9, 4))
        assert type(root) is Surd and root.p.gens == (-1,)
        assert to_complex(root) == complex(0.0, 1.5)
        assert root * root == Fraction(-9, 4)

    def test_the_root_of_a_surd_is_refused(self):
        # the residue route takes roots of rationals only, even where one denests:
        # (1 + 2i)² = −3 + 4i
        for value in (-3 + 4 * I, 1 + I, sqrt(2)):
            with pytest.raises(ValueError):
                sqrt(value)

    def test_a_rational_value_is_a_fraction_and_a_surd_is_never_zero(self):
        assert type(I - I) is Fraction and not (I - I)
        assert type(I * I) is Fraction and I * I == -1
        assert Fraction(1, 3) * I and -2 + 0 * I == -2

    def test_numerators_are_integers_over_one_positive_denominator(self):
        z = Fraction(1, 6) - Fraction(1, 4) * sqrt(2)
        assert (z.p.parts, z.p.den, z.p.gens) == ([[2], [-3]], 12, (2,))
        w = sqrt(Fraction(-2, 3))      # √(p/q) = √(pq)/q: the generator pq, never factored
        assert (w.p.parts, w.p.den, w.p.gens) == ([[0], [1]], 3, (-6,))
        v = sqrt(Fraction(12, 25))     # a square q leaves the generator p
        assert (v.p.parts, v.p.den, v.p.gens) == ([[0], [1]], 5, (12,))

    @pytest.mark.parametrize("other", [3, Fraction(3), True])
    def test_exact_real_operands_stay_exact(self, other):
        z = Fraction(1, 2) - I
        value = int(other)
        for got, want in [(z + other, Fraction(1, 2) + value - I),
                          (other - z, value - Fraction(1, 2) + I),
                          (z * other, Fraction(value, 2) - value * I)]:
            assert isinstance(got, Surd) and got == want
        assert (value + 0 * I) == other

    def test_the_product_of_two_negative_roots(self):
        # √−1·√−3 = i·i√3 = −√3: a symbol of its own, not √((−1)(−3))
        assert I * sqrt(-3) == -sqrt(3)
        assert sqrt(-2) * sqrt(-8) == -4 and sqrt(2) * sqrt(8) == 4
        assert to_complex(sqrt(-3) * sqrt(-5)) == pytest.approx(-15 ** 0.5, rel=1e-15)

    def test_an_exact_zero(self):
        r2, r3 = sqrt(2), sqrt(3)
        zero = (r2 + r3) * (r2 + r3) - 5 - 2 * r2 * r3
        assert zero == 0 and type(zero) is Fraction
        assert sign(zero) == 0 and sign(sqrt(-3)) == 0      # no real part

    def test_one_value_in_two_fields_is_equal_and_hashes_equal(self):
        assert sqrt(8) == 2 * sqrt(2) and hash(sqrt(8)) == hash(2 * sqrt(2))
        assert sqrt(3) * sqrt(-1) == sqrt(-3)
        assert sqrt(2) != sqrt(3) and 1 + sqrt(2) != 1 + sqrt(3)

    def test_a_third_generator_is_refused(self):
        with pytest.raises(ValueError):
            sqrt(2) + sqrt(3) + sqrt(5)
        assert sqrt(2) + sqrt(3) != sqrt(5) and sqrt(2) * sqrt(3) != sqrt(5)

    def test_the_text_reads_back_in_cmath(self):
        z = (1 - 3 * sqrt(2) + sqrt(-3) * sqrt(2)) / 7
        assert str(z) == "(1 - 3*sqrt(2) + sqrt(2)*sqrt(-3))/7"
        assert eval(str(z), {"sqrt": cmath.sqrt}) == pytest.approx(to_complex(z), rel=1e-15)
        assert (str(-sqrt(5) / 2), str(sqrt(-1))) == ("-sqrt(5)/2", "sqrt(-1)")

    @settings(max_examples=100, deadline=None)
    @given(x=quadruples, y=quadruples, z=quadruples, d1=radicands, d2=radicands)
    def test_ring_axioms(self, x, y, z, d1, d2):
        x, y, z = (_element(c, d1, d2) for c in (x, y, z))
        assert x + y == y + x and x * y == y * x
        assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x - x == 0 and x + 0 == x and x * 1 == x and -(-x) == x

    @settings(max_examples=100, deadline=None)
    @given(x=quadruples, c=small, d=radicands, d1=radicands, d2=radicands, q=small, r=small)
    def test_division_by_a_rational_or_by_one_radical(self, x, c, d, d1, d2, q, r):
        x = _element(x, d1, d2)
        assume(c != 0)
        assert (x / c) * c == x and x / c == x * (1 / c)
        radical = q + r * sqrt(d)            # one generator, or a rational
        assume(radical != 0)
        try:
            quotient = x / radical
        except ValueError:                   # d brings a third generator
            return
        assert quotient * radical == x and 1 / (1 / radical) == radical

    @settings(max_examples=200, deadline=None)
    @given(coords=quadruples, d1=radicands, d2=radicands)
    def test_to_complex_is_cmath_on_the_same_expression(self, coords, d1, d2):
        value, scale = _element_float(coords, d1, d2)
        assert abs(to_complex(_element(coords, d1, d2)) - value) <= 1e-15 * scale

    @settings(max_examples=200, deadline=None)
    @given(coords=quadruples, d1=radicands, d2=radicands)
    def test_sign_is_the_float_sign_away_from_zero(self, coords, d1, d2):
        x = _element(coords, d1, d2)
        real = to_complex(x).real
        if abs(real) > 1e-9:
            assert sign(x) == (1 if real > 0 else -1)
        assert sign(-x) == -sign(x)

    def test_sign_decides_a_part_far_below_float_resolution(self):
        # 1 + √2 differs from this rational by less than 1e-30
        x = 1 + sqrt(2) - Fraction(24142135623730950488016887242096, 10 ** 31)
        assert sign(x) == 1 and sign(-x) == -1 and abs(to_complex(x)) < 1e-30


class TestConversions:
    def test_as_exact(self):
        assert as_exact(3) == Fraction(3)
        assert as_exact(Fraction(1, 3)) == Fraction(1, 3)
        assert as_exact(0.5) is None          # floats are never trusted as exact
        assert as_exact(1 + 2j) is None       # same for float-backed complex
        z = 1 + 2 * I
        assert as_exact(z) is z

    def test_real_or_complex_drops_only_an_exactly_zero_imaginary_part(self):
        for value, want in [(Fraction(1, 4), 0.25), (-3 + 0 * I, -3.0), (2 + 0j, 2.0)]:
            got = real_or_complex(value)
            assert type(got) is float and got == want
        for value in (1 + Fraction(1, 10 ** 20) * I, 1 + 1e-300j):
            got = real_or_complex(value)
            assert type(got) is complex and got.imag != 0.0

    def test_sqrt_of_rationals(self):
        assert sqrt(Fraction(16, 25)) == Fraction(4, 5)
        assert sqrt(Fraction(-4)) == 2 * I
        root = sqrt(Fraction(3))
        assert type(root) is Surd and root * root == 3


class TestOneRule:
    def test_sqrt_is_exact_a_fraction_when_rational_else_a_surd(self):
        assert sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert sqrt(-4) == 2 * I
        assert type(sqrt(Fraction(2))) is Surd
        assert to_complex(sqrt(Fraction(2))) == 2 ** 0.5
        for value in (2.25, 1 + 1j):
            with pytest.raises(TypeError):
                sqrt(value)

    def test_settle(self):
        assert type(settle(3)) is Fraction and settle(3) == 3
        assert settle(Fraction(1, 3)) == Fraction(1, 3)
        z = 1 + 2 * I
        assert settle(z) is z
        assert type(settle(I * I)) is Fraction
        for value in (complex(2.0, 1e-15), complex(2.0, 1e-13), 0.5, True):
            with pytest.raises(TypeError):
                settle(value)


class TestSortKey:
    def test_larger_real_sorts_first(self):
        vals = [Fraction(1, 2), Fraction(3, 2), complex(1.5, -1), complex(1.5, 2)]
        ordered = sorted(vals, key=sort_key)
        assert to_complex(ordered[0]) == complex(1.5, 2)
        assert to_complex(ordered[1]) == complex(1.5, 0)
        assert to_complex(ordered[2]) == complex(1.5, -1)
        assert to_complex(ordered[3]) == complex(0.5, 0)


# -- the reference: ascending coefficient lists of Fraction/Surd ----------------

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


gaussian = st.one_of(small, st.builds(lambda re, im: re + im * I, small, small))
# Q(√2, √−3), with the product symbol √2·√−3
biquadratic = st.one_of(small, st.builds(lambda c: _element(c, 2, -3), quadruples))
SCALARS = {"rational": small, "gaussian": gaussian, "biquadratic": biquadratic}


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
        assert list(Poly.of((I, 1)) * Poly.of((-I, 1))) == [1, 0, 1]         # (t + i)(t − i)
        assert Poly.of((I, 1)).at(Fraction(-1, 2)) == Fraction(-1, 2) + I

    def test_coefficients_without_a_generator_read_as_fractions(self):
        # a coefficient with no irrational part reads as a Fraction, and a product
        # whose parts cancel drops the generator: (√2·t + 1)(√2·t − 1) = 2t² − 1
        out = list(Poly.of((0, 1)) * Poly.of((I, 0)))
        assert out == [0, I, 0] and [type(c) for c in out] == [Fraction, Surd, Fraction]
        product = Poly.of((1, sqrt(2))) * Poly.of((-1, sqrt(2)))
        assert product.gens == () and list(product) == [-1, 0, 2]

    def test_integer_numerators_over_one_denominator(self):
        p = Poly.of((Fraction(1, 6), Fraction(-1, 4), Fraction(1, 3) * I))
        assert (p.parts, p.gens, p.den) == ([[2, -3, 0], [0, 0, 4]], (-1,), 12)
        assert (p.scale(12).den, p.scale(12).parts[0]) == (1, [2, -3, 0])   # content taken once
        q = Poly.of((sqrt(2), sqrt(-3)))
        assert (q.parts, q.gens, q.den) == ([[0, 0], [1, 0], [0, 1], [0, 0]], (2, -3), 1)

    def test_a_float_is_refused(self):
        for coeffs in ((0.5,), (1, 2.0), (Fraction(1, 2), 1j)):
            with pytest.raises(TypeError):
                Poly.of(coeffs)
        with pytest.raises(TypeError):
            Poly.of((1, 2)).scale(0.5)
