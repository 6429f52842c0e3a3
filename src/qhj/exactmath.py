"""Exact scalar arithmetic for residue and quantization algebra.

Every number the residue route produces is a quadratic surd: a fixed-pole
residue is a root of b² − b + g2 = 0 with rational g2, and a closed-form
level is a polynomial in those roots.  A rational stays a Fraction; an
irrational value is a Surd, an element of Q(√d₁, √d₂) with integer
generators, none of d₁, d₂, d₁d₂ a square (Q(i) is d = −1).  √d is the
principal root, i·√|d| for d < 0, and √d₁·√d₂ is a symbol of its own, the
product of two principal roots (√−1·√−3 = −√3).  On the basis 1, √d₁, √d₂,
√d₁·√d₂ the rational coordinates are unique (Cohen, *A Course in
Computational Algebraic Number Theory*, GTM 138, 1993, ch. 4), so equality,
zero tests and the sign of a real part (sign) are exact.  Two
rules, kept here:

* sqrt: the root of a rational is exact.  √(p/q) = √(pq)/q takes the
  generator pq, or p for a square q, so no integer is ever factored; two
  generators share a field unless their product is a square (math.isqrt
  tells), and a third is refused (ValueError).
* settle: a value enters the algebra once, as a Fraction or a Surd; a float
  or a complex carries no exactness claim and is refused (TypeError).

Exact polynomials are one type, Poly: one list of integer numerators per
basis element over one positive denominator, so sums and products run on
the integers and division is pseudo-division.  A Surd is a constant Poly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partialmethod
from itertools import chain, repeat, zip_longest
from numbers import Rational


def _product(gens, i, j):
    """c with basis_i·basis_j = c·basis_(i^j): the generators both indices hold."""
    return math.prod(d for b, d in enumerate(gens) if (i & j) >> b & 1)


@lru_cache(maxsize=256)
def _table(gens):
    """(i, j, c, i ^ j) per pair of basis indices: basis_i·basis_j = c·basis_(i^j)."""
    size = 1 << len(gens)
    return tuple((i, j, _product(gens, i, j), i ^ j) for i in range(size) for j in range(size))


@lru_cache(maxsize=256)
def _basis(gens):
    """(imaginary, sign, n) per basis element: it is sign·√n, times i when imaginary."""
    out = []
    for mask in range(1 << len(gens)):
        roots = [d for b, d in enumerate(gens) if mask >> b & 1]
        negative = sum(d < 0 for d in roots)
        out.append((negative == 1, -1 if negative == 2 else 1, abs(math.prod(roots))))
    return tuple(out)


def _image(e, gens):
    """(mask, μ) with √e = μ·basis_mask in the field of gens, or None."""
    for mask in range(1, 1 << len(gens)):
        beta = _product(gens, mask, mask)
        r = math.isqrt(e * beta) if e * beta > 0 else -1
        if r * r == e * beta:
            # both principal roots and the basis element are 1 or i in phase, except
            # √d₁·√d₂ of two negative generators, which is −√(d₁d₂)
            return mask, Fraction(-r if mask == 3 and max(gens) < 0 else r, abs(beta))
    return None


def _field(gens, other):
    """The generators of one field holding both fields."""
    for e in other:
        if e not in gens and _image(e, gens) is None:
            if len(gens) == 2:
                raise ValueError("a third square root (of %d) meets the field of sqrt(%d) and "
                                 "sqrt(%d)" % (e, *gens))
            gens += (e,)
    return gens


def _embed(parts, den, gens, field):
    """(parts, den) of numerator lists over gens, rewritten over field's basis."""
    if gens == field:
        return parts, den
    out = [[0] * len(parts[0]) for _ in range(1 << len(field))]
    if set(gens) <= set(field):     # each basis element keeps its value: re-index it
        for m, part in enumerate(parts):
            out[sum(1 << field.index(e) for b, e in enumerate(gens) if m >> b & 1)] = part
        return out, den
    images, terms = [_image(e, field) for e in gens], []
    for m in range(len(parts)):
        coef, at = Fraction(1), 0
        for b, (mask, mu) in enumerate(images):
            if m >> b & 1:
                coef, at = coef * mu * _product(field, at, mask), at ^ mask
        terms.append((m, at, coef))
    scale = math.lcm(*(c.denominator for _, _, c in terms))
    for m, at, coef in terms:
        f = coef.numerator * (scale // coef.denominator)
        out[at] = [x + f * y for x, y in zip(out[at], parts[m])]
    return out, den * scale


def _terms(numerators, gens, imag):
    """The real part of Σ n_m·basis_m, or its imaginary part, as [(c, n)]: Σ c·√n."""
    return [(c * s, n) for c, (imaginary, s, n) in zip(numerators, _basis(gens))
            if c and imaginary == imag]


def _bracket(terms, relative):
    """(lo, hi, bits), lo ≤ Σ c·√n·2^bits ≤ hi, with lo and hi of one sign and
    hi − lo ≤ |lo|·2^−relative: math.isqrt at doubling precision.  That ends, as
    the roots of one part are independent over Q, so a sum of terms is not 0."""
    bits = 64
    while True:
        lo = hi = 0
        for c, n in terms:
            r = math.isqrt(n << 2 * bits)        # r ≤ √n·2^bits < r + 1, or = when exact
            top = r if r * r == n << 2 * bits else r + 1
            lo, hi = lo + min(c * r, c * top), hi + max(c * r, c * top)
        if (lo > 0 or hi < 0) and (hi - lo) << relative <= min(abs(lo), abs(hi)):
            return lo, hi, bits
        bits *= 2


def _value(numerators, den, gens):
    """Σ n_m·basis_m / den rounded once, each part bracketed closely enough that a
    cancelling sum keeps its digits: a float, or a complex where the imaginary part
    is not 0."""
    parts = []
    for imag in (False, True):
        terms = _terms(numerators, gens, imag)
        lo, hi, bits = _bracket(terms, 60) if terms else (0, 0, 0)
        parts.append(float(Fraction(lo + hi, den << bits + 1)))
    return complex(*parts) if parts[1] else parts[0]


# -- exact polynomials -----------------------------------------------------

def _conv(p, q):
    """Product of two ascending coefficient lists; a zero factor adds no term."""
    out = [0] * max(len(p) + len(q) - 1, 0)
    for i, c in enumerate(p):
        if c:
            for k, d in enumerate(q):
                if d:
                    out[i + k] += c * d
    return out


def _lin(p, f, q, g):
    """f·p + g·q of two ascending integer lists, the shorter padded with zeros."""
    return [a * f + b * g for a, b in zip_longest(p, q, fillvalue=0)]


class Poly:
    """A polynomial in t, exact: ascending integer numerators over one positive
    denominator (Knuth, *TAOCP* vol. 2, §4.6.1).

    parts holds one numerator list per basis element of the field of gens (one
    for rationals, re and im for Q(i), four for two generators), all of one
    length; each result is divided by its content once and drops a generator
    it does not use.  Division is pseudo-division by a rational divisor's
    integer leading coefficient.  Lengths follow the operations, not the
    degree: a product has len(p) + len(q) − 1 coefficients, a sum the longer
    length.  Iterating gives the coefficients as Fraction or Surd.
    """

    __slots__ = ("parts", "gens", "den")

    def __init__(self, parts, gens=(), den=1):
        b = len(gens) - 1
        while b >= 0 and not all(map(any, parts[1:])):      # drop an unused generator
            if not any(chain.from_iterable(p for m, p in enumerate(parts) if m >> b & 1)):
                parts = [p for m, p in enumerate(parts) if not m >> b & 1]
                gens = gens[:b] + gens[b + 1:]
            b -= 1
        g = math.gcd(den, *chain.from_iterable(parts)) if gens else math.gcd(den, *parts[0])
        if g != 1:
            parts, den = [[c // g for c in part] for part in parts], den // g
        self.parts, self.gens, self.den = parts, gens, den

    @classmethod
    def of(cls, coeffs):
        """The polynomial of ascending exact coefficients; settle refuses a float."""
        if not any(type(c) is Surd for c in coeffs):
            fractions = [c if type(c) is int else settle(c) for c in coeffs]
            den = math.lcm(*(c.denominator for c in fractions))
            return cls([[c.numerator * (den // c.denominator) for c in fractions]], (), den)
        lifted, field = [_lift(c, refuse=True) for c in coeffs], ()
        for c in lifted:
            field = _field(field, c.gens)
        columns = [_embed(c.parts, c.den, c.gens, field) for c in lifted]
        den = math.lcm(*(d for _, d in columns))
        return cls([[parts[m][0] * (den // d) for parts, d in columns]
                    for m in range(1 << len(field))], field, den)

    def _pair(self, other):
        """Both operands' parts and dens over one field."""
        if self.gens == other.gens:
            return self.parts, self.den, other.parts, other.den, self.gens
        field = _field(self.gens, other.gens)
        return (*_embed(self.parts, self.den, self.gens, field),
                *_embed(other.parts, other.den, other.gens, field), field)

    def floats(self):
        """The coefficients rounded once: a float each, or a complex where the
        imaginary part is not 0."""
        den = self.den
        if not self.gens:
            return [c / den for c in self.parts[0]]
        if self.gens == (-1,):      # Q(i): the parts are re and im
            return [complex(r / den, i / den) if i else r / den for r, i in zip(*self.parts)]
        return [_value(cs, den, self.gens) for cs in zip(*self.parts)]

    # -- the ring operations ------------------------------------------------
    def __add__(self, other):
        p, dp, q, dq, field = self._pair(other)
        g = math.gcd(dp, dq)
        f, h = dq // g, dp // g
        return Poly(list(map(_lin, p, repeat(f), q, repeat(h))), field, dp * f)

    def __neg__(self):
        return Poly([[-c for c in part] for part in self.parts], self.gens, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.gens or not other.gens:     # a rational factor multiplies each part
            a, r = (self, other.parts[0]) if not other.gens else (other, self.parts[0])
            return Poly([_conv(part, r) for part in a.parts], a.gens, self.den * other.den)
        p, dp, q, dq, field = self._pair(other)
        out = [None] * len(p)
        for i, j, c, k in _table(field):
            term = _conv(p[i], q[j])
            out[k] = (term if c == 1 else [c * x for x in term]) if out[k] is None \
                else _lin(out[k], 1, term, c)
        return Poly(out, field, dp * dq)

    def scale(self, c):
        """c·p for an exact scalar c."""
        c = c if type(c) is int else settle(c)
        if type(c) is Surd:
            return self * c.p
        n, d = c.numerator, c.denominator
        return Poly([[x * n for x in part] for part in self.parts], self.gens, self.den * d)

    def der(self):
        """dp/dt."""
        return Poly([[k * c for k, c in enumerate(part)][1:] for part in self.parts],
                    self.gens, self.den)

    def divmod(self, other):
        """(quotient, remainder) by other, rational with a nonzero leading coefficient:
        the quotient has max(len(p) − d, 1) coefficients and the remainder d (fewer
        when p is shorter), d = len(other) − 1."""
        divisor = other.parts[0]
        d = len(divisor) - 1
        top = len(self) - d
        # pseudo-division: lead^e·p = quo·q + rem on the integers, e = the quotient's length
        lead = divisor[-1]
        scale = lead ** max(top, 0)
        sign = -1 if scale < 0 else 1
        quos, rems = [], []
        for part in self.parts:
            rem, quo = [c * scale for c in part], [0] * max(top, 1)
            for k in range(top - 1, -1, -1):
                q = quo[k] = rem[k + d] // lead
                if q:
                    for i, c in enumerate(divisor):
                        rem[k + i] -= q * c
            quos.append([sign * c * other.den for c in quo])
            rems.append([sign * c for c in rem[:d]])
        den = self.den * scale * sign
        return Poly(quos, self.gens, den), Poly(rems, self.gens, den)

    # -- reading it ---------------------------------------------------------
    def __len__(self):
        return len(self.parts[0])

    def __bool__(self):
        return bool(self.gens) or any(self.parts[0])

    def __iter__(self):
        den = self.den
        if not self.gens:
            return (Fraction(c, den) for c in self.parts[0])
        return (_scalar(Poly([[c] for c in cs], self.gens, den)) for cs in zip(*self.parts))

    def __getitem__(self, index):
        """The coefficients at a slice of degrees, as a Poly."""
        return Poly([part[index] for part in self.parts], self.gens, self.den)

    def trimmed(self):
        """p without trailing zero coefficients, keeping one."""
        n = len(self)
        while n > 1 and not any(part[n - 1] for part in self.parts):
            n -= 1
        return self[:n]

    def at(self, t):
        """The value at a rational t = p/q, by Horner's rule on the integers:
        Σ c_k·p^k·q^(n−k) over q^n·den."""
        t = Fraction(t)
        p, q = t.numerator, t.denominator
        values = []
        for part in self.parts:
            acc, qk = 0, 1
            for c in reversed(part):
                acc, qk = acc * p + c * qk, qk * q
            values.append([acc * q])
        return _scalar(Poly(values, self.gens, qk * self.den))

    def expansion_at_infinity(self, den, terms=3):
        """c_0, c_1, … of p/den = Σ_k c_k·t^(−k) at |t| → ∞; den monic, deg p ≤ deg den.
        Only the top coefficients enter: n_k = Σ_j m_j·c_(k−j), with m_0 = 1."""
        d = len(den) - 1
        lo = max(d + 1 - terms, 0)
        n, m = ([c[d - k - lo] if 0 <= d - k - lo < len(c) else 0 for k in range(terms)]
                for c in (list(self[lo:]), list(den[lo:])))
        out = []
        for k in range(terms):
            out.append(n[k] - sum((m[j] * out[k - j] for j in range(1, k + 1)), Fraction(0)))
        return out


def _divide(p, q):
    """p/q of constant Polys: each conjugation √d₁ ↦ −√d₁ of q's first generator
    clears that generator from q."""
    while q.gens:
        flip = Poly([[-c for c in part] if m & 1 else part for m, part in enumerate(q.parts)],
                    q.gens, q.den)
        p, q = p * flip, q * flip
    return p.scale(Fraction(q.den, q.parts[0][0]))


class Surd:
    """An irrational element of Q(√d₁) or Q(√d₁, √d₂): the constant Poly p, whose
    parts hold its integer numerators on the basis 1, √d₁[, √d₂, √d₁·√d₂] over
    p.den.  _scalar builds one, or a Fraction where the value is rational."""

    __slots__ = ("p",)

    def __init__(self, p):
        self.p = p

    def _apply(self, op, other, reverse=False):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return _scalar(op(other, self.p) if reverse else op(self.p, other))

    __add__ = __radd__ = partialmethod(_apply, Poly.__add__)
    __mul__ = __rmul__ = partialmethod(_apply, Poly.__mul__)
    __sub__ = partialmethod(_apply, Poly.__sub__)
    __rsub__ = partialmethod(_apply, Poly.__sub__, reverse=True)
    __truediv__ = partialmethod(_apply, _divide)
    __rtruediv__ = partialmethod(_apply, _divide, reverse=True)

    def __neg__(self):
        return Surd(-self.p)

    def __eq__(self, other):
        other = _lift(other)
        try:
            return NotImplemented if other is None else not self.p - other
        except ValueError:      # a third generator: other has a coordinate self lacks
            return False

    def __hash__(self):
        # the rational coordinate is the same in every field that holds the value
        return hash(Fraction(self.p.parts[0][0], self.p.den))

    def __complex__(self):
        return complex(self.p.floats()[0])

    def __str__(self):
        text = ""
        for m, (n,) in enumerate(self.p.parts):
            roots = ["sqrt(%d)" % d for b, d in enumerate(self.p.gens) if m >> b & 1]
            term = "*".join([str(abs(n))] * (abs(n) != 1 or not roots) + roots)
            text += "" if not n else ("-" if n < 0 else "") + term if not text else \
                (" - " if n < 0 else " + ") + term
        return text if self.p.den == 1 else ("(%s)/%d" if " " in text else "%s/%d") % (
            text, self.p.den)

    def __repr__(self):
        return "Surd(%r)" % str(self)


def _lift(value, refuse=False):
    """An exact scalar as a constant Poly; a float gives None, or TypeError with refuse."""
    if type(value) is Surd:
        return value.p
    if type(value) in (Fraction, int) or isinstance(value, Rational):    # the ABC check is slow
        return Poly([[value.numerator]], (), value.denominator)
    return settle(value) if refuse else None


def _scalar(p):
    """The value of a constant Poly: a Fraction when it is rational, else a Surd."""
    return Surd(p) if p.gens else Fraction(p.parts[0][0], p.den)


def as_exact(value):
    """value as a Fraction or a Surd, or None for a float or a complex (no exactness claim)."""
    if type(value) in (Fraction, Surd):
        return value
    return Fraction(value) if isinstance(value, Rational) and type(value) is not bool else None


def settle(value):
    """value as it enters the exact algebra, once: a Fraction or a Surd.  A float or a
    complex is refused (TypeError): rounding it would claim an exactness it lacks."""
    exact = as_exact(value)
    if exact is None:
        raise TypeError("%r is not an exact scalar: the residue algebra takes rationals "
                        "and quadratic surds only" % (value,))
    return exact


def to_complex(value):
    """Coerce any scalar used by the package to a Python complex."""
    return complex(value)


def real_or_complex(value):
    """A float when value's imaginary part is exactly zero, else a complex."""
    z = to_complex(value)
    return z.real if z.imag == 0.0 else z


def sqrt(value):
    """The principal square root of a rational, exactly: a Fraction when it is
    rational, else a Surd, √(p/q) = √(pq)/q, or √p/√q for a square q.  The root of a
    Surd is refused (ValueError): the residue route takes roots of rationals only."""
    value = settle(value)
    if type(value) is Surd:
        raise ValueError("sqrt takes a rational, not %s" % value)
    p, q = value.numerator, value.denominator
    r, s = math.isqrt(abs(p * q)), math.isqrt(q)
    if r * r == abs(p * q):
        return Fraction(r, q) if p >= 0 else Surd(Poly([[0], [r]], (-1,), q))
    d, den = (p, s) if s * s == q else (p * q, q)
    return Surd(Poly([[0], [1]], (d,), den))


def sign(value):
    """The exact sign (−1, 0 or 1) of an exact scalar's real part: a real part with a
    nonzero coordinate is not 0, and _bracket leaves 0 out."""
    value = settle(value)
    if type(value) is Fraction:
        return (value > 0) - (value < 0)
    terms = _terms([n for n, in value.p.parts], value.p.gens, False)
    return 0 if not terms else 1 if _bracket(terms, 0)[0] > 0 else -1


def sort_key(value):
    """Deterministic ordering key: larger real part first, then larger imag."""
    z = to_complex(value)
    return (-z.real, -z.imag)
