"""Minimal exact scalar arithmetic for residue and quantization algebra.

Residue branches and level indices obey exact algebraic identities (root sums,
sum rules).  Where the inputs are rational these identities are checked and
propagated in exact arithmetic: real rationals as fractions.Fraction, complex
rationals as ExactComplex (a pair of Fractions).  ExactComplex falls back to
Python complex for inexact operands, and Fraction mixes with complex, so one
formula serves both worlds under one rule, kept here:

* sqrt: a square root is exact when it is rational, a complex float otherwise;
* settle: a result is settled once: a real exact value becomes a Fraction,
  and an inexact one drops an imaginary part below 1e-14 of its real part.

Exact polynomials are one type, Poly: integer numerators over one positive
denominator (Gaussian integers as pairs), so that sums and products run on
the integers and a division is pseudo-division; their coefficients read out
as Fraction or ExactComplex.  The same rule holds there: a float coefficient
or scalar makes a Poly inexact, and it then computes term by term in floats.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from numbers import Rational


def sqrt_fraction(q):
    """Exact square root of a nonnegative Fraction, or None if irrational."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("sqrt_fraction needs a nonnegative argument")
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class ExactComplex:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        if type(self.re) is not Fraction or type(self.im) is not Fraction:
            object.__setattr__(self, "re", Fraction(self.re))
            object.__setattr__(self, "im", Fraction(self.im))

    def __bool__(self):
        return bool(self.re or self.im)

    # -- arithmetic -------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, ExactComplex):
            return other
        if type(other) in (Fraction, int) or isinstance(other, Rational):  # the ABC check is slow
            return ExactComplex(Fraction(other), Fraction(0))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return self.as_complex() + other
        return ExactComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return ExactComplex(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return self.as_complex() * other
        return ExactComplex(self.re * o.re - self.im * o.im,
                            self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return self.as_complex() / other
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("ExactComplex division by zero")
        return ExactComplex((self.re * o.re + self.im * o.im) / d,
                            (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return other / self.as_complex()
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return self.as_complex() == other
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- conversions ------------------------------------------------------
    @property
    def is_real(self):
        return self.im == 0

    def as_fraction(self):
        if not self.is_real:
            raise ValueError("not a real value: %r" % (self,))
        return self.re

    def as_complex(self):
        return complex(float(self.re), float(self.im))

    def sqrt(self):
        """Exact principal square root, or None when irrational."""
        # |z| must be rational; then half-angle algebra gives both parts
        mod = sqrt_fraction(self.re * self.re + self.im * self.im)
        if mod is None:
            return None
        u = sqrt_fraction((mod + self.re) / 2)
        v = sqrt_fraction((mod - self.re) / 2)
        if u is None or v is None:
            return None
        return ExactComplex(u, -v if self.im < 0 else v)

    def __repr__(self):
        return "ExactComplex(%s, %s)" % (self.re, self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return "%s %s %s*i" % (self.re, sign, abs(self.im))


def as_exact(value):
    """Return a Fraction/ExactComplex view of value, or None if inexact.

    Integers and Fractions map to Fraction; ExactComplex passes through
    (collapsing to Fraction when purely real).  Floats/complex return None —
    they carry no exactness claim.
    """
    if isinstance(value, bool):
        return None
    if isinstance(value, Rational):
        return Fraction(value)
    if isinstance(value, ExactComplex):
        return value.as_fraction() if value.is_real else value
    return None


def to_complex(value):
    """Coerce any scalar used by the package to a Python complex."""
    if isinstance(value, ExactComplex):
        return value.as_complex()
    if isinstance(value, Rational):
        return complex(float(Fraction(value)), 0.0)
    return complex(value)


def real_or_complex(value):
    """A float when value's imaginary part is exactly zero, else a complex."""
    z = to_complex(value)
    return z.real if z.imag == 0.0 else z


def exact_sqrt(value):
    """Exact sqrt of a Fraction/ExactComplex if representable, else None."""
    e = as_exact(value)
    if e is None:
        return None
    root = (e if isinstance(e, ExactComplex) else ExactComplex(e, 0)).sqrt()
    return None if root is None else settle(root)


def sqrt(value):
    """Principal square root: exact when it is rational, else a complex float."""
    root = exact_sqrt(value)
    return cmath.sqrt(to_complex(value)) if root is None else root


def settle(value):
    """A result, settled once: a real exact value becomes a Fraction, and an
    inexact value drops an imaginary part below 1e-14 of its real part."""
    e = as_exact(value)
    if e is not None:
        return e
    if isinstance(value, complex) and abs(value.imag) < 1e-14 * max(1.0, abs(value.real)):
        return value.real
    return value


# -- exact polynomials -----------------------------------------------------

def _parts(value):
    """(re, im, den) integers of an exact scalar, den > 0, or None when it is inexact."""
    if type(value) is int:
        return value, 0, 1
    e = value if type(value) is Fraction else as_exact(value)
    if e is None:
        return None
    if type(e) is Fraction:
        return e.numerator, 0, e.denominator
    den = math.lcm(e.re.denominator, e.im.denominator)
    return (e.re.numerator * (den // e.re.denominator),
            e.im.numerator * (den // e.im.denominator), den)


def _conv(p, q, zero=0):
    """Product of two ascending coefficient lists; a zero factor adds no term."""
    out = [zero] * max(len(p) + len(q) - 1, 0)
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

    re holds the numerators of the real parts, im those of the imaginary parts
    (None when every coefficient is real) and den the common denominator; each
    result is divided by its content once.  Sums and products run on the
    integers, and division is pseudo-division by the divisor's integer leading
    coefficient.  Under this module's rule a float scalar makes a result
    inexact: an inexact Poly (den None) holds its coefficients as plain
    scalars, exact or float, and each operation then runs term by term in
    Python arithmetic, so an exact coefficient is rounded where it meets a
    float and not before.  Lengths follow the operations, not the degree: a
    product has len(p) + len(q) − 1 coefficients, a sum the longer length.
    Iterating gives the coefficients as Fraction or ExactComplex, or as the
    plain scalars of an inexact Poly.
    """

    __slots__ = ("re", "im", "den")

    def __init__(self, re, im=None, den=1):
        if den is not None:
            if im is not None and not any(im):
                im = None
            g = math.gcd(den, *re, *(im or ()))
            if g != 1:
                re, den = [c // g for c in re], den // g
                im = im and [c // g for c in im]
        self.re, self.im, self.den = re, im, den

    @classmethod
    def of(cls, coeffs):
        """The polynomial of ascending scalar coefficients; inexact if one of them is."""
        parts = [_parts(c) for c in coeffs]
        if None in parts:
            return cls(list(coeffs), None, None)
        den = math.lcm(*(d for _, _, d in parts))
        return cls([r * (den // d) for r, _, d in parts], [i * (den // d) for _, i, d in parts],
                   den)

    def _plain(self):
        """The coefficients as plain scalars: the arithmetic of an inexact operand."""
        return self.re if self.den is None else list(self)

    def floats(self):
        """The coefficients rounded once: exact ones to a float each (a complex where
        the imaginary part is not 0), those of an inexact Poly to complex."""
        if self.den is None:
            return [to_complex(c) for c in self.re]
        den = self.den
        if self.im is None:
            return [c / den for c in self.re]
        return [complex(r / den, i / den) if i else r / den for r, i in zip(self.re, self.im)]

    # -- the ring operations ------------------------------------------------
    def __add__(self, other):
        if self.den is None or other.den is None:
            return Poly([sum(cs, Fraction(0)) for cs in zip_longest(
                self._plain(), other._plain(), fillvalue=0)], None, None)
        g = math.gcd(self.den, other.den)
        f, h = other.den // g, self.den // g
        im = None if self.im is None and other.im is None else \
            _lin(self.im or [0] * len(self.re), f, other.im or [0] * len(other.re), h)
        return Poly(_lin(self.re, f, other.re, h), im, self.den * f)

    def __neg__(self):
        if self.den is None:
            return Poly([-c for c in self.re], None, None)
        return Poly([-c for c in self.re], self.im and [-c for c in self.im], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.den is None or other.den is None:
            return Poly(_conv(self._plain(), other._plain(), Fraction(0)), None, None)
        re, im = _conv(self.re, other.re), None
        if self.im is not None or other.im is not None:
            pi, qi = self.im or [0] * len(self.re), other.im or [0] * len(other.re)
            re = _lin(re, 1, _conv(pi, qi), -1)
            im = _lin(_conv(self.re, qi), 1, _conv(pi, other.re), 1)
        return Poly(re, im, self.den * other.den)

    def scale(self, c):
        """c·p for a scalar c."""
        parts = _parts(c)
        if parts is None or self.den is None:
            return Poly([c * x for x in self._plain()], None, None)
        cr, ci, cd = parts
        if not ci and self.im is None:
            return Poly([x * cr for x in self.re], None, self.den * cd)
        re, im = self.re, self.im or [0] * len(self.re)
        return Poly([x * cr - y * ci for x, y in zip(re, im)],
                    [x * ci + y * cr for x, y in zip(re, im)], self.den * cd)

    def shift(self, k):
        """t^k·p, k ≥ 0."""
        pad = [0] * k
        return Poly(pad + self.re, self.im and pad + self.im, self.den)

    def der(self):
        """dp/dt."""
        return Poly([k * c for k, c in enumerate(self.re)][1:],
                    self.im and [k * c for k, c in enumerate(self.im)][1:], self.den)

    def divmod(self, other):
        """(quotient, remainder) by other, real with a nonzero leading coefficient:
        the quotient has max(len(p) − d, 1) coefficients and the remainder d (fewer
        when p is shorter), d = len(other) − 1."""
        d = len(other.re) - 1
        top = len(self.re) - d
        if self.den is None or other.den is None:
            rem, den = list(self._plain()), other._plain()
            quo, lead = [Fraction(0)] * max(top, 1), as_exact(den[-1])
            for k in range(top - 1, -1, -1):
                quo[k] = rem[k + d] if lead == 1 else rem[k + d] / lead
                for i, c in enumerate(den):
                    rem[k + i] -= quo[k] * c
            return Poly(quo, None, None), Poly(rem[:d], None, None)
        # pseudo-division: lead^e·p = quo·q + rem on the integers, e = the quotient's length
        lead = other.re[-1]
        scale = lead ** max(top, 0)
        sign = -1 if scale < 0 else 1
        out = []
        for part in (self.re, self.im):
            if part is None:
                out += [None, None]
                continue
            rem, quo = [c * scale for c in part], [0] * max(top, 1)
            for k in range(top - 1, -1, -1):
                q = quo[k] = rem[k + d] // lead
                if q:
                    for i, c in enumerate(other.re):
                        rem[k + i] -= q * c
            out += [[sign * c * other.den for c in quo], [sign * c for c in rem[:d]]]
        den = self.den * scale * sign
        return Poly(out[0], out[2], den), Poly(out[1], out[3], den)

    # -- reading it ---------------------------------------------------------
    def __len__(self):
        return len(self.re)

    def __bool__(self):
        return self.im is not None or any(self.re)

    def __iter__(self):
        if self.den is None:
            return iter(self.re)
        den = self.den
        if self.im is None:
            return (Fraction(c, den) for c in self.re)
        return (ExactComplex(Fraction(r, den), Fraction(i, den)) if i else Fraction(r, den)
                for r, i in zip(self.re, self.im))

    def __getitem__(self, index):
        """The coefficients at a slice of degrees, as a Poly."""
        return Poly(self.re[index], self.im and self.im[index], self.den)

    def trimmed(self):
        """p without trailing zero coefficients, keeping one."""
        n = len(self.re)
        while n > 1 and not (self.re[n - 1] or self.im and self.im[n - 1]):
            n -= 1
        return self[:n]

    def without(self, degrees):
        """p with the coefficients at the given degrees set to zero."""
        keep = [k not in degrees for k in range(len(self.re))]
        return Poly([c if on else 0 for c, on in zip(self.re, keep)],
                    self.im and [c if on else 0 for c, on in zip(self.im, keep)], self.den)

    def at(self, t):
        """The value of an exact p at a rational t = p/q, by Horner's rule on the
        integers: Σ c_k·p^k·q^(n−k) over q^n·den."""
        p, _, q = _parts(t)
        values = []
        for part in (self.re, self.im or ()):
            acc, qk = 0, 1
            for c in reversed(part):
                acc, qk = acc * p + c * qk, qk * q
            values.append(Fraction(acc * q, qk * self.den))
        return ExactComplex(*values) if self.im else values[0]

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


def sort_key(value):
    """Deterministic ordering key: larger real part first, then larger imag."""
    z = to_complex(value)
    return (-z.real, -z.imag)
