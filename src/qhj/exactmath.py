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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
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


# -- exact polynomials: ascending coefficient lists of Fraction/ExactComplex --

def poly_add(*polys):
    """Sum of ascending coefficient lists."""
    return [sum(cs, Fraction(0)) for cs in zip_longest(*polys, fillvalue=0)]


def poly_mul(p, q):
    """Product of two ascending coefficient lists."""
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        for k, d in enumerate(q):
            if c and d:
                out[i + k] += c * d
    return out


def poly_der(p):
    """Derivative of an ascending coefficient list."""
    return [Fraction(k) * c for k, c in enumerate(p)][1:]


def poly_divmod(num, den):
    """(quotient, remainder) of ascending coefficient lists; den's leading coefficient exact."""
    d, rem, lead = len(den) - 1, list(num), as_exact(den[-1])
    quo = [Fraction(0)] * max(len(num) - d, 1)
    for k in range(len(num) - d - 1, -1, -1):
        quo[k] = rem[k + d] if lead == 1 else rem[k + d] / lead
        for i, c in enumerate(den):
            rem[k + i] -= quo[k] * c
    return quo, rem[:d]


def poly_at(p, t):
    """Horner value of an ascending coefficient list at t."""
    return reduce(lambda acc, c: acc * t + c, reversed(p), Fraction(0))


def expansion_at_infinity(num, den, terms=3):
    """c_0, c_1, … of num/den = Σ_k c_k·t^(−k) at |t| → ∞; den monic, deg num ≤ deg den."""
    d = len(den) - 1
    n, m = ([p[d - k] if k <= d < len(p) + k else 0 for k in range(terms)] for p in (num, den))
    out = []
    for k in range(terms):      # n_k = Σ_j m_j·c_(k−j), with m_0 = 1
        out.append(n[k] - sum((m[j] * out[k - j] for j in range(1, k + 1)), Fraction(0)))
    return out


def sort_key(value):
    """Deterministic ordering key: larger real part first, then larger imag."""
    z = to_complex(value)
    return (-z.real, -z.imag)
