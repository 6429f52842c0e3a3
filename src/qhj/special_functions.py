"""Special functions needed by the solver, implemented from scratch.

Elliptic integrals use the arithmetic-geometric mean, Jacobi elliptic
functions use the descending Landen transformation (one array pass per
grid: the AGM ladder depends on the parameter alone), and the classical
orthogonal polynomials use their three-term recurrences.  No series in the
modulus, no factorial ratios — these stay accurate for n up to a few hundred
and for complex polynomial indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class _Numpy:
    """numpy, imported on the first attribute read: `import qhj` and `qhj list` load none."""

    def __getattr__(self, name):
        import numpy
        value = self.__dict__[name] = getattr(numpy, name)     # later reads skip this hook
        return value


np = _Numpy()     # the catalog's np too

_EPS = 1e-15


def elliptic_K(m):
    """Complete elliptic integral of the first kind, parameter convention.

    K(m) = ∫_0^{π/2} dθ / sqrt(1 − m sin²θ), computed by the AGM:
    K(m) = π / (2·AGM(1, sqrt(1−m))).

    Parameters
    ----------
    m : float
        Parameter (the squared modulus), 0 <= m < 1.
    """
    m = float(m)
    if m < 0.0 or m >= 1.0:
        raise ValueError("elliptic_K requires 0 <= m < 1, got %r" % (m,))
    a, b = 1.0, math.sqrt(1.0 - m)
    while abs(a - b) > _EPS * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (a + b)


@dataclass(frozen=True)
class JacobiTriple:
    """Values (sn, cn, dn) of the Jacobi elliptic functions at one point."""

    sn: float
    cn: float
    dn: float


def sn_cn_dn(x, m):
    """Jacobi elliptic functions sn, cn, dn by descending Landen recursion.

    Builds the AGM ladder a_n, b_n, c_n from (1, sqrt(1−m), sqrt(m)), sets
    φ_N = 2^N a_N x at the top and recovers the amplitude by the backward
    recurrence sin(2φ_{n−1} − φ_n) = (c_n/a_n)·sin φ_n.  Then
    sn = sin φ_0, cn = cos φ_0, dn = sqrt(1 − m sn²).  The ladder depends
    on m alone, so it is built once and the recurrence runs over the whole
    array x.

    Parameters
    ----------
    x : float or array of floats
        Arguments; the three results have its shape (0-d input gives
        scalars).
    m : float
        Parameter, 0 <= m < 1.
    """
    x = np.asarray(x, dtype=float)
    m = float(m)
    if not 0.0 <= m < 1.0:
        raise ValueError("Jacobi elliptic functions need 0 <= m < 1, got %r" % (m,))
    if m == 0.0:
        return np.sin(x)[()], np.cos(x)[()], np.ones_like(x)[()]
    a, b, c = 1.0, math.sqrt(1.0 - m), math.sqrt(m)
    ladder = []
    # ladder[k] holds (a_{k+1}, c_{k+1}): the backward amplitude step from
    # φ_n to φ_{n−1} uses the level-n pair
    while abs(c) > _EPS * a:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        ladder.append((a, c))
    phi = (2.0 ** len(ladder)) * a * x
    for a_n, c_n in reversed(ladder):
        phi = 0.5 * (phi + np.arcsin(np.clip((c_n / a_n) * np.sin(phi), -1.0, 1.0)))
    sn = np.sin(phi)
    dn = np.sqrt(np.maximum(0.0, 1.0 - m * sn * sn))
    return sn[()], np.cos(phi)[()], dn[()]


def jacobi_elliptic(x, m):
    """sn, cn, dn at one point x as a JacobiTriple (see sn_cn_dn)."""
    return JacobiTriple(*(float(v) for v in sn_cn_dn(float(x), m)))


def jacobi_polynomial(n, alpha, beta, t):
    """Jacobi polynomial P_n^(α,β)(t) by its three-term recurrence.

    Supports complex α, β, and t (needed for band-edge states whose
    polynomial indices are complex).  Scalar in, scalar out.

    Recurrence (for c = 2k + α + β):
        P_0 = 1
        P_1 = (α − β)/2 + (1 + (α+β)/2)·t
        2(k+1)(k+1+α+β)·c · P_{k+1} =
            (c+1)·(c(c+2)t + α² − β²)·P_k − 2(k+α)(k+β)(c+2)·P_{k−1}
    """
    n = int(n)
    if n < 0:
        raise ValueError("polynomial degree must be nonnegative, got %r" % (n,))
    if n == 0:
        return 1.0 + 0.0 * (alpha + beta + t)
    p_prev = 1.0
    p = (alpha - beta) / 2 + (1 + (alpha + beta) / 2) * t
    for k in range(1, n):
        c = 2 * k + alpha + beta
        a1 = 2 * (k + 1) * (k + 1 + alpha + beta) * c
        a2 = (c + 1) * (alpha * alpha - beta * beta)
        a3 = (c + 1) * c * (c + 2)
        a4 = 2 * (k + alpha) * (k + beta) * (c + 2)
        p, p_prev = ((a2 + a3 * t) * p - a4 * p_prev) / a1, p
    return p


def laguerre(n, k, y):
    """Generalized Laguerre polynomial L_n^(k)(y) by three-term recurrence.

        L_0 = 1,  L_1 = 1 + k − y,
        (j+1)·L_{j+1} = (2j + 1 + k − y)·L_j − (j + k)·L_{j−1}.
    """
    n = int(n)
    if n < 0:
        raise ValueError("polynomial degree must be nonnegative, got %r" % (n,))
    if n == 0:
        return 1.0 + 0.0 * y
    p_prev = 1.0
    p = 1 + k - y
    for j in range(1, n):
        p, p_prev = ((2 * j + 1 + k - y) * p - (j + k) * p_prev) / (j + 1), p
    return p
