"""Special-function building blocks against independent references.

Oracles used here are independent of the package code: direct quadrature
for the elliptic period, scipy.special for elliptic functions and classical
orthogonal polynomials.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ellipj, ellipk, eval_genlaguerre, eval_jacobi

from qhj import get_model
from qhj.special_functions import (JacobiTriple, elliptic_K, jacobi_elliptic,
                                   jacobi_polynomial, laguerre, sn_cn_dn)

# frozen reference: quarter period at m = 1/2, from the defining integral
# ∫_0^{π/2} dθ/sqrt(1 − m sin²θ) evaluated by adaptive quadrature
K_HALF_QUADRATURE = integrate.quad(
    lambda th: 1.0 / math.sqrt(1.0 - 0.5 * math.sin(th) ** 2), 0.0, math.pi / 2)[0]
K_HALF_FROZEN = 1.8540746773013719


class TestEllipticPeriod:
    def test_quadrature_oracle_agrees_with_frozen_value(self):
        assert abs(K_HALF_QUADRATURE - K_HALF_FROZEN) < 1e-12

    def test_K_matches_quadrature(self):
        assert abs(elliptic_K(0.5) - K_HALF_QUADRATURE) < 1e-12

    @pytest.mark.parametrize("m", [0.01, 0.1, 0.3, 0.7, 0.9, 0.999])
    def test_K_matches_scipy(self, m):
        assert abs(elliptic_K(m) - ellipk(m)) < 1e-12 * ellipk(m)

    def test_K_at_zero_is_quarter_circle(self):
        assert abs(elliptic_K(0.0) - math.pi / 2) < 1e-15

    @pytest.mark.parametrize("m", [-0.1, 1.0, 1.5])
    def test_K_rejects_out_of_range(self, m):
        with pytest.raises(ValueError):
            elliptic_K(m)


class TestJacobiElliptic:
    @pytest.mark.parametrize("m", [0.1, 0.5, 0.9])
    def test_matches_scipy_on_a_grid(self, m):
        for x in np.linspace(-8.0, 8.0, 81):
            mine = jacobi_elliptic(x, m)
            sn, cn, dn, _ = ellipj(x, m)
            assert abs(mine.sn - sn) < 5e-14
            assert abs(mine.cn - cn) < 5e-14
            assert abs(mine.dn - dn) < 5e-14

    def test_trig_limit(self):
        tr = jacobi_elliptic(0.7, 0.0)
        assert tr.sn == pytest.approx(math.sin(0.7), abs=1e-15)
        assert tr.cn == pytest.approx(math.cos(0.7), abs=1e-15)
        assert tr.dn == 1.0

    def test_special_values(self):
        m = 0.37
        K = elliptic_K(m)
        at0 = jacobi_elliptic(0.0, m)
        assert (at0.sn, at0.cn, at0.dn) == (0.0, 1.0, 1.0)
        atK = jacobi_elliptic(K, m)
        assert abs(atK.sn - 1.0) < 1e-12
        assert abs(atK.cn) < 1e-12
        assert abs(atK.dn - math.sqrt(1.0 - m)) < 1e-12

    @settings(max_examples=120, deadline=None)
    @given(x=st.floats(-20.0, 20.0),
           m=st.floats(0.0, 0.99, exclude_max=False))
    def test_identities(self, x, m):
        tr = jacobi_elliptic(x, m)
        assert abs(tr.sn ** 2 + tr.cn ** 2 - 1.0) < 1e-12
        assert abs(tr.dn ** 2 + m * tr.sn ** 2 - 1.0) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(-5.0, 5.0), m=st.floats(0.01, 0.95))
    def test_full_period(self, x, m):
        K = elliptic_K(m)
        a = jacobi_elliptic(x, m)
        b = jacobi_elliptic(x + 4.0 * K, m)
        assert abs(a.sn - b.sn) < 5e-11
        assert abs(a.cn - b.cn) < 5e-11
        assert abs(a.dn - b.dn) < 5e-11


class TestJacobiEllipticArrays:
    @pytest.mark.parametrize("m", [0.0, 1e-9, 0.5, 97 / 98])
    def test_matches_scipy_on_a_2d_grid(self, m):
        xs = np.linspace(-8.0, 8.0, 7 * 13).reshape(7, 13)
        ref = ellipj(xs, m)[:3]
        for mine, theirs in zip(sn_cn_dn(xs, m), ref):
            assert mine.shape == xs.shape
            assert float(np.max(np.abs(mine - theirs))) < 5e-14

    def test_zero_dimensional_input_gives_floats(self):
        model = get_model("lame", j=2, m=Fraction(1, 2))
        assert all(isinstance(v, float) for v in model._sn_cn_dn(0.7))
        assert all(isinstance(v, float) for v in model._sn_cn_dn(np.float64(0.7)))
        tr = jacobi_elliptic(np.array(0.7), 0.5)
        assert isinstance(tr, JacobiTriple)
        assert all(type(v) is float for v in (tr.sn, tr.cn, tr.dn))

    @pytest.mark.parametrize("m", [-0.1, 1.0, 1.5, math.nan])
    def test_rejects_out_of_range(self, m):
        with pytest.raises(ValueError):
            sn_cn_dn(np.linspace(0.0, 1.0, 5), m)
        with pytest.raises(ValueError):
            jacobi_elliptic(0.3, m)


class TestJacobiPolynomial:
    @pytest.mark.parametrize("n,alpha,beta", [
        (0, 0.5, 0.5), (1, 1.5, -0.25), (2, 2.0, 1.0),
        (3, 0.3, 0.7), (5, 1.25, 2.75), (7, 4.0, 0.0),
    ])
    def test_matches_scipy_for_real_indices(self, n, alpha, beta):
        ts = np.linspace(-1.0, 1.0, 21)
        mine = jacobi_polynomial(n, alpha, beta, ts)
        ref = eval_jacobi(n, alpha, beta, ts)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert float(np.max(np.abs(mine - ref))) < 1e-12 * scale

    def test_complex_indices_satisfy_the_defining_ode(self):
        # (1−t²)y'' + (β−α−(α+β+2)t)y' + n(n+α+β+1)y = 0, checked by
        # central finite differences at interior points
        n, alpha, beta = 3, 1.0 + 0.5j, 1.0 - 0.5j
        h = 1e-5
        for t in np.linspace(-0.7, 0.7, 9):
            y0 = jacobi_polynomial(n, alpha, beta, t)
            yp = (jacobi_polynomial(n, alpha, beta, t + h)
                  - jacobi_polynomial(n, alpha, beta, t - h)) / (2 * h)
            ypp = (jacobi_polynomial(n, alpha, beta, t + h) - 2 * y0
                   + jacobi_polynomial(n, alpha, beta, t - h)) / h ** 2
            resid = ((1 - t * t) * ypp
                     + (beta - alpha - (alpha + beta + 2) * t) * yp
                     + n * (n + alpha + beta + 1) * y0)
            assert abs(resid) < 1e-4 * max(1.0, abs(y0))

    def test_degree_zero_and_one(self):
        assert jacobi_polynomial(0, 2.0, 3.0, 0.37) == 1.0
        t = 0.37
        expected = (2.0 - 3.0) / 2.0 + (1.0 + (2.0 + 3.0) / 2.0) * t
        assert abs(jacobi_polynomial(1, 2.0, 3.0, t) - expected) < 1e-15


class TestLaguerre:
    @pytest.mark.parametrize("n,k", [(0, 1), (1, 3), (2, 1), (4, 2), (6, 5)])
    def test_matches_scipy(self, n, k):
        ys = np.linspace(0.0, 12.0, 25)
        mine = laguerre(n, k, ys)
        ref = eval_genlaguerre(n, k, ys)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert float(np.max(np.abs(mine - ref))) < 1e-11 * scale
