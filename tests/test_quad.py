"""Quadrature engine: singular pieces, principal values, infinite tails."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractrunc import quad
from fractrunc.quad import (Integrand, NonIntegrable, Tolerance, integrate,
                            integrate_pv)

TOL = Tolerance(1e-10, 1e-9)


def test_smooth_finite():
    f = Integrand(eval=lambda t: math.sin(t))
    r = integrate(f, 0.0, math.pi, TOL)
    assert abs(r.value - 2.0) <= 1e-9
    assert r.abs_error_estimate <= 1e-7
    assert r.n_evals > 0


def test_endpoint_singularity():
    f = Integrand(eval=lambda t: t**-0.5, singular_points=[(0.0, -0.5)])
    r = integrate(f, 0.0, 1.0, TOL)
    assert abs(r.value - 2.0) <= r.abs_error_estimate + 1e-10
    assert abs(r.value - 2.0) <= 1e-6


def test_interior_singularity():
    # integral_0^2 |t-1|^{-1/2} dt = 4
    f = Integrand(eval=lambda t: abs(t - 1.0) ** -0.5,
                  singular_points=[(1.0, -0.5)])
    r = integrate(f, 0.0, 2.0, TOL)
    assert abs(r.value - 4.0) <= 1.5 * r.abs_error_estimate + 1e-10
    assert abs(r.value - 4.0) <= 1e-6


def test_infinite_tail():
    f = Integrand(eval=lambda t: t**-2.0, tail_decay=2.0)
    r = integrate(f, 1.0, math.inf, TOL)
    assert abs(r.value - 1.0) <= 1e-8


def test_gaussian_both_tails():
    f = Integrand(eval=lambda t: math.exp(-t * t), tail_decay=8.0)
    r = integrate(f, -math.inf, math.inf, TOL)
    assert abs(r.value - math.sqrt(math.pi)) <= 1e-8


def test_pv_odd_kernel_cancels():
    # PV integral of 1/t over (-1, 1) is 0
    f = Integrand(eval=lambda t: 1.0 / t, pv_points=[0.0],
                  pv_fold={0.0: (0.0, lambda h: 0.0)})
    r = integrate_pv(f, 0.0, 1.0, TOL)
    assert abs(r.value) <= 1e-10


def test_pv_with_regular_part():
    # PV integral of e^t / t over (-1, 1) = 2 * sum t^{2k+1}/((2k+1)(2k+1)!)
    exact = 2.0 * sum(1.0 / ((2 * k + 1) * math.factorial(2 * k + 1))
                      for k in range(12))
    f = Integrand(eval=lambda t: math.exp(t) / t, pv_points=[0.0],
                  pv_fold={0.0: (0.0, lambda h: (math.exp(h) - math.exp(-h)) / h)})
    r = integrate_pv(f, 0.0, 1.0, TOL)
    assert abs(r.value - exact) <= 1e-9


def test_nonintegrable_rejected():
    f = Integrand(eval=lambda t: t**-1.5, singular_points=[(0.0, -1.5)])
    with pytest.raises(NonIntegrable):
        integrate(f, 0.0, 1.0, TOL)


def test_error_estimate_honest():
    f = Integrand(eval=lambda t: t**-0.25 * math.cos(t),
                  singular_points=[(0.0, -0.25)])
    r = integrate(f, 0.0, 1.0, TOL)
    # reference from a change of variables t = u^4 making it smooth
    g = Integrand(eval=lambda u: 4.0 * u**2 * math.cos(u**4))
    ref = integrate(g, 0.0, 1.0, TOL)
    assert abs(r.value - ref.value) <= r.abs_error_estimate + 1e-10


def test_quadresult_arithmetic():
    f = Integrand(eval=lambda t: 1.0)
    r = integrate(f, 0.0, 1.0, TOL)
    total = r + r.scale(2.0)
    assert abs(total.value - 3.0) <= 1e-12
    assert total.n_evals == 2 * r.n_evals


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0))
def test_linearity_property(a, b):
    f = Integrand(eval=lambda t: a * t * t + b * math.exp(-t), tail_decay=math.inf)
    r = integrate(f, 0.0, 1.0, TOL)
    exact = a / 3.0 + b * (1.0 - math.exp(-1.0))
    assert abs(r.value - exact) <= 1e-8 * (1.0 + abs(a) + abs(b))


def test_tolerance_scaling():
    t = Tolerance(1e-6, 1e-5)
    s = t.scaled(0.1)
    assert s.abs_tol == pytest.approx(1e-7)
    assert s.rel_tol == pytest.approx(1e-6)
    with pytest.raises(ValueError):
        Tolerance(abs_tol=-1.0)


# --- batched G10/K21 engine -------------------------------------------------

def test_gk21_rule_exactness():
    from scipy.special import roots_legendre

    x = quad.GK21_NODES
    gauss = quad.G10_WEIGHTS > 0.0
    nodes, weights = roots_legendre(10)
    assert np.allclose(x[gauss], nodes, rtol=0.0, atol=1e-15)
    assert np.allclose(quad.G10_WEIGHTS[gauss], weights, rtol=0.0, atol=1e-15)
    for d in range(32):
        exact = (1.0 - (-1.0) ** (d + 1)) / (d + 1)
        assert x**d @ quad.GK21_WEIGHTS == pytest.approx(exact, abs=1e-15)
        if d < 20:
            assert x**d @ quad.G10_WEIGHTS == pytest.approx(exact, abs=1e-15)
    assert abs(x**32 @ quad.GK21_WEIGHTS - 2.0 / 33.0) > 1e-12


# (integrand, a, b, abs_tol): smooth, kinked, endpoint cusp, and one whose
# rounding-level noise keeps the tolerance out of reach
BATCH_CASES = [
    (lambda x: np.cos(3.0 * x) * np.exp(x), 0.0, 2.0, 1e-10),
    (lambda x: np.abs(x - 0.3), 0.0, 1.0, 1e-10),
    (lambda x: x**0.1, 0.0, 1.0, 1e-10),
    (lambda x: np.sin(x) * (1.0 + 1e-9 * np.sin(1e9 * x)), 0.0, 1.0, 1e-14),
]


def test_integrate_batch_matches_scipy_quad():
    from scipy import integrate as si

    def f(x, group):
        out = np.empty_like(x)
        for g, (fn, _, _, _) in enumerate(BATCH_CASES):
            rows = group[:, 0] == g
            out[rows] = fn(x[rows])
        return out

    a, b, tols = (np.array([c[i] for c in BATCH_CASES]) for i in (1, 2, 3))
    values, errors, evals = quad.integrate_batch(f, a, b, tols, 1e-9)
    for g, (fn, lo, hi, tol) in enumerate(BATCH_CASES):
        ref, ref_err = si.quad(fn, lo, hi, epsabs=tol, epsrel=1e-9, limit=250)[:2]
        assert abs(values[g] - ref) <= errors[g] + ref_err
        # each integral refines on its own: alone it takes the same panels
        alone = quad.integrate_batch(lambda x, _: fn(x), [lo], [hi], tol, 1e-9)
        assert alone[2][0] == evals[g]
        assert alone[0][0] == pytest.approx(values[g], rel=1e-14, abs=1e-300)
    # the first three reach their tolerance; the noise-bound one cannot
    assert np.all(errors[:3] <= np.maximum(tols, 1e-9 * np.abs(values))[:3])
    assert errors[3] > tols[3]
