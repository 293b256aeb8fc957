"""The quadrature engine: batched G10/K21 panels, and the stubs kept for the tracer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractrunc import constants, quad
from fractrunc.quad import QuadResult, StackResult, Tolerance


def _one(fn, a, b, abs_tol=1e-10, rel_tol=1e-9):
    """``integrate_batch`` on one integral of ``fn(x)``: its value, error and evaluations."""
    values, errors, evals = quad.integrate_batch(lambda x, _: fn(x), [a], [b], abs_tol, rel_tol)
    return values[0], errors[0], evals[0]


def test_smooth_finite():
    value, error, evals = _one(np.sin, 0.0, math.pi)
    assert abs(value - 2.0) <= 1e-9
    assert error <= 1e-7
    assert evals > 0


def test_endpoint_singularity():
    # no node sits on an end, and bisection refines toward the cusp
    value, error, _ = _one(lambda t: t**-0.5, 0.0, 1.0)
    assert abs(value - 2.0) <= error + 1e-10
    assert abs(value - 2.0) <= 1e-6


def test_error_estimate_honest():
    value, error, _ = _one(lambda t: t**-0.25 * np.cos(t), 0.0, 1.0)
    # reference from a change of variables t = u^4 making it smooth
    ref, _, _ = _one(lambda u: 4.0 * u**2 * np.cos(u**4), 0.0, 1.0)
    assert abs(value - ref) <= error + 1e-10


def test_empty_interval_is_zero():
    # an empty integral beside a nonempty one: zero with no error, and the
    # other comes out as it does alone
    values, errors, evals = quad.integrate_batch(lambda x, _: np.cos(x), [1.0, 0.0],
                                                 [1.0, 2.0], 1e-10, 1e-9)
    assert (values[0], errors[0]) == (0.0, 0.0)
    value, _, alone = _one(np.cos, 0.0, 2.0)
    assert values[1] == pytest.approx(value, rel=1e-14) and evals[1] == alone


def test_n_evals_counts_every_call():
    nodes = []

    def f(x, group):
        nodes.append(x.size)
        return np.abs(x - 0.3) + group

    _, _, evals = quad.integrate_batch(f, [0.0, 0.0, 1.0], [1.0, 2.0, 4.0], 1e-12, 1e-12)
    assert evals.sum() == sum(nodes) and len(nodes) > 1


def test_principal_value_name_only_stays_bound():
    # perfbench's tracer looks integrate and integrate_pv up in quad and in
    # constants; they compute nothing
    for name in ("integrate", "integrate_pv"):
        assert name not in quad.__all__ and name not in constants.__all__
        for module in (quad, constants):
            with pytest.raises(NotImplementedError):
                getattr(module, name)(lambda t: 1.0 / t, 0.0, 1.0, Tolerance())


def test_quadresult_arithmetic():
    r = QuadResult(1.0, 1e-12, 21)
    total = r + r.scale(-2.0)
    assert total == QuadResult(-1.0, 3e-12, 42)
    # a stack's evaluations are its members'
    assert StackResult([r, total]).n_evals == 63


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0))
def test_linearity_property(a, b):
    value, _, _ = _one(lambda t: a * t * t + b * np.exp(-t), 0.0, 1.0)
    exact = a / 3.0 + b * (1.0 - math.exp(-1.0))
    assert abs(value - exact) <= 1e-8 * (1.0 + abs(a) + abs(b))


def test_tolerance_scaling():
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            Tolerance(abs_tol=bad)
        with pytest.raises(ValueError):
            Tolerance(rel_tol=bad)


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


def test_integrate_batch_splits_large_rounds():
    # more panels than one integrand call takes: every call stays within the
    # cap, and each integral still comes out as it does alone
    cases = BATCH_CASES[:3] * 1400
    widest = []

    def f(x, group):
        widest.append(x.shape[0])
        out = np.empty_like(x)
        for g in range(3):
            rows = group[:, 0] % 3 == g
            out[rows] = cases[g][0](x[rows])
        return out

    a, b, tols = (np.array([c[i] for c in cases]) for i in (1, 2, 3))
    values, errors, evals = quad.integrate_batch(f, a, b, tols, 1e-9)
    assert max(widest) == quad._PANELS_PER_CALL < len(cases)
    for g, (fn, lo, hi, tol) in enumerate(cases[:3]):
        alone = quad.integrate_batch(lambda x, _: fn(x), [lo], [hi], tol, 1e-9)
        assert np.all(evals[g::3] == alone[2][0])
        assert values[g::3] == pytest.approx(alone[0][0], rel=1e-14, abs=1e-300)
