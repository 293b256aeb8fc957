"""Quadrature engine: singular pieces, infinite tails."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractrunc import constants, quad
from fractrunc.quad import Integrand, NonIntegrable, QuadResult, StackResult, Tolerance, integrate

TOL = Tolerance(1e-10, 1e-9)


def test_smooth_finite():
    f = Integrand(eval=lambda t, m: np.sin(t))
    r = integrate(f, 0.0, math.pi, TOL)[0]
    assert abs(r.value - 2.0) <= 1e-9
    assert r.abs_error_estimate <= 1e-7
    assert r.n_evals > 0


def test_endpoint_singularity():
    f = Integrand(eval=lambda t, m: t**-0.5,
                  singular_points=[(0.0, -0.5, lambda side, d, m: np.ones_like(d))])
    r = integrate(f, 0.0, 1.0, TOL)[0]
    assert abs(r.value - 2.0) <= r.abs_error_estimate + 1e-10
    assert abs(r.value - 2.0) <= 1e-6


def test_interior_singularity():
    # integral_0^2 |t-1|^{-1/2} dt = 4
    f = Integrand(eval=lambda t, m: abs(t - 1.0) ** -0.5,
                  singular_points=[(1.0, -0.5, lambda side, d, m: np.ones_like(d))])
    r = integrate(f, 0.0, 2.0, TOL)[0]
    assert abs(r.value - 4.0) <= 1.5 * r.abs_error_estimate + 1e-10
    assert abs(r.value - 4.0) <= 1e-6


def test_infinite_tail():
    f = Integrand(eval=lambda t, m: t**-2.0, tail_decay=2.0)
    r = integrate(f, 1.0, math.inf, TOL)[0]
    assert abs(r.value - 1.0) <= 1e-8


def test_steep_tail_whose_probes_overflow():
    # at the tail's probes (2 .. 10.6) t**600 overflows while t**-600 underflows to 0
    f = Integrand(eval=lambda t, m: t**-600.0, tail_decay=600.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # numpy's "invalid value" at 0 * inf
        r = integrate(f, 1.0, math.inf, TOL)[0]
    assert abs(r.value - 1.0 / 599.0) <= r.abs_error_estimate <= 1e-10


def test_one_batch_per_call(monkeypatch):
    batches = []
    engine = quad.integrate_batch

    def spy(*args):
        batches.append(args[1].size)
        return engine(*args)

    monkeypatch.setattr(quad, "integrate_batch", spy)
    f = Integrand(eval=lambda t, m: np.abs(t - 1.0) ** -0.5 * np.exp(-t * t), tail_decay=8.0,
                  singular_points=[(1.0, -0.5, lambda side, d, m: np.exp(-(1.0 + side * d) ** 2))])
    calls = [lambda: integrate(f, 0.0, 2.0, TOL), lambda: integrate(f, 0.0, math.inf, TOL)]
    for call in calls:
        batches.clear()
        call()
        assert len(batches) == 1 and batches[0] > 1


def test_nonintegrable_rejected():
    f = Integrand(eval=lambda t, m: t**-1.5,
                  singular_points=[(0.0, -1.5, lambda side, d, m: np.ones_like(d))])
    with pytest.raises(NonIntegrable):
        integrate(f, 0.0, 1.0, TOL)


def test_principal_value_name_only_stays_bound():
    # perfbench's tracer looks integrate_pv up in quad and constants; it computes nothing
    assert "integrate_pv" not in quad.__all__
    for module in (quad, constants):
        with pytest.raises(NotImplementedError):
            module.integrate_pv(Integrand(eval=lambda t, m: 1.0 / t), 0.0, 1.0, TOL)


def test_lower_end_must_be_finite():
    f = Integrand(eval=lambda t, m: np.exp(-t * t), tail_decay=8.0)
    for a, b in ((-math.inf, 0.5), (-math.inf, math.inf), (math.nan, 1.0), (math.inf, math.inf),
                 (1.0, 0.0)):
        with pytest.raises(ValueError):
            integrate(f, a, b, TOL)


def test_empty_interval_is_zero():
    smooth = Integrand(eval=lambda t, m: np.sin(t))
    assert integrate(smooth, 1.0, 1.0) == (QuadResult(0.0, 0.0, 0),)
    # a singular end and a stack of integrals make no pieces either
    singular = Integrand(eval=lambda t, m: t**-0.5,
                         singular_points=[(0.0, -0.5, lambda side, d, m: np.ones_like(d))])
    assert integrate(singular, 0.0, 0.0, TOL) == (QuadResult(0.0, 0.0, 0),)
    stack = Integrand(eval=lambda t, m: np.cos(t) * (m + 1.0), stack=3)
    assert list(integrate(stack, 2.0, 2.0, TOL)) == [QuadResult(0.0, 0.0, 0)] * 3


def test_n_evals_counts_every_call():
    nodes = Counter()

    def counted(name, fn):
        def wrapper(*args):
            nodes[name] += np.size(args[-2])  # the nodes; the member index comes last
            return fn(*args)
        return wrapper

    def f(t, m):
        return abs(t - 1.0) ** -0.5 * abs(t - 3.0) ** 0.5 / (t * (1.0 + t * t) ** 2)

    def near_one(side, d, m):  # f(1 + side*d) * d^{1/2}
        t = 1.0 + side * d
        return abs(t - 3.0) ** 0.5 / (t * (1.0 + t * t) ** 2)

    def near_three(side, d, m):  # f(3 + side*d) * d^{-1/2}
        t = 3.0 + side * d
        return abs(t - 1.0) ** -0.5 / (t * (1.0 + t * t) ** 2)

    # singular endpoint and a kink at 3, each with its regular part, and an infinite tail
    f_int = Integrand(eval=counted("eval", f), tail_decay=5.0,
                      singular_points=[(1.0, -0.5, counted("regular", near_one)),
                                       (3.0, 0.5, counted("regular", near_three))])
    r = integrate(f_int, 1.0, math.inf, TOL)[0]
    assert nodes["eval"] > 0 and nodes["regular"] > 0
    assert r.n_evals == nodes["eval"] + nodes["regular"]


def test_error_estimate_honest():
    f = Integrand(eval=lambda t, m: t**-0.25 * np.cos(t),
                  singular_points=[(0.0, -0.25, lambda side, d, m: np.cos(d))])
    r = integrate(f, 0.0, 1.0, TOL)[0]
    # reference from a change of variables t = u^4 making it smooth
    g = Integrand(eval=lambda u, m: 4.0 * u**2 * np.cos(u**4))
    ref = integrate(g, 0.0, 1.0, TOL)[0]
    assert abs(r.value - ref.value) <= r.abs_error_estimate + 1e-10


def test_quadresult_arithmetic():
    f = Integrand(eval=lambda t, m: np.ones_like(t))
    r = integrate(f, 0.0, 1.0, TOL)[0]
    total = r + r.scale(2.0)
    assert abs(total.value - 3.0) <= 1e-12
    assert total.n_evals == 2 * r.n_evals


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0))
def test_linearity_property(a, b):
    f = Integrand(eval=lambda t, m: a * t * t + b * np.exp(-t), tail_decay=math.inf)
    r = integrate(f, 0.0, 1.0, TOL)[0]
    exact = a / 3.0 + b * (1.0 - math.exp(-1.0))
    assert abs(r.value - exact) <= 1e-8 * (1.0 + abs(a) + abs(b))


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


def test_jump_with_regular_part_keeps_its_singular_piece():
    nodes = Counter()

    def near_jump(side, d, m):
        nodes["regular"] += d.size
        return np.full_like(d, 1.0 if side > 0 else 0.0)

    step = Integrand(eval=lambda t, m: np.where(t > 0.7, 1.0, 0.0),
                     singular_points=[(0.7, 0.0, near_jump)])
    r = integrate(step, 0.0, 2.0, TOL)[0]
    assert nodes["regular"] > 0
    assert abs(r.value - 1.3) <= 1e-10


@pytest.mark.parametrize("om", [0.5, 2e-3, 1e-4, 2e-5])
def test_singular_piece_near_exponent_minus_one(om):
    # integral_0^inf t^(om-1) / (1 + t/delta)^2 dt = delta^om Gamma(om) Gamma(2-om): the
    # regular part varies around u = -log(t) ~ 7, in a piece of ~log(1/tol)/om
    # e-folds (1.8e6 at om = 2e-5)
    delta = 1e-3
    e = om - 1.0
    om = 1.0 + e  # the exponent the integrand declares, exactly
    f = Integrand(eval=lambda t, m: t**e / (1.0 + t / delta) ** 2, tail_decay=2.0 - e,
                  singular_points=[(0.0, e, lambda side, d, m: 1.0 / (1.0 + d / delta) ** 2)])
    r = integrate(f, 0.0, math.inf, Tolerance(1e-10, 1e-12))[0]
    want = delta**om * math.gamma(om) * math.gamma(2.0 - om)
    assert abs(r.value - want) <= r.abs_error_estimate + 1e-14 * want


def test_singular_piece_starts_one_efold_wide():
    # panels growing by half, the first at most one e-fold wide: 8 of them
    # while that holds, else the fewest that make it so; a stack pads each
    # member's row with empty panels
    plan = quad._Plan(3)
    scale = np.array([1.0, 1e20, 1e200])  # each member's cut-off grows with its |r|
    for expo in (0.0, -0.9, -0.9999):
        quad._singular_piece(plan, lambda d, m: scale[m] / (1.0 + d), expo, 1.0, 1e-12)
    counts = []
    for edges in plan.edges:
        for row in edges:
            widths = np.diff(row)[np.diff(row) > 0.0]
            span = row[-1] - row[0]
            counts.append(widths.size)
            assert np.allclose(widths[1:] / widths[:-1], 1.5)
            assert widths[0] <= 1.0 + 1e-12
            assert widths.size == 8 or span > 2.0 * (1.5 ** (widths.size - 1) - 1.0)
    assert counts[:3] == [8, 10, 14] and max(counts) > 30


# --- stacks: integrals that share their declarations -------------------------

def _scaled_pole(c):
    """integral_0^inf t^(-1/2) / (1 + c t)^2 dt = (pi/2) / sqrt(c), singular at 0 with a regular part."""
    return Integrand(eval=lambda t, m: t**-0.5 / (1.0 + c * t) ** 2, tail_decay=2.5,
                     singular_points=[(0.0, -0.5, lambda side, d, m: 1.0 / (1.0 + c * d) ** 2)])


def test_stack_members_are_their_one_integral_calls(monkeypatch):
    cs = np.array([0.5, 1.0, 3.0, 10.0, 1e4])
    calls = Counter()

    def stacked(t, m):
        calls["eval"] += t.shape[-1] == 21  # engine rounds, not probes
        return t**-0.5 / (1.0 + cs[m] * t) ** 2

    def near0(side, d, m):
        calls["regular"] += d.shape[-1] == 21
        return 1.0 / (1.0 + cs[m] * d) ** 2

    rounds = []
    engine = quad.integrate_batch

    def spy(f, *args):
        rounds.append(0)

        def counted(x, group):
            rounds[-1] += 1
            return f(x, group)
        return engine(counted, *args)

    monkeypatch.setattr(quad, "integrate_batch", spy)
    f = Integrand(eval=stacked, singular_points=[(0.0, -0.5, near0)], tail_decay=2.5,
                  stack=cs.size)
    results = integrate(f, 0.0, math.inf, TOL)
    # one engine call; each piece function once per round over every member
    assert len(rounds) == 1
    assert 0 < calls["eval"] <= 2 * rounds[0] and 0 < calls["regular"] <= rounds[0]
    assert isinstance(results, StackResult) and len(results) == cs.size
    assert results.n_evals == sum(r.n_evals for r in results)
    for c, r in zip(cs, results):
        one, = integrate(_scaled_pole(c), 0.0, math.inf, TOL)
        assert isinstance(one, QuadResult)
        assert r.value == pytest.approx(one.value, rel=1e-14) and r.n_evals == one.n_evals
        assert abs(r.value - math.pi / (2.0 * math.sqrt(c))) <= r.abs_error_estimate + 1e-10


def test_integral_without_a_stack_is_a_stack_of_one():
    # the whole call's n_evals, which perfbench's tracer reads, is its one member's
    result = integrate(_scaled_pole(3.0), 0.0, math.inf, TOL)
    assert isinstance(result, StackResult) and len(result) == 1
    assert result.n_evals == result[0].n_evals > 0
    assert abs(result[0].value - math.pi / (2.0 * math.sqrt(3.0))) \
        <= result[0].abs_error_estimate + 1e-10
    with pytest.raises(ValueError):
        Integrand(eval=np.sin, stack=0)
