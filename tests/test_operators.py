"""Directional operator engine, frames, and extremal search."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate as si
from scipy.integrate import IntegrationWarning

from fractrunc import constants as cn
from fractrunc import operators as op
from fractrunc import profiles as pr
from fractrunc import verify as vf
from fractrunc.quad import Tolerance

import oracles as oc

TOL = Tolerance(1e-10, 1e-9)


class CompactBump:
    """(1 - |t|^2)_+^s along the last axis; zero metadata elsewhere."""

    def __init__(self, s):
        self.s = s
        self.growth_alpha = 0.0
        self.growth_const = 1.0
        self.is_radial = False

    def line(self, x, xi):
        x_n, xi_n, s = float(x[-1]), np.asarray(xi)[..., -1], self.s
        return lambda t: np.maximum(1.0 - (x_n + t * xi_n) ** 2, 0.0) ** s

    def c2_radius(self, x):
        return max(abs(1.0 - abs(float(x[-1]))) / 2.0, 1e-6)

    def breakpoints(self, x, xi):
        if abs(xi[-1]) < 1e-14:
            return []
        return sorted((b - float(x[-1])) / float(xi[-1]) for b in (-1.0, 1.0))


@pytest.mark.parametrize("s", [0.25, 0.5])
@pytest.mark.parametrize("t", [0.0, 0.5])
def test_bump_raw_identity(s, t):
    u = CompactBump(s)
    x = np.array([0.0, t])
    r = op.directional(u, x, np.array([0.0, 1.0]), s, TOL)
    expected = cn.normalizing_constant(s) * oc.BUMP_IDENTITY[s]
    assert r.value == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("s,mu", [(0.25, 0.1), (0.5, 0.7), (0.75, 1.2)])
def test_power_identity_axis(s, mu):
    z = pr.PowerProfile(mu, 1.0)
    x = np.array([0.0, 0.0, 1.3])
    r = op.directional(z, x, np.array([0.0, 0.0, 1.0]), s, TOL)
    predicted = (cn.normalizing_constant(s) * cn.c_s_mu(mu, s)
                 * 1.3 ** (mu - 2.0 * s))
    assert r.value == pytest.approx(predicted, rel=1e-7)


def test_power_identity_oblique():
    s, mu = 0.5, 0.7
    z = pr.PowerProfile(mu, 1.0)
    x = np.array([0.0, 1.0])
    xi = np.array([math.sqrt(3.0) / 2.0, 0.5])
    r = op.directional(z, x, xi, s, TOL)
    predicted = (cn.normalizing_constant(s) * 0.5 ** (2.0 * s)
                 * cn.c_s_mu(mu, s))
    assert r.value == pytest.approx(predicted, rel=1e-7)


def test_power_identity_tangential_is_zero():
    z = pr.PowerProfile(0.7, 1.0)
    r = op.directional(z, np.array([0.0, 1.0]), np.array([1.0, 0.0]),
                       0.5, TOL)
    assert abs(r.value) <= 1e-9


def test_perpendicular_radial_identity():
    # lines perpendicular to the radial direction see the pure power tail
    gamma, s = 0.6, 0.3
    w = pr.make_w_gamma(gamma)
    x = np.array([0.0, 2.0])
    r = op.directional(w, x, np.array([1.0, 0.0]), s, TOL)
    predicted = (cn.normalizing_constant(s) * cn.c_perp(gamma, s)
                 * 2.0 ** (-gamma - 2.0 * s))
    assert r.value == pytest.approx(predicted, rel=1e-7)


def test_homogeneity_2s():
    gamma, s = 0.6, 0.4
    w = pr.make_w_gamma(gamma)
    xi = np.array([0.6, 0.8])
    a = op.directional(w, np.array([0.0, 3.0]), xi, s, TOL)
    b = op.directional(w, np.array([0.0, 6.0]), xi, s, TOL)
    assert b.value == pytest.approx(a.value * 2.0 ** (-gamma - 2.0 * s),
                                    rel=1e-7)


def test_frame_validation():
    with pytest.raises(ValueError):
        op.Frame(np.array([[1.0, 0.0], [1.0, 0.0]]))
    f = op.canonical_frame(3, 2)
    assert f.k == 2 and f.N == 3


def test_householder_frame_angles():
    xhat = np.array([0.3, -0.5, 0.8124038404635961])
    xhat /= np.linalg.norm(xhat)
    f = op.householder_frame(xhat)
    dots = f.vectors @ xhat
    assert np.allclose(np.abs(dots), 1.0 / math.sqrt(3.0), atol=1e-12)
    assert np.allclose(f.vectors @ f.vectors.T, np.eye(3), atol=1e-12)


def test_completion_frame_contains_radial():
    xhat = np.array([0.6, 0.8])
    f = op.completion_frame(xhat, 2)
    assert np.allclose(f.vectors[0], xhat, atol=1e-12)


def test_random_frame_orthonormal():
    rng = np.random.default_rng(0)
    f = op.random_frame(4, 3, rng)
    assert np.allclose(f.vectors @ f.vectors.T, np.eye(3), atol=1e-12)


def test_frame_sum_additivity():
    gamma, s = 0.5, 0.4
    w = pr.make_w_gamma(gamma)
    x = np.array([0.0, 2.0])
    f = op.canonical_frame(2, 2)
    total = op.frame_sum(w, x, f, s, TOL)
    parts = sum((op.directional(w, x, xi, s, TOL) for xi in f.vectors),
                start=op.QuadResult(0.0, 0.0, 0))
    assert total.value == pytest.approx(parts.value, abs=1e-10)


def test_minus_full_matches_isotropic_constant():
    gamma, s, N = 0.7, 0.5, 3
    w = pr.make_w_gamma(gamma)
    x = 2.0 * np.eye(N)[0]
    r = op.extremal_radial(w, x, s, N, "minus_full", TOL)
    predicted = (N * cn.normalizing_constant(s) * cn.c_iso(gamma, s, N)
                 * 2.0 ** (-gamma - 2.0 * s))
    assert r.value == pytest.approx(predicted, rel=1e-6)


@pytest.mark.parametrize("k,closed_variant,search_variant",
                         [(1, "plus", "plus"), (2, "plus", "plus"),
                          (2, "minus_full", "minus")])
def test_search_matches_closed_form_n2(k, closed_variant, search_variant):
    gamma, s = 0.5, 0.5
    w = pr.make_w_gamma(gamma)
    x = np.array([2.0, 0.0])
    closed = op.extremal_radial(w, x, s, k, closed_variant, TOL)
    found, frame = op.extremal_search(w, x, s, k, search_variant,
                                      budget=6, seed=1)
    assert found.value == pytest.approx(closed.value, rel=1e-3)
    assert frame.k == k


def test_search_requires_known_variant():
    w = pr.make_w_gamma(0.5)
    with pytest.raises(ValueError):
        op.extremal_search(w, np.array([2.0, 0.0]), 0.5, 1, "sideways")


@pytest.mark.parametrize("k,settings,message", [
    (1, {"budget": 0}, "budget and sweeps"),
    (1, {"budget": -2}, "budget and sweeps"),
    (0, {}, "k must lie in 1..N"),
    (3, {}, "k must lie in 1..N"),
    (1, {"sweeps": 0}, "budget and sweeps"),
])
def test_search_rejects_bad_settings(k, settings, message):
    w = pr.make_w_gamma(0.5)
    with pytest.raises(ValueError, match=message):
        op.extremal_search(w, np.array([2.0, 0.0]), 0.5, k, "plus", **settings)


def test_search_finds_kinked_optimum():
    # on this min-field the plus objective peaks at a kink, at xi = e_1,
    # falling ~5e-2 per radian on either side: the search must land within
    # both error bars of the value there
    s = 0.391
    u, _ = pr.build_thIN_supersolution(2, s, 3.82)
    x = np.array([-0.0469, 1.3451])
    search_tol = Tolerance(1e-7, 1e-6)
    kink = op.directional(u, x, np.array([1.0, 0.0]), s, search_tol)
    for seed in range(4):
        found, _ = op.extremal_search(u, x, s, 1, "plus", budget=1, seed=seed,
                                      tol=search_tol, sweeps=1)
        bars = found.abs_error_estimate + kink.abs_error_estimate
        assert found.value >= kink.value - bars


def test_commutation_residual_small():
    v = pr.make_v_gamma(0.5)
    res = op.derivative_commutation_residual(v, np.array([0.0, 2.0]),
                                             np.array([1.0, 0.0]), 0.25)
    assert abs(res) <= 1e-4


def test_growth_metadata_enforced():
    # growth exponent 1.2 >= 2s: the defining integral diverges
    with pytest.raises(op.GrowthViolation):
        op.directional(pr.PowerProfile(1.2), np.array([0.0, 2.0]), np.array([0.0, 1.0]), 0.5)

    class NoC2Window(CompactBump):
        def c2_radius(self, x):
            return 0.0

    with pytest.raises(ValueError, match="C\\^2 window"):
        op.directional(NoC2Window(0.5), np.array([0.0, 0.5]), np.array([0.0, 1.0]), 0.5)


class _CountingField:
    """A field's proxy that counts the values its line closures return."""

    def __init__(self, field):
        self.field, self.evals = field, 0

    def __getattr__(self, name):
        return getattr(self.field, name)

    def line(self, x, xi):
        at = self.field.line(x, xi)

        def counted(t):
            out = at(t)
            self.evals += np.size(out)
            return out
        return counted


# metadata (breakpoints, C^2 radius) of these fields is analytic, so every
# evaluation the proxy sees belongs to the operator; the half-space tail has
# no d2_along (finite differences), the other two no growth_const (probes)
COUNTED_FIELDS = {
    "halfspace_tail": lambda: pr.HalfSpacePowerTail(0.7),
    "power_profile": lambda: pr.PowerProfile(0.05, 2.0),
    "radial_profile": lambda: pr.make_w_gamma(0.5),
}


@pytest.mark.parametrize("s", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("kind", sorted(COUNTED_FIELDS))
def test_n_evals_counts_field_evaluations(kind, s):
    u = _CountingField(COUNTED_FIELDS[kind]())
    r = op.directional(u, np.array([0.3, 1.2]), np.array([0.6, 0.8]), s, TOL)
    assert r.n_evals == u.evals


# --- parity with scipy's quad over the same pieces ---------------------------

def _scipy_piece(f, a, b, abs_tol, rel_tol):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return si.quad(f, a, b, epsabs=abs_tol, epsrel=rel_tol, limit=250)[:2]


def _reference_directional(u, x, xi, s, tol):
    """The pieces of ``op.directional``, each by scipy's quad, one call per node.

    It reads the field's own hooks, one direction at a time.
    """
    line = u.line(x, xi)

    def ev(t):
        return float(line(np.array(t)))

    u0 = ev(0.0)

    def kernel(t):
        return (ev(t) + ev(-t) - 2.0 * u0) / t ** (1.0 + 2.0 * s)

    discontinuities = [float(t) for t in u.breakpoints(x, xi)]
    window = min([float(u.c2_radius(x))] + [abs(t) for t in discontinuities])
    if hasattr(u, "d2_along"):
        d2 = float(u.d2_along(x, xi))
    else:  # Richardson extrapolation of central differences at h and h/2
        h = window / 8.0
        coarse = (ev(h) + ev(-h) - 2.0 * u0) / (h * h)
        fine = (ev(h / 2.0) + ev(-h / 2.0) - 2.0 * u0) / (h * h / 4.0)
        d2 = (4.0 * fine - coarse) / 3.0
    m = 2.0 - 2.0 * s
    eps = np.finfo(float).eps
    delta_cancel = 32.0 * math.sqrt(eps * (abs(u0) + 1.0) / (abs(d2) + 1e-3))
    delta = min(window / 2.0, 1.0)
    for _ in range(60):
        small, eq = _scipy_piece(kernel, delta / 2.0, delta, tol.abs_tol / 8.0, tol.rel_tol)
        small += d2 * (delta / 2.0) ** m / m
        taylor_err = abs(d2 * delta**m / m - small)
        if taylor_err <= tol.abs_tol / 4.0 or taylor_err <= eq or delta / 2.0 <= delta_cancel:
            break
        delta /= 2.0
    value, err = small, taylor_err + eq

    bps = sorted({abs(t) for t in discontinuities if abs(t) > delta})
    core_end = max(1.0, 2.0 * delta, (bps[-1] + 1.0) if bps else 1.0)
    cuts = [delta] + [b for b in bps if b < core_end] + [core_end]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        def smooth(z, lo=lo, L=hi - lo):
            w = z * z * z * (10.0 + z * (-15.0 + 6.0 * z))
            return kernel(lo + L * w) * L * 30.0 * z * z * (1.0 - z) * (1.0 - z)
        v, e = _scipy_piece(smooth, 0.0, 1.0, tol.abs_tol / (4.0 * len(cuts)), tol.rel_tol)
        value, err = value + v, err + e

    alpha = float(u.growth_alpha)
    c_grow = getattr(u, "growth_const", None)
    if c_grow is None:
        c_grow = max(max(abs(ev(t)), abs(ev(-t))) / (1.0 + t) ** alpha
                     for t in (core_end, 3.0 * core_end, 9.0 * core_end))

    def remainder(T):
        return 2.0 ** (1.0 + alpha) * c_grow * T ** (alpha - 2.0 * s) / (2.0 * s - alpha)

    T = core_end
    while c_grow > 0.0 and remainder(T) > tol.abs_tol / 4.0 and math.log(T) < 550.0:
        T *= 8.0
    value -= u0 * T ** (-2.0 * s) / s
    err += remainder(T) if c_grow > 0.0 else 0.0
    if T > core_end:
        v, e = _scipy_piece(lambda w: (ev(math.exp(w)) + ev(-math.exp(w)) - 2.0 * u0)
                            * math.exp(-2.0 * s * w),
                            math.log(core_end), math.log(T), tol.abs_tol / 4.0, tol.rel_tol)
        value, err = value + v, err + e
    Cs = cn.normalizing_constant(s)
    extra = float(u.extra_abs_error(x)) if hasattr(u, "extra_abs_error") else 0.0
    return Cs * value, Cs * (err + extra)


# field kinds whose growth exponent stays below 2s for every s tested
PARITY_FIELDS = {
    "radial_decay": lambda N: pr.make_w_gamma(0.5),
    "psi_decay": lambda N: pr.make_psi("decay", 2, 0.5),
    "bump_train": lambda N: pr.BumpTrain(0.2, 0.5, window=6),
    "halfspace_power_tail": lambda N: pr.HalfSpacePowerTail(0.7, shift=0.8),
    "singular_power": lambda N: pr.PowerProfile(0.05, 2.0),
    "min_composition": lambda N: pr.MinField(
        pr.HalfSpacePowerTail(0.7, shift=0.8), pr.PowerProfile(0.25, 0.5), 0.3),
    "ball_bump": lambda N: vf._BallBump(np.r_[np.zeros(N - 1), -0.5], 1.5, 0.5),
}


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("s", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("kind", sorted(PARITY_FIELDS))
def test_directional_matches_scipy_reference(kind, s, N):
    rng = np.random.default_rng(round(1000 * s) + N)
    u = PARITY_FIELDS[kind](N)
    x = np.r_[rng.uniform(-1.0, 1.0, N - 1), rng.uniform(0.2, 2.0)]
    xi = rng.standard_normal(N)
    xi /= np.linalg.norm(xi)
    r = op.directional(u, x, xi, s, TOL)
    ref_value, ref_err = _reference_directional(u, x, xi, s, TOL)
    assert abs(r.value - ref_value) <= r.abs_error_estimate + ref_err


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("s", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("kind", sorted(PARITY_FIELDS))
def test_fan_matches_one_call_per_direction(kind, s, N):
    rng = np.random.default_rng(round(1000 * s) + 10 * N)
    u = PARITY_FIELDS[kind](N)
    x = np.r_[rng.uniform(-1.0, 1.0, N - 1), rng.uniform(0.2, 2.0)]
    # axis directions, then directions of any length: the fan scales them
    # to unit length as directional does
    directions = np.concatenate((np.eye(N), 3.0 * rng.standard_normal((4, N))))
    fan = op.directional_fan(u, x, directions, s, TOL)
    assert len(fan) == len(directions)
    for xi, r in zip(directions, fan):
        one = op.directional(u, x, xi, s, TOL)
        assert r.n_evals == one.n_evals
        bars = r.abs_error_estimate + one.abs_error_estimate
        assert abs(r.value - one.value) <= max(1e-13 * abs(one.value), bars)
        assert r.abs_error_estimate == pytest.approx(one.abs_error_estimate, rel=1e-13)
