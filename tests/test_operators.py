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

    def __call__(self, y):
        arg = 1.0 - float(y[-1]) ** 2
        return arg**self.s if arg > 0.0 else 0.0

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
    r = op.directional_at(u, x, np.array([0.0, 1.0]), s, TOL, include_Cs=False)
    assert r.value == pytest.approx(oc.BUMP_IDENTITY[s], rel=1e-8)


@pytest.mark.parametrize("s,mu", [(0.25, 0.1), (0.5, 0.7), (0.75, 1.2)])
def test_power_identity_axis(s, mu):
    z = pr.PowerProfile(mu, 1.0)
    x = np.array([0.0, 0.0, 1.3])
    r = op.directional_at(z, x, np.array([0.0, 0.0, 1.0]), s, TOL)
    predicted = (cn.normalizing_constant(s) * cn.c_s_mu(mu, s)
                 * 1.3 ** (mu - 2.0 * s))
    assert r.value == pytest.approx(predicted, rel=1e-7)


def test_power_identity_oblique():
    s, mu = 0.5, 0.7
    z = pr.PowerProfile(mu, 1.0)
    x = np.array([0.0, 1.0])
    xi = np.array([math.sqrt(3.0) / 2.0, 0.5])
    r = op.directional_at(z, x, xi, s, TOL)
    predicted = (cn.normalizing_constant(s) * 0.5 ** (2.0 * s)
                 * cn.c_s_mu(mu, s))
    assert r.value == pytest.approx(predicted, rel=1e-7)


def test_power_identity_tangential_is_zero():
    z = pr.PowerProfile(0.7, 1.0)
    r = op.directional_at(z, np.array([0.0, 1.0]), np.array([1.0, 0.0]),
                          0.5, TOL)
    assert abs(r.value) <= 1e-9


def test_perpendicular_radial_identity():
    # lines perpendicular to the radial direction see the pure power tail
    gamma, s = 0.6, 0.3
    w = pr.make_w_gamma(gamma)
    x = np.array([0.0, 2.0])
    r = op.directional_at(w, x, np.array([1.0, 0.0]), s, TOL)
    predicted = (cn.normalizing_constant(s) * cn.c_perp(gamma, s)
                 * 2.0 ** (-gamma - 2.0 * s))
    assert r.value == pytest.approx(predicted, rel=1e-7)


def test_homogeneity_2s():
    gamma, s = 0.6, 0.4
    w = pr.make_w_gamma(gamma)
    xi = np.array([0.6, 0.8])
    a = op.directional_at(w, np.array([0.0, 3.0]), xi, s, TOL)
    b = op.directional_at(w, np.array([0.0, 6.0]), xi, s, TOL)
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
    parts = sum((op.directional_at(w, x, xi, s, TOL) for xi in f.vectors),
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


def test_commutation_residual_small():
    v = pr.make_v_gamma(0.5)
    res = op.derivative_commutation_residual(v, np.array([0.0, 2.0]),
                                             np.array([1.0, 0.0]), 0.25)
    assert abs(res) <= 1e-4


def test_growth_metadata_enforced():
    w = pr.make_w_gamma(0.5)
    section = op.make_section(w, np.array([0.0, 2.0]), np.array([0.0, 1.0]))
    assert section.growth_alpha <= 0.0
    with pytest.raises(ValueError):
        op.LineSection(eval=lambda t: t, c2_delta0=-1.0, d2=0.0,
                       discontinuities=[], growth_alpha=0.0)


# --- parity with scipy's quad over the same pieces ---------------------------

def _scipy_piece(f, a, b, abs_tol, rel_tol):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return si.quad(f, a, b, epsabs=abs_tol, epsrel=rel_tol, limit=250)[:2]


def _reference_directional(section, s, tol):
    """The pieces of ``op.directional``, each by scipy's quad, one call per node."""
    def ev(t):
        return float(section.eval(np.array(t)))

    u0 = ev(0.0)

    def kernel(t):
        return (ev(t) + ev(-t) - 2.0 * u0) / t ** (1.0 + 2.0 * s)

    m, d2 = 2.0 - 2.0 * s, section.d2
    eps = np.finfo(float).eps
    delta_cancel = 32.0 * math.sqrt(eps * (abs(u0) + 1.0) / (abs(d2) + 1e-3))
    delta = min(section.c2_delta0 / 2.0, 1.0)
    for _ in range(60):
        small, eq = _scipy_piece(kernel, delta / 2.0, delta, tol.abs_tol / 8.0, tol.rel_tol)
        small += d2 * (delta / 2.0) ** m / m
        taylor_err = abs(d2 * delta**m / m - small)
        if taylor_err <= tol.abs_tol / 4.0 or taylor_err <= eq or delta / 2.0 <= delta_cancel:
            break
        delta /= 2.0
    value, err = small, taylor_err + eq

    bps = sorted({abs(t) for t in section.discontinuities if abs(t) > delta})
    core_end = max(1.0, 2.0 * delta, (bps[-1] + 1.0) if bps else 1.0)
    cuts = [delta] + [b for b in bps if b < core_end] + [core_end]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        def smooth(z, lo=lo, L=hi - lo):
            w = z * z * z * (10.0 + z * (-15.0 + 6.0 * z))
            return kernel(lo + L * w) * L * 30.0 * z * z * (1.0 - z) * (1.0 - z)
        v, e = _scipy_piece(smooth, 0.0, 1.0, tol.abs_tol / (4.0 * len(cuts)), tol.rel_tol)
        value, err = value + v, err + e

    alpha = section.growth_alpha
    c_grow = section.growth_const
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
    return Cs * value, Cs * (err + section.extra_abs_error)


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
    section = op.make_section(u, x, xi)
    r = op.directional(section, s, TOL)
    ref_value, ref_err = _reference_directional(section, s, TOL)
    assert abs(r.value - ref_value) <= r.abs_error_estimate + ref_err
