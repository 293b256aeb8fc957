"""Acceptance gate: the twelve certification criteria, at stated tolerances."""

import math

import numpy as np
import pytest

from fractrunc import constants as cn
from fractrunc import operators as op
from fractrunc import profiles as pr
from fractrunc import verify as vf
from fractrunc.quad import Tolerance

import oracles as oc

TOL = Tolerance(1e-10, 1e-9)


# -- 1. bump identity -------------------------------------------------------

@pytest.mark.parametrize("s", [0.25, 0.5])
@pytest.mark.parametrize("t", [0.0, 0.5])
def test_01_bump_identity(s, t):
    class Bump:
        growth_alpha = 0.0
        growth_const = 1.0

        def line(self, x, xi):
            x_n, xi_n = float(x[-1]), np.asarray(xi)[..., -1]
            return lambda t: np.maximum(1.0 - (x_n + t * xi_n) ** 2, 0.0) ** s

        def c2_radius(self, x):
            return max(abs(1.0 - abs(float(x[-1]))) / 2.0, 1e-6)

        def breakpoints(self, x, xi):
            if abs(xi[-1]) < 1e-14:
                return []
            return sorted((b - float(x[-1])) / float(xi[-1])
                          for b in (-1.0, 1.0))

    r = op.directional(Bump(), np.array([0.0, t]), np.array([0.0, 1.0]),
                       s, TOL)
    expected = cn.normalizing_constant(s) * oc.BUMP_IDENTITY[s]
    assert r.value == pytest.approx(expected, rel=1e-6)


# -- 2. c_{s,mu} dual representation ----------------------------------------

@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_02_c_s_mu_dual_representation(s):
    for factor in (0.1, 0.5, 1.0, 1.5):
        mu = factor * s
        primary = cn.c_s_mu(mu, s, form="primary")
        alternate = cn.c_s_mu(mu, s, form="alternate")
        assert primary == pytest.approx(alternate, abs=1e-8)
    assert abs(cn.c_s_mu(s, s)) <= 1e-8


# -- 3. growth-case root -----------------------------------------------------

@pytest.mark.parametrize("s", [0.6, 0.75, 0.9])
def test_03_growth_case_root(s):
    assert abs(cn.hat_c_gro(2.0 * s - 1.0, s)) <= 1e-7


# -- 4. root consistency ------------------------------------------------------

S_GRID = [0.25, 0.5, 0.75]


def _root_cases():
    cases = [("gamma_bar", 2, s) for s in S_GRID]
    cases += [("gamma_tilde", N, s) for N in (2, 3) for s in S_GRID]
    cases += [("gamma_plus", N, s) for N in (2, 3) for s in S_GRID]
    return cases


@pytest.mark.parametrize("which,nk,s", _root_cases())
def test_04_root_consistency(which, nk, s):
    tol = Tolerance(1e-12, 1e-11)
    finder = {"gamma_bar": cn.find_gamma_bar,
              "gamma_tilde": cn.find_gamma_tilde,
              "gamma_plus": cn.find_gamma_plus}[which]
    coarse = finder(nk, s, tol)
    assert coarse is not None
    assert abs(coarse.residual) <= 1e-8
    fine = finder(nk, s, tol.scaled(0.1))
    assert abs(coarse.root - fine.root) <= 1e-6


# -- 5. existence dichotomy ---------------------------------------------------

def test_05_existence_dichotomy():
    for s in (0.5, 0.6, 0.75, 0.9):
        assert cn.find_gamma_bar(1, s) is None
    for s in (0.1, 0.25, 0.4):
        r = cn.find_gamma_bar(1, s)
        assert r is not None and 0.0 < r.root < 1.0
    for k in (2, 3):
        for s in S_GRID:
            r = cn.find_gamma_bar(k, s)
            assert r is not None and 0.0 < r.root < 1.0


# -- 6. ordering and limit ----------------------------------------------------

def test_06_ordering_and_limit():
    for N in (2, 3):
        for s in S_GRID:
            tilde = cn.find_gamma_tilde(N, s).root
            plus = cn.find_gamma_plus(N, s).root
            assert plus > tilde
    near = abs(cn.find_gamma_tilde(3, 0.99).root - 1.0)
    far = abs(cn.find_gamma_tilde(3, 0.9).root - 1.0)
    assert near < far


# -- 7. convexity --------------------------------------------------------------

def test_07_convexity():
    s, N = 0.5, 3
    grid = np.linspace(0.2, 5.0, 50)
    iso = [cn.c_iso(g, s, N) for g in grid]
    nplus = [cn.c_n_plus(g, s, N) for g in grid]
    d2_iso = np.diff(iso, 2)
    d2_np = np.diff(nplus, 2)
    assert np.all(d2_iso >= -1e-7)
    assert np.all(d2_np > 0.0)


# -- 8. closed form vs search --------------------------------------------------

def _search_cases():
    cases = []
    for N in (2, 3):
        for k in range(1, N + 1):
            cases.append((N, k, "plus", "plus"))
        cases.append((N, N, "minus_full", "minus"))
    return cases


@pytest.mark.parametrize("N,k,closed_variant,search_variant", _search_cases())
def test_08_search_matches_closed_form(N, k, closed_variant, search_variant):
    gamma, s = 0.5, 0.5
    w = pr.make_w_gamma(gamma)
    x = np.zeros(N)
    x[0] = 2.0
    closed = op.extremal_radial(w, x, s, k, closed_variant, TOL)
    found, _ = op.extremal_search(w, x, s, k, search_variant,
                                  budget=10, seed=42)
    assert found.value == pytest.approx(closed.value, rel=1e-3)


# -- 9. supersolution suite -----------------------------------------------------

@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_09a_bump_train(p):
    assert vf.verify_bump_train(0.3, p).verdict == "pass"


def test_09b_t49_2():
    report = vf.verify_T49_2(3, 0.5)
    assert report.verdict == "pass"
    gp = report.params["gamma_plus"]
    p = 1.0 + 1.0 / gp + 0.2  # 2s = 1
    assert report.params["gamma"] == pytest.approx(1.0 / (p - 1.0))


@pytest.mark.parametrize("op_kind,N", [("ik_minus", 2), ("in_plus", 3)])
def test_09c_singular_supersolution(op_kind, N):
    report = vf.verify_singular_supersolution(0.5, -3.0, op_kind, N)
    assert report.verdict == "pass"
    if op_kind == "ik_minus":
        # residual already includes the 1e-6 threshold: |I u + u^p| <= 1e-6
        assert all(c.residual <= 0.0 for c in report.residuals)


@pytest.mark.parametrize("mu,s", [(0.1, 0.25), (0.3, 0.5), (0.9, 0.75)])
def test_09d_power_identity_grid(mu, s):
    assert vf.verify_power_identity(mu, s).verdict == "pass"


# -- 10. subsolution suite --------------------------------------------------------

@pytest.mark.parametrize("kind,k,s", [("decay", 2, 0.5),
                                      ("halfint", 1, 0.5),
                                      ("growth", 1, 0.75)])
def test_10_psi_subsolution(kind, k, s):
    report = vf.verify_psi_subsolution(kind, k, s)
    assert report.verdict == "pass"
    assert report.extra["empirical_R0"] is not None
    # the stated lower-bound constant is actually the one certified
    psi = pr.make_psi(kind, k, s)
    assert report.params["bound_constant"] == pytest.approx(
        vf._psi_bound_constant(kind, k, s, psi))


# -- 11. derivative commutation ----------------------------------------------------

@pytest.mark.parametrize("s", [0.25, 0.75])
def test_11a_commutation_v_gamma(s):
    v = pr.make_v_gamma(0.5)
    x = np.array([0.0, 2.0])
    for xi in (np.array([1.0, 0.0]), np.array([0.6, 0.8])):
        assert abs(op.derivative_commutation_residual(v, x, xi, s)) <= 1e-4


def test_11b_commutation_v_minus_gamma():
    s = 0.75
    v = pr.make_v_minus_gamma(0.25, s)
    x = np.array([0.0, 2.0])
    for xi in (np.array([1.0, 0.0]), np.array([0.6, 0.8])):
        assert abs(op.derivative_commutation_residual(v, x, xi, s)) <= 1e-4


# -- 12. transform closure ------------------------------------------------------------

def test_12_transform_closure():
    s, p, q = 0.5, -3.0, -5.0
    u, M, mu = pr.build_singular_supersolution(s, p, "ik_minus", 2)
    tp = pr.TransformParams(p, q)
    v = pr.power_transform(u, p, q)
    direct = pr.PowerProfile(mu * tp.beta_exp,
                             tp.alpha_coef * M**tp.beta_exp)
    for t in np.geomspace(0.1, 10.0, 17):
        x = np.array([0.0, t])
        assert abs(v(x) - direct(x)) <= 1e-10 * max(1.0, abs(direct(x)))
    report = vf.verify_transform(s, p, q)
    assert report.verdict == "pass"
