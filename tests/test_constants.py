"""Constants module against independent Gamma-function oracles."""

import math

import numpy as np
import pytest
from scipy.special import binom, eval_gegenbauer

from fractrunc import constants as cn
from fractrunc.quad import Tolerance

import oracles as oc

S_GRID = [0.25, 0.5, 0.75]


@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_normalizing_constant(s):
    assert cn.normalizing_constant(s) == pytest.approx(
        oc.normalizing_constant_oracle(s), rel=1e-12)


@pytest.mark.parametrize("s", S_GRID)
def test_beta_reflection(s):
    assert cn.beta_1ms_s(s) == pytest.approx(oc.beta_oracle(s), rel=1e-12)


@pytest.mark.parametrize("s", [0.25, 0.4])
@pytest.mark.parametrize("gamma", [0.1, 0.3, 0.45])
def test_hat_c_dec_closed_form(gamma, s):
    # keep gamma + 2s away from 1 where both sides vanish
    if abs(gamma + 2.0 * s - 1.0) < 1e-3:
        pytest.skip("at the root")
    assert cn.hat_c_dec(gamma, s) == pytest.approx(
        oc.hat_c_dec_oracle(gamma, s), rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("s", S_GRID)
@pytest.mark.parametrize("gamma", [0.2, 0.5, 0.8, 1.5, 3.0])
def test_c_perp_closed_form(gamma, s):
    assert cn.c_perp(gamma, s) == pytest.approx(
        oc.c_perp_oracle(gamma, s), rel=1e-8)


@pytest.mark.parametrize("s", [0.25, 0.75])
def test_c_s_mu_closed_form(s):
    for mu in (0.3 * s, 0.8 * s, 1.4 * s):
        assert cn.c_s_mu(mu, s) == pytest.approx(
            oc.c_s_mu_oracle(mu, s), rel=1e-8, abs=1e-10)


def test_c_s_mu_half_quarter():
    # removable point of the closed form: frozen independent value -pi/4
    assert cn.c_s_mu(0.25, 0.5) == pytest.approx(oc.C_HALF_QUARTER, abs=1e-9)


def test_c_s_mu_negative_below_s_zero_at_s():
    assert cn.c_s_mu(0.2, 0.5) < 0.0
    assert abs(cn.c_s_mu(0.5, 0.5)) <= 1e-9


def test_c_k_decomposition():
    # c_k = c_hat + (k-1) c_perp by construction of the frame sum
    gamma, s = 0.4, 0.3
    assert cn.c_k_fn(gamma, s, 3) == pytest.approx(
        cn.hat_c_dec(gamma, s) + 2.0 * cn.c_perp(gamma, s), rel=1e-9)


@pytest.mark.parametrize("bad", [-0.1, 0.0, 1.0, 1.5])
def test_domain_errors_s(bad):
    with pytest.raises(cn.DomainError):
        cn.normalizing_constant(bad)


def test_domain_errors_gamma():
    with pytest.raises(cn.DomainError):
        cn.hat_c_dec(1.2, 0.3)
    with pytest.raises(cn.DomainError):
        cn.hat_c_gro(0.8, 0.6)  # gamma beyond 2s-1
    with pytest.raises(cn.DomainError):
        cn.hat_c_gro(0.2, 0.4)  # needs s > 1/2
    with pytest.raises(cn.DomainError):
        cn.c_s_mu(1.2, 0.5)  # mu beyond 2s


def test_gamma_bar_k1_matches_exact():
    for s in (0.1, 0.25, 0.4):
        r = cn.find_gamma_bar(1, s)
        assert r is not None
        assert r.root == pytest.approx(oc.gamma_bar_k1_oracle(s), abs=1e-8)
    for s in (0.5, 0.75):
        assert cn.find_gamma_bar(1, s) is None


@pytest.mark.parametrize("key", sorted(oc.FROZEN_ROOTS))
def test_frozen_roots(key):
    which, nk, s = key
    expected = oc.FROZEN_ROOTS[key]
    if which == "gamma_bar":
        result = cn.find_gamma_bar(nk, s)
    elif which == "gamma_tilde":
        result = cn.find_gamma_tilde(nk, s)
    else:
        result = cn.find_gamma_plus(nk, s)
    assert result is not None
    assert result.root == pytest.approx(expected, abs=5e-8)
    assert abs(result.residual) <= 1e-8


def test_root_result_fields():
    r = cn.find_gamma_tilde(3, 0.5)
    lo, hi = r.bracket
    assert lo < r.root < hi
    assert r.iterations >= 1


def test_exponent_table_structure():
    table = cn.exponent_table(3, 0.5)
    ops = [row["operator"] for row in table.rows]
    assert ops == ["I_1^-", "I_2^-", "I_3^-", "I_1^+", "I_2^+", "I_3^+"]
    for row in table.rows[:2]:
        assert row["p_star"] == 1.0
        assert row["p_lower_star"] == 1.0
    full_minus = table.rows[2]
    gp = cn.find_gamma_plus(3, 0.5).root
    assert full_minus["p_star_upper"] == pytest.approx(1.0 + 1.0 / gp)
    assert tuple(full_minus["p_lower_star"]) == (-1.0, 0.0)
    plus1 = table.rows[3]
    # k=1, s=1/2: no bounded-exponent root; threshold 1/(1-s)
    assert plus1["p_star_lower"] == pytest.approx(2.0)


def test_tighter_quadrature_stability():
    tol = Tolerance(1e-12, 1e-11)
    a = cn.find_gamma_bar(2, 0.5, tol)
    b = cn.find_gamma_bar(2, 0.5, tol.scaled(0.1))
    assert abs(a.root - b.root) <= 1e-6


# --- calibration over the admissible range ----------------------------------

CALIBRATION_S = [0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99]
CALIBRATION_GAMMA = [0.05, 0.5, 0.95]

# Integrals with an algebraic tail are truncated at t = e^690 (the float
# range) and the remainder past it is taken from the leading exponent alone.
# The primary c_s_mu integrand mixes t^(-1-2s+mu) and t^(-1-2s); for 2s below
# ~0.025 the second term's share of the remainder, about
# e^(-690*2s) * (1/(2s-mu) - 1/(2s)), still exceeds 1e-10.
_MIXED_TAIL = ("tail mixes the exponents 1+2s-mu and 1+2s; the remainder past "
               "e^690 uses the leading one")


@pytest.mark.parametrize("s", CALIBRATION_S)
@pytest.mark.parametrize("gamma", CALIBRATION_GAMMA)
def test_decay_constants_calibrated(gamma, s):
    dec = oc.hat_c_dec_oracle(gamma, s)
    perp = oc.c_perp_oracle(gamma, s)
    assert cn.c_perp(gamma, s) == pytest.approx(perp, rel=1e-8, abs=1e-10)
    assert cn.hat_c_dec(gamma, s) == pytest.approx(dec, rel=1e-8, abs=1e-10)
    assert cn.c_k_fn(gamma, s, 3) == pytest.approx(dec + 2.0 * perp,
                                                  rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("gamma,s", [(g, s) for s in CALIBRATION_S if s > 0.5
                                     for g in CALIBRATION_GAMMA if g <= 2.0 * s - 1.0])
def test_growth_constant_calibrated(gamma, s):
    # hat_c_gro(gamma) is minus the decay constant continued to -gamma
    assert cn.hat_c_gro(gamma, s) == pytest.approx(
        -oc.hat_c_dec_oracle(-gamma, s), rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("s", CALIBRATION_S)
@pytest.mark.parametrize("half", [True, False])
@pytest.mark.parametrize("form", ["primary", "alternate"])
def test_c_s_mu_calibrated(form, half, s, request):
    mu = s / 2.0 if half else s
    if form == "primary":
        request.applymarker(pytest.mark.xfail(2.0 * s < 0.025, reason=_MIXED_TAIL,
                                              strict=True))
    else:
        # the alternate form's endpoint exponent is min(2s-mu, mu) - 1; its
        # substitution u = -log d runs out of float range (d underflows at
        # u ~ 745) before exp(-min(2s-mu, mu)*u) has decayed when that
        # minimum is below ~0.008
        request.applymarker(pytest.mark.xfail(
            min(2.0 * s - mu, mu) < 0.008, strict=True,
            reason="endpoint substitution underflows before it has decayed"))
    want = oc.C_HALF_QUARTER if (s, mu) == (0.5, 0.25) else oc.c_s_mu_oracle(mu, s)
    assert cn.c_s_mu(mu, s, form) == pytest.approx(want, rel=1e-8, abs=1e-10)


# --- tabled series against the per-term evaluation ---------------------------

def _even_series_reference(coefficient, n_terms, d):
    """The series summed per term, one scipy.special call per coefficient."""
    total = 0.0
    term_pow = 1.0
    for j in range(1, n_terms + 1):
        term = 2.0 * coefficient(2 * j) * term_pow
        total += term
        term_pow *= d * d
        if abs(term) < 1e-18 * max(abs(total), 1e-300):
            break
    return total


def _pow_pair_reference(alpha, d):
    if d < 0.25:
        return _even_series_reference(lambda n: binom(alpha, n), 79, d)
    return ((1.0 + d) ** alpha + (1.0 - d) ** alpha - 2.0) / (d * d)


def _iso_pair_reference(gam, a, d):
    if d < 0.25:
        return _even_series_reference(
            lambda n: eval_gegenbauer(n, gam / 2.0, a), 119, d)
    plus = (1.0 + d * d + 2.0 * a * d) ** (-gam / 2.0)
    minus = (1.0 + d * d - 2.0 * a * d) ** (-gam / 2.0)
    return (plus + minus - 2.0) / (d * d)


def _series_points(rng):
    return [*rng.uniform(0.0, 0.25, 12), 1e-300, 1e-8, 0.2499, 0.3]


def test_pow_pair_series_matches_per_term_sum():
    rng = np.random.default_rng(7)
    for alpha in [*rng.uniform(-1.0, 2.0, 10), -0.5, 0.5, 1.0]:
        pair = cn._pow_pair_series(alpha)
        for d in _series_points(rng):
            assert pair(d) == _pow_pair_reference(alpha, d), (alpha, d)


@pytest.mark.parametrize("a", [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(3.0), 0.5])
def test_iso_pair_series_matches_per_term_sum(a):
    rng = np.random.default_rng(11)
    for gam in [*rng.uniform(0.05, 4.0, 8), 2.0]:
        pair = cn._iso_pair_series(gam, a)
        for d in _series_points(rng):
            assert pair(d) == _iso_pair_reference(gam, a, d), (gam, a, d)
