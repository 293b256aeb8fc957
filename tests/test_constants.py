"""Constants module against independent Gamma-function oracles."""

import math
import warnings

import numpy as np
import pytest
import mpmath
from scipy.optimize import brentq
from scipy.special import gamma as scipy_gamma

from fractrunc import constants as cn
from fractrunc import quad

import oracles as oc

S_GRID = [0.25, 0.5, 0.75]


def test_oracle_gamma_matches_scipy():
    # the oracles' Gamma takes scipy's values, poles included: an infinity
    # of the zero's sign at +-0 and nan at every negative integer
    grid = [*np.linspace(-6.0, 12.0, 145).tolist(), -0.0, 1e-9, -1e-9, -2.5 + 1e-12]
    for x in grid:
        got, want = oc.G(x), float(scipy_gamma(x))
        if math.isnan(want):
            assert math.isnan(got), x
        else:
            assert got == pytest.approx(want, rel=1e-13), x
    assert oc.G(0.0) == math.inf and oc.G(-0.0) == -math.inf
    assert all(math.isnan(oc.G(-n)) for n in range(1, 7))


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


def _c_s_mu_mp(mu, s):
    """The primary closed form of c_{s,mu} in 40-digit mpmath."""
    m, sm = mpmath.mpf(mu), mpmath.mpf(s)
    with mpmath.workdps(40):
        return float(m / (2 * sm) * mpmath.beta(m, 2 * sm - m)
                     * mpmath.sin(mpmath.pi * (m - sm)) / mpmath.sin(mpmath.pi * sm))


@pytest.mark.parametrize("s", [0.999, 0.9999999])
def test_c_s_mu_keeps_its_accuracy_near_s_one(s):
    # sin(pi*s) is small there: pi*s rounded in double would cost ~1e-9
    for mu in (0.5 * s, 1.5 * s):
        assert cn.c_s_mu(mu, s) == pytest.approx(_c_s_mu_mp(mu, s), rel=1e-13)


@pytest.mark.parametrize("s", [1e-5, 3e-5, 0.002, 0.01, 0.5, 0.99, 0.99999])
def test_c_s_mu_alternate_at_the_range_edges(s):
    # the series of the first-derivative integral, from mu/s = 1e-4, where the
    # u^{mu-1} end is nearly non-integrable, to 2s - mu = 1e-4 s at the other end
    for ratio in (1e-4, 0.01, 0.999999, 1.0, 1.9999):
        mu = ratio * s
        got = cn.c_s_mu(mu, s, "alternate")
        if mu == s:
            assert got == 0.0
            continue
        want = _c_s_mu_mp(mu, s)
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want)), (mu, got, want)


def test_c_s_mu_negative_below_s_zero_at_s():
    assert cn.c_s_mu(0.2, 0.5) < 0.0
    assert abs(cn.c_s_mu(0.5, 0.5)) <= 1e-9


def test_c_k_decomposition():
    # c_k = c_hat + (k-1) c_perp by construction of the frame sum
    gamma, s = 0.4, 0.3
    assert cn.c_k_fn(gamma, s, 3) == pytest.approx(
        cn.hat_c_dec(gamma, s) + 2.0 * cn.c_perp(gamma, s), rel=1e-9)


@pytest.mark.parametrize("k", [0, -1])
def test_c_k_requires_k_at_least_1(k):
    with pytest.raises(cn.DomainError, match="k must be >= 1"):
        cn.c_k_fn(0.5, 0.3, k)
    with pytest.raises(cn.DomainError, match="k must be >= 1"):
        cn.find_gamma_bar(k, 0.3)


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


@pytest.mark.parametrize("s", [0.4999999, 0.49999999999])
def test_gamma_bar_k1_is_exact_near_one_half(s):
    # the root 1-2s lies below the bracket search's floor 1e-6, but it exists
    r = cn.find_gamma_bar(1, s)
    assert r is not None and r.root == 1.0 - 2.0 * s
    i1_plus = cn.exponent_table(2, s).rows[2]
    assert i1_plus["operator"] == "I_1^+"
    assert i1_plus["p_star_upper_ref"] == 1.0 + 2.0 * s / (1.0 - 2.0 * s)


@pytest.mark.parametrize("k,s", [(2, 0.9996), (2, 0.9999), (2, 0.99999),
                                 (3_000_000, 0.5), (10**9, 0.5)])
def test_gamma_bar_exists_outside_the_first_bracket(k, s):
    # the root lies near 4.9 (1-s)^2 for k = 2 as s -> 1, and near 1 for
    # large k: both leave (1e-6, 1 - 1e-6), and a root exists for every k >= 2
    r = cn.find_gamma_bar(k, s)
    assert r is not None
    lo, hi = r.bracket
    assert lo <= r.root <= hi and hi - lo <= 1e-9 * r.root
    assert cn.c_k_fn(lo, s, k) * cn.c_k_fn(hi, s, k) <= 0.0
    with mpmath.workdps(40):
        sm = mpmath.mpf(s)

        def ratio(h):  # c_k / c_perp at gamma = 1 - h
            return (mpmath.sqrt(mpmath.pi) * mpmath.gamma(h / 2) * mpmath.rgamma(h / 2 - sm)
                    / mpmath.gamma(0.5 + sm) + k - 1)
        g = mpmath.mpf(r.root)
        ends = (1 - 2 * g, 1 - g / 2) if r.root < 0.5 else ((1 - g) / 2, 2 * (1 - g))
        assert ratio(ends[0]) * ratio(ends[1]) < 0
        exact = 1 - mpmath.findroot(ratio, ends, solver="anderson")
        assert abs(r.root - exact) <= 1e-6 * exact


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
    assert isinstance(r.iterations, int) and r.iterations >= 1


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


@pytest.mark.parametrize("name,call", [
    ("hat_c_dec", lambda: cn.hat_c_dec(0.4, 0.3)),
    ("c_perp", lambda: cn.c_perp(0.4, 0.3)),
    ("c_k_fn", lambda: cn.c_k_fn(0.4, 0.3, 3)),
    ("hat_c_gro", lambda: cn.hat_c_gro(0.2, 0.8)),
    ("c_iso", lambda: cn.c_iso(1.2, 0.5, 3)),
    ("c_n_plus", lambda: cn.c_n_plus(1.5, 0.5, 3)),
    ("c_s_mu primary", lambda: cn.c_s_mu(0.3, 0.5)),
    ("c_s_mu alternate", lambda: cn.c_s_mu(0.3, 0.5, "alternate")),
])
def test_one_batched_quadrature_per_constant(name, call, monkeypatch):
    # the 1-D kernel constants are closed forms, and c_iso, c_n_plus's
    # correction and the alternate c_s_mu series: no quadrature at all
    calls = _no_engine_call(monkeypatch)
    assert math.isfinite(call())
    assert calls == []


# --- calibration over the admissible range ----------------------------------

CALIBRATION_S = [0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99]
CALIBRATION_GAMMA = [0.01, 0.05, 0.5, 0.95]


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
def test_c_s_mu_calibrated(form, half, s):
    mu = s / 2.0 if half else s
    want = oc.C_HALF_QUARTER if (s, mu) == (0.5, 0.25) else oc.c_s_mu_oracle(mu, s)
    assert cn.c_s_mu(mu, s, form) == pytest.approx(want, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("key", sorted(oc.FROZEN_KERNEL))
def test_closed_forms_match_frozen_integrals(key):
    name, param, s = key
    got = {"c_perp": cn.c_perp, "hat_c_dec": cn.hat_c_dec, "hat_c_gro": cn.hat_c_gro,
           "c_s_mu": cn.c_s_mu}[name](param, s)
    assert got == pytest.approx(oc.FROZEN_KERNEL[key], rel=1e-12)


def test_kernel_roots_are_exact_zeros():
    # a reciprocal Gamma that vanishes at its pole puts the roots exactly
    assert cn.hat_c_dec(1.0 - 2.0 * 0.25, 0.25) == 0.0
    assert cn.hat_c_gro(2.0 * 0.75 - 1.0, 0.75) == 0.0
    assert cn.c_s_mu(0.3, 0.3) == 0.0


@pytest.mark.parametrize("s", [0.01, 0.5, 0.99])
def test_c_perp_at_large_gamma(s):
    # Gamma(gamma/2) alone overflows past gamma ~ 343, and a difference of
    # two lgamma values loses digits as gamma grows
    for gam in (29.9, 30.1, 339.0, 341.0, 2000.0, 1e6, 1e9, 1e300):
        g, sm = mpmath.mpf(gam), mpmath.mpf(s)
        with mpmath.workdps(340):  # 1e300/2 + s keeps s
            want = float(mpmath.gamma(-sm) * mpmath.gamma(g / 2 + sm) / mpmath.gamma(g / 2))
        assert cn.c_perp(gam, s) == pytest.approx(want, rel=5e-15), gam


@pytest.mark.parametrize("key", sorted(oc.FROZEN_C_ISO))
def test_c_iso_frozen(key):
    assert cn.c_iso(*key) == pytest.approx(oc.FROZEN_C_ISO[key], rel=1e-10)


def test_c_iso_frozen_within_its_bars():
    for key, want in oc.FROZEN_C_ISO.items():
        got = cn.iso_stack([key[0]], *key[1:], False)[0]
        assert abs(got.value - want) <= got.abs_error_estimate, (key, got)


# --- c_iso's series against mpmath -------------------------------------------

AUDIT_S = [1e-5, 0.01, 0.3, 0.5, 0.9, 0.99, 0.99999]
AUDIT_GAMMA = [1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 3.7, 10.0, 28.0, 100.0, 262.41047680416006,
               1000.0, 5000.0]


def _mp_c_iso(gam, s, N):
    """c_iso at 40 digits: c_perp times 2F1(g/2+s, s+1/2; 1/2; -1/(N-1)) (1-1/N)^(-g/2-s).

    That is the series' 2F1(g/2+s, -s; 1/2; 1/N) before Pfaff's transformation.
    c_iso(2, 1/2, 2) is exactly 0 (gamma_tilde(2, 1/2) = 2), where mpmath's sum
    finds no relative accuracy.
    """
    if (gam, s, N) == (2.0, 0.5, 2):
        return 0.0
    with mpmath.workdps(40):
        g, sm, n = mpmath.mpf(gam), mpmath.mpf(s), mpmath.mpf(N)
        perp = mpmath.gamma(-sm) * mpmath.gamma(g / 2 + sm) / mpmath.gamma(g / 2)
        return float(perp * mpmath.hyp2f1(g / 2 + sm, sm + 0.5, 0.5, -1 / (n - 1))
                     * (1 - 1 / n) ** (-g / 2 - sm))


@pytest.mark.parametrize("s", AUDIT_S)
@pytest.mark.parametrize("N", [2, 3, 4, 9, 20])
def test_c_iso_series_within_its_bars(N, s):
    # gamma from 1e-3 up to the largest under the 1e300 peak guard
    top = 2.0 * math.log(1e300) / -math.log1p(-1.0 / N) * (1.0 - 1e-12)
    gammas = [g for g in AUDIT_GAMMA if g < top] + [top]
    for g, got in zip(gammas, cn.iso_stack(gammas, s, N, False)):
        want = _mp_c_iso(g, s, N)
        assert got.n_evals == 0 and abs(got.value - want) <= got.abs_error_estimate, (g, got, want)


def test_c_iso_series_at_large_gamma():
    # c_iso ~ 6e38 at gamma ~ 262, N = 2, where the series' terms grow for ~130
    # terms before they fall: its value from _mp_c_iso, frozen
    got = cn.iso_stack([262.41047680416006], 0.3356145841839309, 2, False)[0]
    want = 6.1996960233340388e38
    assert _mp_c_iso(262.41047680416006, 0.3356145841839309, 2) == pytest.approx(want, rel=1e-16)
    assert abs(got.value - want) <= got.abs_error_estimate <= 1e-13 * want


def _mp_c_n_plus(gam, s, N):
    """c_N^+ = N c_iso - corr at 40 digits, corr in u = 1/t.

    corr = integral over (0, a) of u^{c-1} (1 - 2au + u^2)^{-g/2}, a = 1/sqrt(N) and
    c = g + 2s, is a^c/c plus the integral of u^{c-1} ((1 - 2au + u^2)^{-g/2} - 1), whose
    integrand vanishes like u^c at 0: at small c nearly all of u^{c-1}'s mass lies
    below 1e-30, beyond a quadrature's reach.
    """
    with mpmath.workdps(40):
        g, sm, n = mpmath.mpf(gam), mpmath.mpf(s), mpmath.mpf(N)
        a, c = 1 / mpmath.sqrt(n), g + 2 * sm
        rest = mpmath.quad(lambda u: u ** (c - 1) * ((1 - 2 * a * u + u * u) ** (-g / 2) - 1),
                           [0, a])
        return float(N * mpmath.mpf(_mp_c_iso(gam, s, N)) - a ** c / c - rest)


@pytest.mark.parametrize("s", [1e-5, 0.01])
@pytest.mark.parametrize("N", [2, 3, 4, 9, 20])
def test_c_n_plus_bar_at_small_gamma(N, s):
    # corr decays like t^{-g-1-2s}: its pure power is a closed form, so the
    # bar does not carry a quadrature tail past e^690 (485 at g = 1e-3, s = 1e-5)
    got = cn.iso_stack([1e-3], s, N, True)[0]
    want = _mp_c_n_plus(1e-3, s, N)
    assert abs(got.value - want) <= got.abs_error_estimate <= 1e-13 * abs(want), (got, want)


def _mp_corr(gam, s, N):
    """corr = N^-s (N-1)^(-g/2) / (g+2s) 3F2(g/2, 1/2, 1; g/2+s+1/2, g/2+s+1; -1/(N-1)), an mpf.

    The current digits, 30 or more, hold hyp3f2 at -1 (N = 2) to the bars.
    """
    g, sm, n = mpmath.mpf(gam), mpmath.mpf(s), mpmath.mpf(N)
    return (n ** -sm * (n - 1) ** (-g / 2) / (g + 2 * sm)
            * mpmath.hyp3f2(g / 2, 0.5, 1, g / 2 + sm + 0.5, g / 2 + sm + 1, -1 / (n - 1)))


@pytest.mark.parametrize("N", [2, 3, 4, 9, 20, 200, 4000])
def test_corr_and_c_n_plus_within_their_bars(N):
    # gamma from 1e-3 up to the largest under the 1e300 peak guard, where the
    # prefactor (N-1)^(-g/2) underflows from N = 3 on: a bar of 0 would not hold
    top = cn._peak_gamma(N) * (1.0 - 1e-12)
    gammas = [g for g in AUDIT_GAMMA if g < top] + [top]
    underflows = 0
    for s in AUDIT_S:
        corr, bar = cn._corr_series(np.array(gammas), s, N)
        plus = cn.iso_stack(gammas, s, N, True)
        for g, c, e, got in zip(gammas, corr, bar, plus):
            with mpmath.workdps(30):
                want = _mp_corr(g, s, N)
                assert abs(c - want) <= e, (g, s, c, want, e)
                want_plus = N * mpmath.mpf(_mp_c_iso(g, s, N)) - want
                assert abs(got.value - want_plus) <= got.abs_error_estimate, (g, s, got)
            assert got.n_evals == 0
            underflows += c == 0.0
    assert (underflows > 0) == (N > 2)


@pytest.mark.parametrize("s", [1e-5, 0.3, 0.99999])
def test_crvz_sum_within_its_bound_at_n_2(s):
    # at N = 2 the 3F2's argument is -1 and its plain series converges only
    # algebraically; the 24 exact weights sum it to within 2|S|/(3+sqrt 8)^24
    cs, d = cn._CRVZ_NUMERATORS, cn._CRVZ_DENOMINATOR
    with mpmath.workdps(40):
        for gam in [1e-3, 0.1, 0.5, 1.0, 2.0]:
            a, b = mpmath.mpf(gam) / 2, mpmath.mpf(gam) / 2 + s
            terms = [mpmath.rf(a, j) * mpmath.rf(0.5, j)
                     / (mpmath.rf(b + 1, j) * mpmath.rf(b + 0.5, j)) for j in range(cn._CRVZ_TERMS)]
            got = mpmath.fsum(mpmath.mpf(c) / d * t for c, t in zip(cs, terms))
            want = mpmath.hyp3f2(a, 0.5, 1, b + 0.5, b + 1, -1)
            bound = 2 * abs(want) / (3 + mpmath.sqrt(8)) ** 24
            assert abs(got - want) <= bound, (gam, got, want)
            # the plain partial sum of the same terms misses by far more
            plain = mpmath.fsum((-1) ** j * t for j, t in enumerate(terms))
            assert abs(plain - want) > 1e6 * bound


@pytest.mark.parametrize("key", sorted(oc.FROZEN_C_N_PLUS))
def test_c_n_plus_frozen(key):
    assert cn.c_n_plus(*key) == pytest.approx(oc.FROZEN_C_N_PLUS[key], rel=1e-13)


@pytest.mark.parametrize("key", [pytest.param(key, id="-".join(map(str, key)))
                                 for key in sorted(oc.FROZEN_NEAR_ONE)])
def test_near_one_within_their_bars(key):
    # c_perp grows like 1/(2-2s) and the series' 1 - u_1 cancels; at
    # gamma ~ N - 2, by gamma_tilde(3, 0.99999), c_iso is only -0.27
    name, gam, s, N = key
    got = cn.iso_stack([gam], s, N, name == "c_n_plus")[0]
    want = oc.FROZEN_NEAR_ONE[key]
    assert abs(got.value - want) <= got.abs_error_estimate + 1e-12 * abs(want)


def _no_engine_call(monkeypatch):
    """A list that every ``quad.integrate_batch`` call would be appended to."""
    calls = []
    monkeypatch.setattr(quad, "integrate_batch", lambda *args: calls.append(args))
    return calls


def test_walk_near_one_takes_no_engine_round(monkeypatch):
    # the five walk gammas of c_N^+ at s = 0.99: c_iso and the corrections are series
    calls = _no_engine_call(monkeypatch)
    results = cn.iso_stack([2.0, 4.0, 8.0, 16.0, 32.0], 0.99, 3, True)
    assert calls == []
    # gamma_plus ~ 1.04 lies below all five
    assert all(r.value > 0.0 and r.n_evals == 0 for r in results)


def test_gamma_plus_and_c_n_plus_quadrature_counts(monkeypatch):
    # gamma_plus's passes (walk, proxy, closing test), its c_iso check and the
    # exponent table are series: no quadrature
    calls = _no_engine_call(monkeypatch)
    assert cn.find_gamma_plus(3, 0.5).iterations == 3
    cn.exponent_table(4, 0.3)
    assert cn.c_n_plus(2.0, 0.5, 4) == pytest.approx(oc.FROZEN_C_N_PLUS[(2.0, 0.5, 4)], rel=1e-13)
    assert calls == []


@pytest.mark.parametrize("N,s", [(4, 0.01), (6, 0.05), (6, 0.1), (8, 0.24), (10, 0.43)])
def test_gamma_plus_where_it_meets_gamma_tilde(N, s):
    # gamma_plus - gamma_tilde is below the root's resolution here; c_iso at
    # the root reads quadrature noise of either sign
    root = cn.find_gamma_plus(N, s).root
    assert root >= cn.find_gamma_tilde(N, s).root - 1e-10
    assert cn.c_n_plus(root - 1e-7, s, N) < 0.0 < cn.c_n_plus(root + 1e-7, s, N)


ROOT_GRID_S = [0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.45, 0.5, 0.6, 0.75, 0.9, 0.98]


@pytest.mark.parametrize("N", [2, 3, 5, 8, 13, 20])
def test_roots_are_verified_cells(N):
    # each root sits in a cell of the root's width across which the one-gamma
    # constant changes sign, and a stacked member is its one-gamma call
    for s in ROOT_GRID_S:
        roots = {}
        for name, find, n_plus, one in (("tilde", cn.find_gamma_tilde, False, cn.c_iso),
                                        ("plus", cn.find_gamma_plus, True, cn.c_n_plus)):
            r = find(N, s)
            lo, hi = r.bracket
            assert lo < r.root < hi and hi - lo <= 1e-10 + 8.9e-16 * r.root, (name, s, r)
            assert one(lo, s, N) < 0.0 < one(hi, s, N), (name, s, r)
            stacked = cn.iso_stack([lo, r.root, hi], s, N, n_plus)
            for g, member in zip((lo, r.root, hi), stacked):
                assert abs(member.value - one(g, s, N)) <= member.abs_error_estimate, (name, s, g)
            assert r.residual == pytest.approx(stacked[1].value, abs=stacked[1].abs_error_estimate)
            roots[name] = r.root
        assert roots["plus"] >= roots["tilde"] - 1e-10, s


@pytest.mark.parametrize("N,s,passes", [(43, 1e-5, 7), (135, 0.02, 5), (200, 0.02, 5),
                                         (250, 0.1, 5), (1000, 1e-3, 5)])
def test_roots_past_the_second_walk_grid(N, s, passes):
    # gamma_tilde ~ 24 N at s = 1e-5 and ~ 7.8 N at s = 0.02: past 1024 from N ~ 43, where
    # the walk goes on in grids of five doublings; mpmath's c_iso changes sign across the
    # cell, and the root meets its 40-digit root
    r = cn.find_gamma_tilde(N, s)
    lo, hi = r.bracket
    assert r.root > 1024.0 and r.iterations == passes
    assert lo < r.root < hi and hi - lo <= 1e-10 + 8.9e-16 * r.root
    assert _mp_c_iso(lo, s, N) < 0.0 < _mp_c_iso(hi, s, N)
    with mpmath.workdps(40):
        want = mpmath.findroot(lambda g: mpmath.gamma(-s) * mpmath.gamma(g / 2 + s)
                               / mpmath.gamma(g / 2)
                               * mpmath.hyp2f1(g / 2 + s, -s, 0.5, mpmath.mpf(1) / N), r.root)
    assert r.root == pytest.approx(float(want), rel=1e-13)


def test_gamma_plus_past_the_second_walk_grid():
    r = cn.find_gamma_plus(50, 1e-5)
    lo, hi = r.bracket
    assert r.root == pytest.approx(1202.5412925572118, rel=1e-13)
    assert cn.c_n_plus(lo, 1e-5, 50) < 0.0 < cn.c_n_plus(hi, 1e-5, 50)
    assert r.root >= cn.find_gamma_tilde(50, 1e-5).root - 1e-10


def test_walk_ends_at_the_peak_guard():
    # the walk takes doublings up to its top, and no further
    def line(root):
        return lambda gammas: _stub_pass(np.array(gammas) - root)

    r = cn._root_passes(line(5000.3), -1.0, 1e4)
    assert r.bracket[0] < 5000.3 < r.bracket[1] and r.iterations == 5
    with pytest.raises(cn.BracketFailure, match="up to gamma = 4096"):
        cn._root_passes(line(5000.3), -1.0, 5000.0)
    top = cn._peak_gamma(3)
    assert (1.0 - 1.0 / 3.0) ** (-top / 2.0) == pytest.approx(1e300, rel=1e-12)
    cn.iso_stack([top], 0.5, 3, False)
    with pytest.raises(cn.DomainError, match="too large"):
        cn.iso_stack([top * (1.0 + 1e-15)], 0.5, 3, False)
    # at N = 4000, s = 1e-5 the root ~97,126 is found, but its 1e-10 cell is ~7 ulps
    # of gamma, where the bars cannot separate the signs
    with pytest.raises(cn.BracketFailure, match="bars"):
        cn.find_gamma_tilde(4000, 1e-5)


@pytest.mark.parametrize("n_plus", [False, True])
def test_empty_gamma_stack_is_empty(n_plus):
    # an empty stack has no series to sum: two empty arrays, no numpy reduction error
    values, bars = cn._iso_arrays([], 0.5, 3, n_plus)
    assert values.shape == bars.shape == (0,)
    assert cn.iso_stack([], 0.5, 3, n_plus) == []
    with pytest.raises(cn.DomainError):
        cn.iso_stack([], 1.5, 3, n_plus)


def _stub_pass(values, bar=0.0):
    """A pass of a stub constant: its values, and the error bar ``bar`` at each."""
    values = np.asarray(values, float)
    return values, np.full(values.shape, bar)


def test_root_passes_shrink_where_the_proxy_is_poor():
    # a steep step: 16 nodes on [4, 8] do not resolve it, so the cell shrinks
    def steep(gammas):
        return _stub_pass(np.tanh(40.0 * (np.array(gammas) - 5.3)))

    r = cn._root_passes(steep, -1.0, 1024.0)
    lo, hi = r.bracket
    assert lo < r.root < hi and hi - lo <= 1e-10 + 8.9e-16 * r.root
    assert steep([lo])[0][0] < 0.0 < steep([hi])[0][0]
    assert 3 < r.iterations < cn._PASS_LIMIT
    with pytest.raises(cn.BracketFailure):
        cn._root_passes(lambda gammas: _stub_pass(-np.ones(len(gammas))), -1.0, 1024.0)


def test_root_passes_read_signs_beyond_their_bars(monkeypatch):
    # a root at 5.3: with bars of 1e-12 its cell r +- 5e-11 has signs beyond
    # both; with bars of 1e-3 that straddle zero across it, no cell of the
    # root's width has, and none is accepted
    def line(bar):
        return lambda gammas: _stub_pass(np.array(gammas) - 5.3, bar)

    r = cn._root_passes(line(1e-12), -1.0, 1024.0)
    assert r.bracket[0] < 5.3 < r.bracket[1] and r.iterations == 3
    with pytest.raises(cn.BracketFailure, match="bars"):
        cn._root_passes(line(1e-3), -1.0, 1024.0)
    # gamma_plus's check that c_iso(r + 1e-10) > 0 reads beyond c_iso's bar too
    real = cn._iso_arrays

    def wide_iso_bars(gammas, s, N, n_plus):
        values, bars = real(gammas, s, N, n_plus)
        return (values, bars) if n_plus else (values, np.abs(values) + 1.0)

    monkeypatch.setattr(cn, "_iso_arrays", wide_iso_bars)
    with pytest.raises(cn.BracketFailure, match="c_iso's bar"):
        cn.find_gamma_plus(3, 0.5)
    with pytest.raises(cn.BracketFailure, match="bars"):
        cn.find_gamma_tilde(3, 0.5)


@pytest.mark.parametrize("n_plus", [False, True], ids=["c_iso", "c_n_plus"])
@pytest.mark.parametrize("gammas,s,N", [([0.5, 2.0, 30.0], 0.5, 3),
                                        ([262.41047680416006], 0.3356145841839309, 2)],
                         ids=["one-block", "three-blocks"])
def test_iso_stack_is_the_array_function_bit_for_bit(gammas, s, N, n_plus):
    # iso_stack is the QuadResult view of _iso_arrays; at gamma ~ 262, N = 2 the
    # series takes three blocks (64, 128 and 256 terms), below 30 one
    values, bars = cn._iso_arrays(gammas, s, N, n_plus)
    results = cn.iso_stack(gammas, s, N, n_plus)
    assert np.array([r.value for r in results]).tobytes() == values.tobytes()
    assert np.array([r.abs_error_estimate for r in results]).tobytes() == bars.tobytes()
    assert all(r.n_evals == 0 for r in results)


# float.hex of _iso_arrays' values and bars, c_iso then c_N^+, per (gammas, s, N): one
# block; three blocks (64, 128 and 256 terms); 1 - u_1 cancelling near s = 1; and
# corr underflowing to 0 at gamma = 5000, N = 9
FROZEN_ISO_BITS = {
    ((0.5, 2.0, 30.0), 0.5, 3): (
        (("-0x1.b9a0a54aa26c9p-1", "-0x1.48552f88091a9p+0", "0x1.5c493038d23b6p+9"),
         ("0x1.f19375ce91a9cp-48", "0x1.8b66a4b3110d5p-47", "0x1.29c622ec8f42bp-37")),
        (("-0x1.739cc9b736710p+1", "-0x1.f845fca72ec33p+1", "0x1.0536e42970b47p+11"),
         ("0x1.a1787324c9d15p-46", "0x1.2f4c120560d03p-45", "0x1.bea9346416026p-36"))),
    ((262.41047680416006,), 0.3356145841839309, 2): (
        (("0x1.d269cd5b4cc29p+128",), ("0x1.857ce1bf977c3p+85",)),
        (("0x1.d269cd5b4cc29p+129",), ("0x1.857ce1bf977c3p+86",))),
    ((1.00002365148,), 0.99999, 3): (
        (("-0x1.170629c8da2a4p-2",), ("0x1.7bac412d8624ep-49",)),
        (("-0x1.c9d970cce511dp-1",), ("0x1.3217fb29b7a0fp-47",))),
    ((1e-3, 5000.0), 1e-5, 9): (
        (("-0x1.7ef7376587428p+16", "0x1.6946fb8feda33p+421"),
         ("0x1.a8da4174bf34dp-31", "0x1.5791964f26946p+379")),
        (("-0x1.af5087bcaecf8p+19", "0x1.966fdb01eb579p+424"),
         ("0x1.de73ce1016b2ep-28", "0x1.8283c9190b66fp+382"))),
}


def test_iso_arrays_bits_are_frozen():
    """The series' values, bars and two roots, bit for bit.

    The per-row float arithmetic of ``_iso_series``, ``_corr_series`` and
    ``_iso_arrays`` repeats the array arithmetic it replaced step for step,
    so these bits were kept through that change.  A later change to the
    series' arithmetic re-freezes them and says so in CHANGES.md.
    """
    for (gammas, s, N), modes in FROZEN_ISO_BITS.items():
        for n_plus, (values, bars) in zip((False, True), modes):
            got = cn._iso_arrays(list(gammas), s, N, n_plus)
            assert tuple(v.hex() for v in got[0].tolist()) == values, (gammas, s, N, n_plus)
            assert tuple(e.hex() for e in got[1].tolist()) == bars, (gammas, s, N, n_plus)
    assert repr(cn.find_gamma_tilde(3, 0.5)) == (
        "RootResult(root=3.7335906162537933, residual=-8.807322997812532e-16, "
        "bracket=(3.7335906162037933, 3.7335906163037933), iterations=3)")
    assert repr(cn.find_gamma_plus(2, 0.02581)) == (
        "RootResult(root=10.983382728583889, residual=-3.18328696735648e-13, "
        "bracket=(10.98338272853389, 10.983382728633888), iterations=3)")


def test_stacked_members_are_their_one_gamma_calls():
    gammas = [0.3, 2.0, 7.5, 40.0]
    for n_plus, one in ((False, cn.c_iso), (True, cn.c_n_plus)):
        results = cn.iso_stack(gammas, 0.3, 4, n_plus)
        assert isinstance(results, list) and len(results) == len(gammas)
        assert all(r.n_evals == 0 for r in results)  # series, no quadrature
        for g, r in zip(gammas, results):
            assert r.value == pytest.approx(one(g, 0.3, 4), rel=1e-14, abs=1e-14)
    with pytest.raises(cn.DomainError):
        cn.iso_stack([1.0, -1.0], 0.3, 4, False)


def test_c_n_plus_continuous_where_the_d2_coefficient_vanishes():
    # at gamma = N - 2 the isotropic pair's value at d = 0 is exactly 0
    assert abs(cn.c_n_plus(2.0, 0.5, 4) - cn.c_n_plus(2.0 + 1e-9, 0.5, 4)) <= 1e-8


@pytest.mark.parametrize("gam,N", [(1700.0, 2), (1990.0, 2), (5000.0, 9)])
def test_large_admissible_gamma_is_finite(gam, N):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert math.isfinite(cn.c_iso(gam, 0.5, N))
        assert math.isfinite(cn.c_n_plus(gam, 0.5, N))


# --- the bracketed root finder against scipy's brentq ------------------------

ROOT_S = [0.03, 0.1, 0.25, 0.4, 0.6, 0.8, 0.97]


@pytest.fixture(scope="module")
def root_brackets():
    """(name, fn, lo, hi) for every c_k (k = 1..4), c_iso and c_n_plus root (N = 3)."""
    out = []
    for s in ROOT_S:
        for k in range(1, 5):
            fn = (lambda s, k: lambda g: cn.c_k_fn(g, s, k))(s, k)
            lo, hi = cn._EPS_GAMMA, 1.0 - cn._EPS_GAMMA
            if fn(lo) * fn(hi) < 0.0:
                out.append((f"c_{k} s={s}", fn, lo, hi))
        out.append((f"c_iso s={s}", (lambda s: lambda g: cn.c_iso(g, s, 3))(s),
                    *_walk_cell(cn.find_gamma_tilde(3, s).root)))
        out.append((f"c_n_plus s={s}", (lambda s: lambda g: cn.c_n_plus(g, s, 3))(s),
                    *_walk_cell(cn.find_gamma_plus(3, s).root)))
    return out


def _walk_cell(root):
    """The cell an expanding walk 1e-3, 2, 4, 8, ... brackets ``root`` in: [2^(n-1), 2^n] above 2."""
    if root <= 2.0:
        return 1e-3, 2.0
    hi = 2.0 ** math.ceil(math.log2(root))
    return hi / 2.0, hi


@pytest.fixture(scope="module")
def root_runs(root_brackets):
    """Per bracket: the package's result and evaluations, brentq's root and evaluations."""
    runs = []
    for name, fn, lo, hi in root_brackets:
        calls = []
        result = cn._bracketed_root(lambda g: calls.append(g) or fn(g), lo, hi, fn(lo), fn(hi))
        root, info = brentq(fn, lo, hi, xtol=1e-10, rtol=8.9e-16, full_output=True)
        # brentq counts its two endpoint evaluations; the caller makes them here
        runs.append((name, result, len(calls) + 2, root, info.function_calls))
    return runs


def test_roots_match_brentq(root_runs):
    assert len(root_runs) == 39
    for name, result, _, root, _ in root_runs:
        assert abs(result.root - root) <= 1e-10, name
        assert isinstance(result.iterations, int) and result.iterations >= 1, name


def test_root_finder_needs_no_more_evaluations_than_brentq(root_runs):
    ours = sum(run[2] for run in root_runs)
    theirs = sum(run[4] for run in root_runs)
    assert ours <= theirs, (ours, theirs)


def test_root_residual_is_the_value_at_the_root(root_brackets):
    name, fn, lo, hi = root_brackets[0]
    result = cn._bracketed_root(fn, lo, hi, fn(lo), fn(hi))
    assert result.residual == fn(result.root), name


def test_root_at_an_exact_zero():
    def never(t):
        raise AssertionError("no evaluation needed")

    # an exact zero is its own cell
    assert cn._bracketed_root(never, 1.0, 2.0, 0.0, 1.0) == cn.RootResult(1.0, 0.0, (1.0, 1.0), 0)
    assert cn._bracketed_root(never, 1.0, 2.0, -1.0, 0.0) == cn.RootResult(2.0, 0.0, (2.0, 2.0), 0)
    # the first bisection lands on the root
    assert cn._bracketed_root(lambda t: t - 1.5, 1.0, 2.0, -0.5, 0.5) == cn.RootResult(
        1.5, 0.0, (1.5, 1.5), 1)
