"""Barrier/supersolution constructions: invariants, defaults, serialization."""

import math
import re

import mpmath
import numpy as np
import pytest

from fractrunc import constants as cn
from fractrunc import operators as op
from fractrunc import profiles as pr
from fractrunc.quad import Tolerance

from fields import BallBump


def _rows(x, xi=None):
    """The rows through points ``x`` along ``xi``, or along the zero vector
    for hooks that read only the point."""
    x = np.asarray(x, float)
    return pr.Rows.through(x, np.zeros_like(x) if xi is None else xi)


def test_w_gamma_junction_smooth():
    w = pr.make_w_gamma(0.5)
    # profile equals the power tail beyond the junction, cap inside
    assert w(np.array([0.0, 2.0])) == pytest.approx(2.0 ** -0.5, rel=1e-12)
    # numerically C^1 across the junction radius
    rj = math.sqrt(w.junction_r2)
    h = 1e-6
    lo = (w(np.array([0.0, rj])) - w(np.array([0.0, rj - h]))) / h
    hi = (w(np.array([0.0, rj + h])) - w(np.array([0.0, rj]))) / h
    assert lo == pytest.approx(hi, rel=1e-4)


def test_v_gamma_orientations():
    v = pr.make_v_gamma(0.6)
    vg = pr.make_v_minus_gamma(0.4, 0.75)
    assert v(np.array([0.0, 3.0])) == pytest.approx(3.0 ** -0.6, rel=1e-12)
    # the growth barrier is the negative power -|x|^gamma outside the cap
    assert vg(np.array([0.0, 3.0])) == pytest.approx(-(3.0 ** 0.4), rel=1e-12)
    # inside the unit ball the cap stays below the pure negative power
    for r in (0.1, 0.5, 0.9):
        assert vg(np.array([0.0, r])) <= -(r ** 0.4) + 1e-12


def test_v_minus_gamma_exponent_range():
    with pytest.raises(pr.ExponentOutOfRange):
        pr.make_v_minus_gamma(0.8, 0.6)  # beyond 2s - 1


def test_growth_dominance_names_the_first_failing_radius(monkeypatch):
    # a cap lifted by 0.2 r leaves -r^{gamma/2} from some r on; the check
    # names the first r of its grid where it does
    prof = pr.make_v_minus_gamma(0.3, 0.75)
    value = prof.value
    monkeypatch.setattr(prof, "value",
                        lambda r, order=0: value(r, order) + (0.2 * r if order == 0 else 0.0))
    first = next(r for r in np.linspace(0.0, 1.0, 101)
                 if prof.value(r) > -(r ** 0.15) + 1e-12)
    assert 0.0 < first < 1.0
    with pytest.raises(pr.InvariantViolation, match=re.escape(f"dominance at r={first}") + "$"):
        prof._validate()


def test_d2_along_matches_finite_difference():
    w = pr.make_w_gamma(0.5)
    x = np.array([0.5, 2.0])
    xi = np.array([0.6, 0.8])
    h = 1e-5
    fd = (w(x + h * xi) + w(x - h * xi) - 2.0 * w(x)) / h**2
    assert w.d2_along(_rows(x[None], xi[None]))[0] == pytest.approx(fd, rel=1e-4)


def test_partial_derivative_field():
    # D_N v_{0.5} is -1/2 times the one-profile psi at gamma 0.5
    v = pr.make_v_gamma(0.5)
    d = pr.PsiField("halfint", 0.5, 0.5, 0.5)
    x = np.array([0.3, 2.0])
    h = 1e-6
    fd = (v(x + np.array([0.0, h])) - v(x - np.array([0.0, h]))) / (2.0 * h)
    assert -0.5 * d(x) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("kind,k,s", [("decay", 2, 0.5), ("halfint", 1, 0.5),
                                      ("growth", 1, 0.75)])
def test_make_psi_defaults(kind, k, s):
    psi = pr.make_psi(kind, k, s)
    assert psi.gamma_lead > 0.0
    x = np.array([0.0] * max(k, 2) + [5.0])
    assert np.isfinite(psi(x))


def test_psi_field_refuses_an_unknown_variant():
    # an unknown variant once built a one-part growth field
    with pytest.raises(ValueError, match="'bogus'.*'decay', 'halfint' or 'growth'"):
        pr.PsiField("bogus", 0.75, 0.25, 0.1)


@pytest.mark.parametrize("kind,k,s", [("decay", 2, 0.5), ("halfint", 1, 0.5),
                                      ("growth", 1, 0.75)])
def test_psi_is_scaled_sum_of_partials(kind, k, s):
    # psi = -(1/gamma_lead) * sum of D_N v over its profiles; halfint has one
    psi = pr.make_psi(kind, k, s)
    if kind == "growth":
        profiles = [pr.make_v_minus_gamma(g, s) for g in (psi.gamma_lead, psi.gamma_second)]
    else:
        gammas = (psi.gamma_lead,) if kind == "halfint" else (psi.gamma_lead, psi.gamma_second)
        profiles = [pr.make_v_gamma(g) for g in gammas]
    h = 1e-5
    for x in ([0.3, 1.7], [-0.8, 0.6], [0.4, -0.5], [1.2, -0.5, 2.0],
              [0.2, 0.1, 0.7], [-2.0, 1.0, -3.0]):
        x = np.array(x)
        step = np.zeros(x.size)
        step[-1] = h
        fd = sum((v(x + step) - v(x - step)) / (2.0 * h) for v in profiles)
        assert psi(x) == pytest.approx(-fd / psi.gamma_lead, rel=1e-6)


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
def test_half_space_tail_rejects_bad_gamma(gamma):
    with pytest.raises(pr.ExponentOutOfRange, match="gamma must be finite and positive"):
        pr.HalfSpacePowerTail(gamma)


@pytest.mark.parametrize("build", [pr.HalfSpacePowerTail, pr.make_w_gamma])
def test_cap_rejects_gamma_whose_coefficients_overflow(build):
    # the cap's cubic coefficients grow like gamma^3 times junction_r2^(-gamma/2)
    with pytest.raises(pr.ExponentOutOfRange, match="too large"):
        build(1e300)


def test_make_psi_guards():
    with pytest.raises(pr.ExponentOutOfRange):
        pr.make_psi("halfint", 2, 0.5)
    with pytest.raises(pr.ExponentOutOfRange):
        pr.make_psi("halfint", 1, 0.2)  # the variant is the s = 1/2 case
    with pytest.raises(pr.ExponentOutOfRange):
        pr.make_psi("growth", 1, 0.3)
    with pytest.raises(cn.NoRootError):
        pr.make_psi("decay", 1, 0.75)  # no bounded-exponent root


def test_bump_train_values():
    eps, s = 0.2, 0.5
    u = pr.BumpTrain(eps, s)
    center = np.array([0.0, eps])
    gap = np.array([0.0, 2.0 * eps + 0.5 * (1.0 - 2.0 * eps)])
    assert u(center) == pytest.approx(eps ** (2.0 * s), rel=1e-12)
    assert u(gap) == 0.0
    # 1-periodic structure
    assert u(center + np.array([0.0, 3.0])) == pytest.approx(u(center),
                                                             rel=1e-12)
    e_n, tilted = np.array([0.0, 1.0]), np.array([0.8, 0.6])

    def far_error(xi):
        return float(u.far_part(_rows([0.0, 1.0], xi), s)[1])

    # no bump is left out: the error is the series' and the rounding
    assert 0.0 < far_error(e_n) < 1e-14
    # the train depends on x_N alone: the error scales as |xi_N|^{2s}
    assert far_error(tilted) == pytest.approx(0.6 ** (2.0 * s) * far_error(e_n), rel=1e-14)
    assert far_error(np.array([1.0, 0.0])) == 0.0


def test_bump_train_window():
    # no window: no bump below n = 0, and every bump above, n = 399, 400 and
    # far beyond, shows at its own points
    eps, s = 0.2, 0.5
    u = pr.BumpTrain(eps, s)
    assert u(np.array([0.0, -1.0 + eps])) == 0.0
    for n in (0, 2, 3, 399, 400, 7 * 10**6):
        for y in (n + eps, n + 0.3 * eps):
            assert u(np.array([0.0, y])) == (eps**2 - (y - n - eps) ** 2) ** s
    line = u.line(_rows([[0.0, 0.0], [0.0, 400.0]], [0.0, 1.0]))
    values = line(np.array([[-1.0 + eps, eps, 2.0 + eps]]).T)
    assert values.tolist() == [[0.0, 0.0], [eps ** (2.0 * s)] * 2, [0.0, 0.0]]


def test_bump_train_breakpoints():
    u = pr.BumpTrain(0.2, 0.5)
    bps = _row_breakpoints(u, np.array([0.0, 0.2]), np.array([0.0, 1.0]))
    assert any(abs(b - 0.2) < 1e-12 for b in bps)  # right edge of bump 0
    assert _row_breakpoints(u, np.array([0.0, 0.2]), np.array([1.0, 0.0])) == []


@pytest.mark.parametrize("eps,s,span", [(0.2, 0.5, 10), (0.0317, 0.05, 400),
                                        (0.4614, 0.97, 400)])
def test_bump_train_metadata_matches_per_edge_formula(eps, s, span):
    # the per-edge formula over the edges of the bumps centred within 2 eps
    # of the point, at random points and at points within 3 eps of a centre
    u = pr.BumpTrain(eps, s)
    rng = np.random.default_rng(span)
    for _ in range(20):
        x = np.r_[rng.uniform(-1.0, 1.0), rng.uniform(-2.0, span + 2.0)]
        for y in (x[-1], rng.integers(-1, span) + eps * rng.uniform(-2.0, 4.0)):
            x[-1] = y
            xi = _unit(rng, 2)
            edges = [e for n in range(span + 3) if abs(n + eps - y) < 2.0 * eps
                     for e in (float(n), n + 2.0 * eps)]
            want = sorted(t for t in ((e - y) / xi[-1] for e in edges) if abs(t) > 1e-9)
            assert _row_breakpoints(u, x, xi) == want
            c2 = max(min(abs(y - e) for e in edges) / 2.0, 1e-6) if edges else 1.0
            assert u.c2_radius(_rows(x[None]))[0] == c2


@pytest.mark.parametrize("s", [1e-5, 0.05, 0.5, 0.95, 0.999])
def test_far_bump_series_matches_mpmath(s):
    # one bump's kernel integral at d = 2*eps, the nearest distance it is
    # summed at, at 1 and at 399
    for eps in (0.0017, 0.2, 0.4025):
        ds = np.array([2.0 * eps, 1.0, 399.0])
        values, errors = pr._moment_series(eps, s, s, *pr._power_sums(eps, s, ds[:, None], 0.0))
        with mpmath.workdps(30):
            e, a = mpmath.mpf(eps), mpmath.mpf(s)
            for d, value, error in zip(ds, values, errors):
                want = mpmath.quad(lambda h: (e * e - h * h) ** a * (d - h) ** (-1 - 2 * a),
                                   [-e, 0, e])
                assert abs(value - want) <= error
                assert error <= 2e-14 * value


def test_hurwitz_sums_match_mpmath():
    # eps^sigma zeta(sigma, a) for sigma = 1 + 2s + 2i; mpmath's own zeta is
    # off by 5e-10 at 50 digits (zeta(28, 400)) and by 2e-13 at 110 (zeta(50,
    # 400)), and within 4e-16 at 150 on this grid
    for s in (1e-5, 1e-3, 0.01, 0.0731, 0.5, 0.97):
        for eps in (1e-6, 0.49):
            starts = np.array([2.0 * eps, 1.0 + eps, 7.9, 400.0])
            values, errors = pr._hurwitz_sums(eps, s, starts, 0.0)
            with mpmath.workdps(150):
                for start, value, error in zip(starts, values, errors):
                    for i in (0, 13, 24, 32) if start == 400.0 else (0, 13, 32):
                        sigma = 1 + 2 * mpmath.mpf(s) + 2 * i
                        want = mpmath.mpf(eps) ** sigma * mpmath.zeta(sigma, mpmath.mpf(start))
                        assert abs(value[i] - want) <= error[i]
                        assert error[i] <= 1e-12 * want + 2e-300


def test_bump_train_far_part():
    # the moment series of every bump at d >= 2 eps of the row's point,
    # summed in mpmath: the bumps within 10 of the point one by one, the rest
    # as Hurwitz zeta on both sides (at d > 9, so 16 terms of its series leave
    # < 1e-30); the kernel's order s may differ from the train's a
    x = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 3.5], [1.0, 3.5], [0.0, -0.3], [0.0, 5.0],
                  [0.0, 1e3], [0.0, 1e5]])
    xi = np.array([[0.0, 1.0], [0.8, 0.6], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0],
                   [0.0, 1.0], [0.6, 0.8]])
    for eps, a, s in ((0.2, 0.5, 0.5), (0.2, 0.5, 0.05), (0.0191653, 0.0731, 0.0731),
                      (1e-6, 0.03, 0.95)):
        # through the first bump's centre and inside bump 5
        x[:2, -1], x[5, -1] = eps, 5.0 + 1.5 * eps
        values, errors = pr.BumpTrain(eps, a).far_part(_rows(x, xi), s)
        with mpmath.workdps(40):
            e, a_, s_ = mpmath.mpf(eps), mpmath.mpf(a), mpmath.mpf(s)
            c = [mpmath.sqrt(mpmath.pi) * mpmath.gamma(1 + a_) / mpmath.gamma(1.5 + a_)]
            for i in range(59):
                c.append(c[-1] * (2 * s_ + 2 * i + 1) * (2 * s_ + 2 * i + 2)
                         / ((2 * i + 2) * (2 * i + 2 * a_ + 3)))
            for row in (0, 2, 4, 5, 6, 7):
                y = mpmath.mpf(x[row, -1])
                lo, hi = max(math.floor(x[row, -1]) - 10, 0), math.floor(x[row, -1]) + 11
                ds = [abs(n + e - y) for n in range(lo, hi) if abs(n + e - y) >= 2 * e]
                want = mpmath.fsum(c[i] * mpmath.fsum((e / d) ** (1 + 2 * s_ + 2 * i) for d in ds)
                                   for i in range(60))
                for i in range(16):
                    sigma = 1 + 2 * s_ + 2 * i
                    zeta = mpmath.zeta(sigma, hi + e - y)
                    if lo > 0:  # the bumps n < lo: from lo - 1 down, less from -1 down
                        zeta += mpmath.zeta(sigma, y - lo + 1 - e) - mpmath.zeta(sigma, y + 1 - e)
                    want += c[i] * e**sigma * zeta
                want *= e ** (2 * (a_ - s_)) * abs(mpmath.mpf(xi[row, -1])) ** (2 * s_)
                assert abs(values[row] - want) <= errors[row]
                assert errors[row] <= 1e-9 * values[row]
        assert values[1] == pytest.approx(0.6 ** (2.0 * s) * values[0], rel=1e-14)
        assert values[3] == 0.0 and errors[3] == 0.0


@pytest.mark.parametrize("eps,a,s", [(0.2, 0.5, 0.5), (1e-6, 0.03, 0.95), (0.4614, 0.97, 0.05)])
def test_bump_train_far_part_reads_only_its_row(eps, a, s):
    # a row's far part, value and bar, is the same bits alone as batched with
    # rows far along the train; below 3 eps no bump lies below a row, and
    # -1 + eps is the centre of bump -1, where the sums below it end
    u, e_n = pr.BumpTrain(eps, a), np.array([0.0, 1.0])
    for y in (5.5, eps, 2.0 + 0.5 * eps, -0.3, -1.0 + eps, 1e3):
        alone = u.far_part(_rows([[0.0, y]], e_n), s)
        batched = u.far_part(_rows([[0.0, y], [0.0, 1e5], [0.0, 7.0 + eps]], e_n), s)
        assert [float(v[0]) for v in alone] == [float(v[0]) for v in batched]


def test_bump_train_near_shows_the_bumps_within_two_eps():
    eps, s = 0.4025, 0.955
    u = pr.BumpTrain(eps, s)
    centres = np.arange(14) + eps
    # inside bumps, at a centre, in gaps (whose near bumps are both
    # neighbours at this eps), below the first bump and far along
    for y in (eps, 1.0 + eps, 3.1, 4.0 + eps + 0.5, 0.9, -0.3, 9.7, 11.0):
        x = np.array([0.3, y])
        n = math.floor(y)
        assert u(x) == (max(eps**2 - (y - n - eps) ** 2, 0.0) ** s if n >= 0 else 0.0)
        close = np.abs(centres - y) < 2.0 * eps
        line = u.line(_rows(x, [0.0, 1.0]))
        assert np.array_equal(line(centres - y), np.where(close, eps ** (2.0 * s), 0.0))
        edges = [e - y for c in centres[close] for e in (c - eps, c + eps) if abs(e - y) > 1e-9]
        assert _row_breakpoints(u, x, np.array([0.0, 1.0])) == pytest.approx(sorted(edges),
                                                                             abs=1e-15)
    # with eps below 1/4 a gap point has no near bump: its section is 0
    thin = pr.BumpTrain(0.1, s)
    assert _row_breakpoints(thin, np.array([0.0, 0.7]), np.array([0.0, 1.0])) == []
    assert thin.c2_radius(_rows([[0.0, 0.7]]))[0] == 1.0
    assert thin.d2_along(_rows([[0.0, 0.7]], [[0.0, 1.0]]))[0] == 0.0


def test_bump_train_d2_along_matches_differences():
    # the second derivative of the bump that holds the point, along xi
    u = pr.BumpTrain(0.3, 0.7)
    for x, xi in ((np.array([0.2, 2.41]), np.array([0.6, 0.8])),
                  (np.array([-1.0, 0.3]), np.array([0.0, 1.0]))):
        line, h = u.line(_rows(x, xi)), 1e-4
        fd = (line(h) + line(-h) - 2.0 * line(0.0)) / (h * h)
        assert u.d2_along(_rows(x[None], xi[None]))[0] == pytest.approx(fd, rel=1e-6)


def test_halfspace_power_tail_vanishes_below_wall():
    u = pr.HalfSpacePowerTail(0.7)
    assert u(np.array([1.0, -0.5])) == 0.0
    assert u(np.array([0.0, 2.0])) > 0.0


def test_singular_supersolution_scaling():
    s, p, N = 0.5, -3.0, 2
    u, M, mu = pr.build_singular_supersolution(s, p, "ik_minus", N)
    assert mu == pytest.approx(2.0 * s / (1.0 - p))
    # exact cancellation: M^(p-1) = |C_s c_{s,mu}| makes I u + u^p vanish
    cval = cn.normalizing_constant(s) * cn.c_s_mu(mu, s)
    assert M ** (p - 1.0) == pytest.approx(abs(cval), rel=1e-10)
    assert u(np.array([0.0, 2.0])) == pytest.approx(M * 2.0**mu, rel=1e-12)


def test_thin_supersolution_params():
    prof, params = pr.build_thIN_supersolution(3, 0.5, 1.4)
    assert params["R"] == pytest.approx(math.sqrt(1.5))
    assert params["eps"] > 0.0
    assert params["gamma"] == pytest.approx(1.0 / 0.4)
    assert prof(np.array([0.0, 0.0, 1.0])) > 0.0


def test_transform_params_identities():
    tp = pr.TransformParams(-3.0, -5.0)
    tp.validate()
    beta, alpha = tp.beta_exp, tp.alpha_coef
    assert beta == pytest.approx(2.0 / 3.0)
    assert beta - 1.0 + (-3.0) == pytest.approx(beta * -5.0)
    assert alpha * beta == pytest.approx(alpha ** -5.0, rel=1e-12)
    assert pr.TransformParams(0.4, 0.4).beta_exp == 1.0


def test_power_transform_fast_path_matches_wrapper():
    # the closed form equals alpha * u^beta evaluated pointwise
    u = pr.PowerProfile(0.5, 2.0)
    v = pr.power_transform(u, -3.0, -5.0)
    tp = pr.TransformParams(-3.0, -5.0)
    assert isinstance(v, pr.PowerProfile)
    for t in (0.5, 1.0, 2.0):
        x = np.array([0.0, t])
        assert v(x) == pytest.approx(tp.alpha_coef * u(x) ** tp.beta_exp, rel=1e-12)


def test_min_field_crossings():
    a = pr.PowerProfile(2.0, 1.0)   # x_N^2
    b = pr.PowerProfile(1.0, 4.0)   # 4 x_N
    m = pr.MinField(a, b, 1.0)
    x = np.array([0.0, 1.0])
    assert m(x) == pytest.approx(1.0)
    assert m(np.array([0.0, 5.0])) == pytest.approx(20.0)
    bps = _row_breakpoints(m, x, np.array([0.0, 1.0]))
    assert any(abs(t - 3.0) < 1e-6 for t in bps)  # min switches at x_N = 4


def test_min_field_crossings_ignore_common_zeros():
    # both fields vanish for x_N <= 0: their difference is zero there, but
    # changes sign only once along this section
    m = pr.MinField(pr.HalfSpacePowerTail(0.7, shift=0.8), pr.PowerProfile(0.25, 0.5), 0.3)
    x, xi = np.array([0.3, 0.2, 1.5]), np.array([0.48, 0.6, 0.64])
    assert len(_row_crossings(m, x, xi)) <= 3
    r = op.directional(m, x, xi, 0.5)
    # value and error bar computed with every zero node as a breakpoint
    old_value, old_error = -0.15797872399512658, 1.248418382275979e-11
    assert abs(r.value - old_value) <= r.abs_error_estimate + old_error


def _row_breakpoints(u, x, xi):
    """The breakpoints of the one row (x, xi), as a stack of one: sorted, each once."""
    return sorted({float(t) for t in u.breakpoints(_rows(x[None], xi[None]))[0]
                   if math.isfinite(t)})


def _span_and_direction(x, xi, radius):
    """A min field's scan: along e_N within ``radius`` (its C^2 radius's
    scan) when ``xi`` is None, else along ``xi`` within max(10, 2|x| + 4)."""
    if xi is None:
        xi = np.zeros_like(x)
        xi[-1] = 1.0
    span = radius if radius > 0.0 else max(10.0, 2.0 * float(np.linalg.norm(x)) + 4.0)
    return span, xi


def _row_crossings(m, x, xi, radius=0.0):
    """``m._crossings`` of the one row (x, xi), as a stack of one: sorted, each once."""
    span, xi = _span_and_direction(x, xi, radius)
    got = m._crossings(_rows(x[None], xi[None]), np.array([span]))[0]
    return sorted({float(t) for t in got if math.isfinite(t)})


def _crossings_reference(m, x, xi, radius=0.0):
    """The scan as a loop over its nodes, 801 within the span and 80 each side
    at 4^j span up to 1e150, scipy's brentq per sign change, on the fields'
    lines through the row as a stack of one."""
    from scipy.optimize import brentq

    span, xi = _span_and_direction(x, xi, radius)
    first, second = m.first.line(_rows(x[None], xi[None])), m.second.line(_rows(x[None], xi[None]))
    far = np.minimum(span * 4.0 ** np.arange(1, 81), max(span, 1e150))
    grid = np.concatenate((-far[::-1], np.linspace(-span, span, 801), far))
    vals = (first(grid[:, None]) - second(grid[:, None]))[:, 0].tolist()
    grid = grid.tolist()
    out, last = [], None
    for i, v in enumerate(vals):
        if v == 0.0:
            continue
        if last is not None and vals[last] * v < 0.0:
            if last == i - 1:
                out.append(brentq(lambda t: float((first(t) - second(t))[0]), grid[last], grid[i]))
            else:
                out.extend(sorted({grid[last + 1], grid[i - 1]}))
        last = i
    return [t for t in out if abs(t) > 1e-9]


def _crossing_cases():
    rng = np.random.default_rng(3)
    thin, _ = pr.build_thIN_supersolution(2, 0.45, 4.0)
    tail_min = pr.MinField(pr.HalfSpacePowerTail(0.7, shift=0.8), pr.PowerProfile(0.25, 0.5), 0.3)
    yield pr.MinField(pr.PowerProfile(2.0, 1.0), pr.PowerProfile(1.0, 4.0), 1.0), \
        np.array([0.0, 1.0]), np.array([0.0, 1.0]), 0.0
    # both fields vanish for x_N <= 0: sign changes across runs of zeros
    yield tail_min, np.array([0.3, 0.2, 1.5]), np.array([0.48, 0.6, 0.64]), 0.0
    yield tail_min, np.array([0.3, 0.2, 1.5]), None, 0.9
    for _ in range(8):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        x = np.array([rng.uniform(-1.0, 1.0), rng.uniform(0.05, 3.0)])
        yield thin, x, np.array([math.cos(angle), math.sin(angle)]), 0.0
        yield thin, x, None, thin.c2_radius(_rows(x[None]))[0]


def test_min_field_crossings_match_scan_and_brentq():
    for m, x, xi, radius in _crossing_cases():
        got = _row_crossings(m, x, xi, radius)
        want = _crossings_reference(m, x, xi, radius)
        assert len(got) == len(want), (x, xi)
        for g, w in zip(got, want):
            assert abs(g - w) <= 2e-12 + 8.88e-16 * abs(w), (x, xi, g, w)


class _Ramp:
    """The field t -> max(sign*t - 1, 0) along every line: zero on [-1, 1]."""

    def __init__(self, sign):
        self.sign = sign

    def line(self, rows):
        return lambda t: np.maximum(self.sign * t - 1.0, 0.0)


def test_min_field_crossings_keep_zero_run_ends():
    # first - second is negative below -1, zero on [-1, 1] and positive above:
    # the sign changes across a run of zero nodes, whose ends are kept
    m = pr.MinField(_Ramp(1.0), _Ramp(-1.0))
    x, xi = np.array([0.0, 0.0]), np.array([0.0, 1.0])
    got = _row_crossings(m, x, xi)
    assert got == _crossings_reference(m, x, xi)
    assert got == pytest.approx([-1.0, 1.0], abs=0.025)


def test_pointwise_values_match_closed_forms():
    y = np.array([0.3, -0.4, 1.1])
    tail = pr.HalfSpacePowerTail(0.7, shift=0.8)
    shifted = float(np.linalg.norm(y + np.array([0.0, 0.0, 0.8])))  # beyond the cap
    assert tail(y) == pytest.approx(shifted ** -0.7, rel=1e-14)
    m = pr.MinField(tail, pr.PowerProfile(0.25, 0.5), 0.3)
    assert m(y) == pytest.approx(0.3 * min(shifted ** -0.7, 0.5 * 1.1 ** 0.25),
                                 rel=1e-14)
    # the ball bump about (0, 0, 0.5) at y
    ball, centre = BallBump(1.0, 0.5), np.array([0.0, 0.0, 0.5])
    assert ball(y - centre) == pytest.approx((1.0 - 0.61) ** 0.5, rel=1e-14)
    assert ball(np.array([0.0, 0.0, -1.0]) - centre) == 0.0


def _unit(rng, N):
    v = rng.standard_normal(N)
    return v / np.linalg.norm(v)


# every field kind of the package, as a function of the dimension N
LINE_FIELDS = {
    "radial_decay": lambda N, rng: pr.make_w_gamma(0.5),
    "radial_growth": lambda N, rng: pr.make_v_minus_gamma(0.3, 0.75),
    # -(1/0.4) D_N v_{0.4}: psi of one profile
    "partial_n": lambda N, rng: pr.PsiField("halfint", 0.5, 0.4, 0.4),
    "psi_decay": lambda N, rng: pr.make_psi("decay", 2, 0.5),
    "psi_halfint": lambda N, rng: pr.make_psi("halfint", 1, 0.5),
    "psi_growth": lambda N, rng: pr.make_psi("growth", 1, 0.75),
    "bump_train": lambda N, rng: pr.BumpTrain(0.2, 0.5),
    "halfspace_power_tail": lambda N, rng: pr.HalfSpacePowerTail(0.7, shift=0.8),
    "singular_power": lambda N, rng: pr.PowerProfile(0.25, 3.0),
    "min_composition": lambda N, rng: pr.MinField(
        pr.HalfSpacePowerTail(0.7, shift=0.8), pr.PowerProfile(0.25, 0.5), 0.3),
    "ball_bump": lambda N, rng: BallBump(1.5, 0.5),
}


def _section_value(u, x, y):
    """u(y) as the section through x shows it: a bump train shows only the
    bumps centred within 2 eps of x, and the bump that holds y is one of
    them or shows 0."""
    if isinstance(u, pr.BumpTrain) and not abs(math.floor(y[-1]) + u.eps - x[-1]) < 2.0 * u.eps:
        return 0.0
    return u(y)


def _next_to_sphere_rel(u, x, xi, t):
    """The relative difference a ball bump's section may show from u(x + t xi)
    at a node next to its sphere: 1e-15 plus the rounding of |x + t xi|^2,
    a few ulps of r (|x| + |t|) either way, magnified by s/|r^2 - |x + t xi|^2|;
    1e-15 for every other field."""
    if not isinstance(u, BallBump):
        return 1e-15
    y = x + t * xi
    gap = abs(u.r**2 - float(y @ y))
    spread = 8.0 * 2.0**-52 * u.r * (float(np.linalg.norm(x)) + abs(t))
    return 1e-15 + u.s * spread / gap if gap > 0.0 else math.inf


@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("kind", sorted(LINE_FIELDS))
def test_line_matches_pointwise_evaluation(kind, N):
    rng = np.random.default_rng(N)
    fan_rng = np.random.default_rng(100 + N)
    u = LINE_FIELDS[kind](N, rng)
    for _ in range(4):
        x = rng.uniform(-1.0, 3.0, N)
        xi = _unit(rng, N)
        line = u.line(_rows(x, xi))
        ts = [0.0, *rng.uniform(-4.0, 4.0, 6)]
        rels = [1e-15] * len(ts)
        bps = _row_breakpoints(u, x, xi)
        for b in bps:
            h = 1e-7 * max(1.0, abs(b))
            ts += [b - h, b + h]
            rels += [_next_to_sphere_rel(u, x, xi, b - h), _next_to_sphere_rel(u, x, xi, b + h)]
        for t, rel in zip(ts, rels):
            assert line(t) == pytest.approx(_section_value(u, x, x + t * xi), rel=rel, abs=1e-300)
        # the same nodes and every breakpoint as one 2-D array: one value per
        # node, each the node's value alone (numpy's vector pow may differ
        # from its scalar pow in the last bit)
        nodes = np.array(ts + bps)
        values = line(nodes.reshape(-1, 1))
        assert values.shape == (nodes.size, 1)
        assert np.all(np.isfinite(values))
        for t, rel, value in zip(ts, rels, values[:, 0]):
            assert value == pytest.approx(_section_value(u, x, x + t * xi), rel=rel, abs=1e-300)
        assert values[:, 0] == pytest.approx([float(line(t)) for t in nodes],
                                             rel=1e-15, abs=1e-300)
        # a fan of directions through x, one row of nodes per direction:
        # each row equals that direction's own line
        fan = np.array([xi] + [_unit(fan_rng, N) for _ in range(3)])
        rows = fan_rng.uniform(-4.0, 4.0, (len(fan), 9))
        fan_values = u.line(_rows(x, fan)[:, None])(rows)
        assert fan_values.shape == rows.shape
        for xi_row, t_row, got in zip(fan, rows, fan_values):
            assert got == pytest.approx(u.line(_rows(x, xi_row))(t_row), rel=1e-15, abs=1e-300)
        # a stack of points, one per row, with the fan or with xi alone:
        # each row equals the line through its own point
        points = np.r_[x[None], fan_rng.uniform(-1.0, 3.0, (len(fan) - 1, N))]
        for dirs in (fan[:, None, :], xi):
            stack_values = u.line(_rows(points[:, None, :], dirs))(rows)
            assert stack_values.shape == rows.shape
            for y, xi_row, t_row, got in zip(points, np.broadcast_to(dirs, fan[:, None].shape),
                                             rows, stack_values):
                assert got == pytest.approx(u.line(_rows(y, xi_row[0]))(t_row), rel=1e-15,
                                            abs=1e-300)


@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("kind", sorted(LINE_FIELDS))
def test_line_at_zero_on_a_stack_of_points_is_each_points_value(kind, N):
    # u(x) of many points from one call at t = 0, as the engine reads it:
    # each value is bit for bit that of the point's own stack of one, and
    # the point's value to rounding (a point of shape (N,) takes numpy's
    # scalar pow, which may differ from the vector pow in the last bit)
    rng = np.random.default_rng(40 + N)
    u = LINE_FIELDS[kind](N, rng)
    points = rng.uniform(-1.0, 3.0, (30, N)) * np.geomspace(1e-2, 1e3, 30)[:, None]
    dirs = np.array([_unit(rng, N) for _ in range(30)])
    values = u.line(_rows(points, dirs))(0.0)
    assert values.shape == (30,)
    assert values.tolist() == [u.line(_rows(y[None], xi[None]))(0.0)[0]
                               for y, xi in zip(points, dirs)]
    assert values == pytest.approx([u(y) for y in points], rel=1e-15, abs=1e-300)


# one field of every class the package defines, each with the point-set its
# edge rows probe
ROW_FIELDS = {
    "radial_decay": pr.make_w_gamma(0.5),
    "radial_growth": pr.make_v_minus_gamma(0.3, 0.75),
    "partial_n": pr.PsiField("halfint", 0.5, 0.4, 0.4),
    "psi_decay": pr.make_psi("decay", 2, 0.5),
    "bump_train": pr.BumpTrain(0.2, 0.5),
    "bump_train_thin": pr.BumpTrain(0.1, 0.5),
    "halfspace_power_tail": pr.HalfSpacePowerTail(0.7, shift=0.8),
    "power_profile": pr.PowerProfile(0.25, 3.0),
    "min_composition": pr.MinField(
        pr.HalfSpacePowerTail(0.7, shift=0.8), pr.PowerProfile(0.25, 0.5), 0.3),
    "min_thin": pr.build_thIN_supersolution(2, 0.45, 4.0)[0],
    "ball_bump": BallBump(1.0, 0.5),
}


def _edge_rows():
    """Rows (points, unit directions) in R^3: the edge rows, then random ones."""
    rng = np.random.default_rng(29)
    edges = [
        ([0.3, -0.2, 1.1], [0.6, 0.8, 0.0]),  # xi_N = 0
        ([0.0, 2.0, math.sqrt(0.5)], [0.0, 1.0, 0.0]),  # tangent to |x|^2 = 1/2
        ([0.0, 2.0, 1.0], [0.0, 1.0, 0.0]),  # tangent to |x| = 1 and to the ball
        ([0.0, 2.0, 0.2], [0.0, 1.0, 0.0]),  # tangent to |x + 0.8 e_N| = 1
        ([0.4, 0.1, -0.3], [0.48, 0.6, 0.64]),  # x_N < 0
        ([0.4, 0.1, 0.0], [0.0, 0.6, 0.8]),  # x_N = 0
        ([0.3, 0.2, 0.7], [0.0, 0.0, 1.0]),  # in a gap: no near bump
        ([0.3, 0.2, 1.5], [0.48, 0.6, 0.64]),  # through the min field's common zeros
    ]
    points = np.array([p for p, _ in edges] + [[0.0, 0.0, 0.0]] * 9)
    dirs = np.array([d for _, d in edges] + [[0.0, 0.0, 1.0]] * 9)
    points[len(edges):] = rng.uniform(-1.0, 3.0, (9, 3)) * np.geomspace(0.1, 300.0, 9)[:, None]
    dirs[len(edges):] = [_unit(rng, 3) for _ in range(9)]
    return points, dirs


def _field_classes(cls=pr.Field):
    return {cls} | {c for sub in cls.__subclasses__() for c in _field_classes(sub)}


def test_row_fields_cover_every_field_class():
    # the ball bump is a test field: no suite of the package integrates it
    package = {c for c in _field_classes() if c.__module__.startswith("fractrunc.")}
    assert package - {pr.Field} == {type(u) for u in ROW_FIELDS.values()} - {BallBump}


@pytest.mark.parametrize("kind", sorted(ROW_FIELDS) + ["base"])
def test_hooks_on_a_stack_are_each_rows_stack_of_one(kind):
    # every hook answers row i from row i alone: the stack of all rows gives,
    # bit for bit, each row's answer as a stack of one; a row's breakpoints
    # may sit in a wider padding
    u = ROW_FIELDS.get(kind, pr.Field())
    points, dirs = _edge_rows()

    def bits(a):
        return np.asarray(a, float).tobytes()

    rows = _rows(points, dirs)
    c2, bps = u.c2_radius(rows), u.breakpoints(rows)
    assert c2.shape == (len(points),) and bps.shape[0] == len(points)
    d2 = u.d2_along(rows) if hasattr(u, "d2_along") else None
    for i, (x, xi) in enumerate(zip(points[:, None], dirs[:, None])):
        # the row's own projections are those of the stack's row
        row = _rows(x, xi)
        for name in ("b", "d2", "x_n", "xi_n"):
            assert bits(getattr(row, name)) == bits(getattr(rows, name)[i:i + 1])
        assert bits(u.c2_radius(row)) == bits(c2[i:i + 1])
        one = u.breakpoints(row)[0]
        assert bits(one) == bits(bps[i, :one.size])
        assert np.all(bps[i, one.size:] == np.inf) and not np.any(bps[i] == -np.inf)
        if d2 is not None:
            assert bits(u.d2_along(row)) == bits(d2[i:i + 1])
    if kind != "base":
        # the edge rows hit what they aim at
        finite = np.isfinite(bps).sum(axis=1)
        if kind.startswith("bump_train"):
            assert finite[0] == 0 and finite[6] == 0 and c2[6] == 1.0
        if kind == "min_composition":
            assert finite[7] >= 1


def test_min_field_rows_read_their_points_radius():
    # the rows of a fan share their point; every row reads its point's radius
    u = ROW_FIELDS["min_thin"]
    a, b = [0.1, 1.2], [0.2, 0.8]
    points = np.array([a, a, b, a, b, a])
    c2 = u.c2_radius(_rows(points))
    for x, radius in zip(points, c2):
        assert u.c2_radius(_rows(x[None])).tobytes() == radius.tobytes()
    assert c2[0] != c2[2]


@pytest.mark.parametrize("u,x,s", [
    (pr.make_w_gamma(0.5), np.array([0.3, 1.2, 0.8]), 0.4),
    (pr.make_v_minus_gamma(0.3, 0.75), np.array([1.5, 0.5]), 0.75),
    (pr.make_v_gamma(0.6), np.array([0.2, 0.3, 0.4, 2.0]), 0.3),
])
def test_radial_search_objective_on_arrays(u, x, s):
    # the objective on a stack of frames equals, frame by frame, the sum of
    # the radial spline over the frame's vectors
    tol = Tolerance(1e-7, 1e-6)
    spline, _ = op._radial_spline(u, x, s, tol)
    xhat = x / np.linalg.norm(x)
    rng = np.random.default_rng(5)
    for k in range(1, x.size + 1):
        objective = op._search_objective(u, x, s, k, tol)
        frames = op.random_frames(x.size, k, 50, rng)
        expected = [sum(float(spline(min(abs(float(v @ xhat)), 1.0))) for v in f)
                    for f in frames]
        assert objective(frames)[0].tolist() == pytest.approx(expected, rel=1e-14, abs=1e-300)
