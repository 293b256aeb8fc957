"""Verification suites: verdict mechanics and each verifier's contract."""

import math
import tracemalloc

import numpy as np
import pytest

from fractrunc import constants as cn
from fractrunc import operators as op
from fractrunc import profiles as pr
from fractrunc import verify as vf
from fractrunc.quad import Tolerance

import oracles as oc
from fields import BallBump


def test_claim_verdicts():
    c = vf.ClaimResult([0.0], "t", -1.0, 0.5, "le")
    assert c.status() == "pass"
    assert vf.ClaimResult([0.0], "t", 1.0, 0.5, "le").status() == "fail"
    assert vf.ClaimResult([0.0], "t", 0.1, 0.5, "le").status() == "inconclusive"
    assert vf.ClaimResult([0.0], "t", 1e-13, 0.0, "eq", 1.0).status() == "pass"
    assert vf.ClaimResult([0.0], "t", 1.0, 0.1, "eq").status() == "fail"
    # one rounding floor, _ROUNDING * scale, on the claim side of every rule
    floor = vf._ROUNDING * 4.0
    assert vf.ClaimResult([0.0], "t", 0.5 * floor, 0.0, "le", 4.0).status() == "pass"
    assert vf.ClaimResult([0.0], "t", -floor, 0.5 * floor, "le", 4.0).status() == "pass"
    assert vf.ClaimResult([0.0], "t", 2.0 * floor, 0.0, "le", 4.0).status() == "fail"
    assert vf.ClaimResult([0.0], "t", 2.0 * floor, 0.5 * floor, "le", 4.0).status() == "fail"
    assert vf.ClaimResult([0.0], "t", 2.0 * floor, 1.5 * floor, "le", 4.0).status() \
        == "inconclusive"
    assert vf.ClaimResult([0.0], "t", 0.5 * floor, 0.0, "le").status() == "fail"
    assert vf.ClaimResult([0.0], "t", 1.5 * floor, floor, "eq", 4.0).status() == "pass"
    assert vf.ClaimResult([0.0], "t", 2.5 * floor, floor, "eq", 4.0).status() == "fail"
    # an exact residual (scale 0) gets no floor: |residual| <= error
    assert vf.ClaimResult([0.0], "t", 1e-13, 0.0, "eq").status() == "fail"
    assert vf.ClaimResult([0.0], "t", -1e-13, 1e-13, "eq").status() == "pass"
    assert vf.ClaimResult([0.0], "t", 0.0, 0.0, "eq").status() == "pass"


def test_claim_point_is_a_list_of_floats():
    assert vf.ClaimResult(np.array([1, 2]), "t", 0.0, 0.0, "le").point == [1.0, 2.0]
    point = vf.ClaimResult(np.float64(0.5), "t", 0.0, 0.0, "le").point
    assert point == [0.5] and type(point[0]) is float


def test_report_json_schema():
    r = vf.verify_power_identity(0.7, 0.5)
    doc = r.to_json()
    assert doc["schema"] == 1
    assert doc["verdict"] == "pass"
    assert all({"point", "claim", "value", "error_estimate", "status"}
               <= set(entry) for entry in doc["residuals"])
    # each status can be recomputed from the report alone
    for entry in doc["residuals"]:
        claim = vf.ClaimResult(entry["point"], entry["claim"], entry["value"],
                               entry["error_estimate"], entry["kind"], entry["scale"])
        assert claim.status() == entry["status"]
    assert {entry["scale"] for entry in doc["residuals"]} != {0.0}


def test_power_identity_floor_where_the_constant_vanishes():
    # c_{s,mu} vanishes at mu = s, and so does the predicted value; the floor
    # stays relative to C_s t^{mu-2s}, the size of the terms that cancel
    r = vf.verify_power_identity(0.95095, 0.95)
    assert r.verdict == "pass"
    assert all(c.scale >= 0.04 for c in r.residuals)


def test_epsilon_threshold_monotone_margin():
    eps = vf.epsilon_threshold(0.3, 2.0)
    assert 0.0 < eps < 0.5
    # the returned value carries a 10% margin: 1/0.9 of it still admissible
    with pytest.raises(ValueError):
        vf.epsilon_threshold(1.2, 2.0)


def test_bump_train_passes():
    r = vf.verify_bump_train(0.3, 2.0)
    assert r.verdict == "pass"
    names = {c.claim for c in r.residuals}
    assert {"case1_supersolution", "case1_cross_bump_bound",
            "case2_u_vanishes", "case2_frame_sum_zero"} <= names
    # the train reads x_N alone, so the sections along e_1 are constant: exactly 0
    for c in r.residuals:
        if c.claim == "case2_frame_sum_zero":
            assert (c.residual, c.error) == (0.0, 0.0)


@pytest.mark.parametrize("s,p", [(0.0731, 1.616), (0.05, 1.5), (0.03, 1.5)])
def test_bump_train_passes_at_small_s(s, p):
    # every bump is in the value, so a gap point's directional value (+0.0157
    # at s = 0.0731) carries only quadrature and rounding in its bar
    r = vf.verify_bump_train(s, p, N=2)
    assert r.verdict == "pass"
    assert "window" not in r.params
    assert max(c.error for c in r.residuals) <= 1e-9


def test_bump_train_case2_points_in_gaps():
    # at s = 0.955 the threshold is eps = 0.4025; a case-2 point at
    # 4 + 2*eps + 0.3 lay inside bump 5, where u does not vanish
    r = vf.verify_bump_train(0.955, 1.5, k=2, N=4)
    assert r.verdict == "pass"
    for eps in np.linspace(0.01, 0.49, 25):
        u = pr.BumpTrain(eps, 0.5)
        case2 = vf.verify_bump_train(0.5, 2.0, eps=eps, k=1, N=2,
                                     tol=Tolerance(1e-6, 1e-6)).residuals
        points = [c.point[0] for c in case2 if c.claim == "case2_u_vanishes"]
        assert len(points) == 2
        assert all(u(np.array([0.0, t])) == 0.0 for t in points)


def test_bump_train_requires_k_below_N():
    with pytest.raises(ValueError):
        vf.verify_bump_train(0.3, 2.0, k=2, N=2)


@pytest.mark.parametrize("p", [math.inf, math.nan, 0.0])
def test_bump_train_requires_finite_positive_p(p):
    with pytest.raises(ValueError, match="p must be finite and positive"):
        vf.epsilon_threshold(0.5, p)
    with pytest.raises(ValueError, match="p must be finite and positive"):
        vf.verify_bump_train(0.5, p, eps=0.2)


def _scalar_cross_bump_bound(s):
    Cs, beta = vf.cn.normalizing_constant(s), vf.cn.beta_1ms_s(s)

    def bound(eps):
        return -Cs * beta + Cs * (1.0 - 2.0 * eps) ** (-2.0 * s) * eps ** (2.0 * s) / s
    return bound


def test_bump_train_cross_bump_bound():
    # eps and the bound come from the one formula, in this operation order,
    # one grid point at a time
    grid = np.geomspace(1e-6, 0.499, 600)
    for s in (0.001, 0.05, 0.3, 0.5, 0.75, 0.97, 0.999):
        bound = _scalar_cross_bump_bound(s)
        for p in (0.2, 0.8, 1.5, 2.0, 4.0, 6.0):
            admissible = [e for e in grid if bound(e) + e ** (2.0 * s * p) <= 0.0]
            if admissible:
                assert vf.epsilon_threshold(s, p) == 0.9 * max(admissible)
            else:
                with pytest.raises(vf.NotFound):
                    vf.epsilon_threshold(s, p)
    s, p = 0.5, 2.0
    eps = vf.epsilon_threshold(s, p)
    r = vf.verify_bump_train(s, p, eps=eps, tol=Tolerance(1e-6, 1e-6))
    assert r.params["cross_bump_bound"] == _scalar_cross_bump_bound(s)(eps)


def test_epsilon_threshold_stops_at_the_narrowest_bump():
    # only the grid's floor 1e-6 is admissible; 10% below it a train refuses
    assert vf.epsilon_threshold(0.5, 5.02e-8) == 1e-6
    with pytest.raises(vf.pr.ExponentOutOfRange, match=r"eps must lie in \[1e-06, 1/2\)"):
        vf.pr.BumpTrain(0.9e-6, 0.5)


def test_t49_2_passes():
    r = vf.verify_T49_2(3, 0.5)
    assert r.verdict == "pass"
    assert r.params["gamma"] < r.params["gamma_plus"]


def test_psi_reports_onset_radius():
    r = vf.verify_psi_subsolution("halfint", 1, 0.5,
                                  radii=[5.0, 20.0, 80.0, 320.0])
    assert r.verdict == "pass"
    assert r.extra["empirical_R0"] is not None
    assert r.extra["empirical_R0"] <= 320.0


@pytest.mark.parametrize("kind,k,s,radii,verdict", [
    ("decay", 2, 0.06, None, "inconclusive"),
    ("halfint", 1, 0.5, [320.0, 5.0, 80.0, 20.0], "pass"),
])
def test_psi_report_records_every_claim(kind, k, s, radii, verdict):
    # the report's points and residuals come from every claim, at every
    # radius; max_violation from those the verdict reads, every claim from
    # the onset radius on (all of them without an onset)
    r = vf.verify_psi_subsolution(kind, k, s, radii=radii)
    assert r.verdict == verdict
    assert all(c.claim == "frame_lower_bound" for c in r.residuals)
    assert r.points == sorted(map(list, {tuple(c.point) for c in r.residuals}))
    assert all(len(p) == k + 1 for p in r.points)
    assert len(r.residuals) == 3 * len(r.extra["radii"])
    onset = r.extra["empirical_R0"]
    counted = [c for c in r.residuals
               if onset is None or math.hypot(*c.point) >= onset * (1.0 - 1e-12)]
    # le claims: residual - error - floor; floor = 1e-9 * scale, 0 for psi's claims
    assert r.max_violation == max(c.residual - c.error for c in counted)
    assert r.extra["radii"] == sorted(r.extra["radii"])


def test_psi_max_violation_reads_the_claims_from_the_onset_on():
    # claims below the onset fail by design; the verdict ignores them, and
    # so does max_violation
    r = vf.verify_psi_subsolution("decay", 1, 0.3783)
    assert r.verdict == "pass"
    assert r.extra["empirical_R0"] > r.extra["radii"][0]
    assert max(c.residual - c.error for c in r.residuals) > 0.0
    assert r.max_violation <= 0.0


@pytest.mark.parametrize("radii", [[0.5, 2.0], [0.999999], [2.0, math.nan]])
def test_psi_radii_below_the_cap_are_refused(radii):
    # orthogonal sections at |x| < 1 cross psi's cap, where their closed form
    # does not hold
    with pytest.raises(cn.DomainError, match="radius must be >= 1"):
        vf.verify_psi_subsolution("halfint", 1, 0.5, radii=radii)
    assert vf.verify_psi_subsolution("halfint", 1, 0.5, radii=[1.0, 2.0]).extra["radii"] == [1.0, 2.0]


def test_psi_bound_constant_is_positive():
    # with x_N > 0 at every sampled angle, a passing claim then implies a
    # positive frame sum, so the verdict needs no separate sign check
    for s in np.linspace(0.02, 0.98, 25):
        for kind in ("decay", "halfint", "growth"):
            for k in (1, 2, 3):
                try:
                    psi = pr.make_psi(kind, k, s)
                except (cn.NoRootError, pr.ExponentOutOfRange):
                    continue
                assert vf._psi_bound_constant(kind, k, s, psi) > 0.0, (kind, k, s)
    psi = pr.make_psi("halfint", 1, 0.5)
    assert vf._psi_bound_constant("halfint", 1, 0.5, psi) > 0.0


def test_max_violation_is_nonpositive_when_every_claim_holds():
    # max_violation reads each claim past its bar and rounding floor, so it
    # is positive exactly when some claim fails
    r = vf.verify_T49_2(2, 0.5)
    assert r.verdict == "pass"
    assert r.max_violation <= 0.0


@pytest.mark.parametrize("s", [0.06, 0.09])
def test_psi_without_onset_is_inconclusive(s):
    # no sampled radius up to 3000 starts a passing run at these s: the
    # onset lies beyond the samples, which is no violation
    r = vf.verify_psi_subsolution("decay", 2, s)
    assert r.extra["empirical_R0"] is None
    assert r.verdict == "inconclusive"


def test_singular_ik_minus_cancellation():
    r = vf.verify_singular_supersolution(0.5, -3.0, "ik_minus", 2)
    assert r.verdict == "pass"
    assert r.extra["covers"] == "I_k^- for every k = 1..2"
    # |I u + u^p| <= 1e-6 at every point: residual includes the threshold
    for c in r.residuals:
        assert c.residual <= 0.0


def test_singular_ik_minus_passes_at_small_s():
    # `fractrunc verify singular --s 0.01 --p -3 --N 2`: a far panel that
    # stopped at log T = 550 left ~2.3e-4 of the section t^{mu-2s} = t^-0.015
    # beyond T in the bars, and the claims were inconclusive; the far rule
    # integrates the whole tail
    assert vf.verify_singular_supersolution(0.01, -3.0, "ik_minus", 2).verdict == "pass"


def test_singular_in_plus_sup_over_every_frame():
    r = vf.verify_singular_supersolution(0.5, -3.0, "in_plus", 3)
    assert r.verdict == "pass"
    assert r.extra["covers"] == "I_N^+ over every orthonormal frame"
    assert {c.claim for c in r.residuals} == {
        "sup_frame_supersolution", "pigeonhole_cancellation", "frame_supersolution_quadrature"}


@pytest.mark.parametrize("p,op_kind,N", [(-1e8, "in_plus", 3), (-1e10, "in_plus", 3),
                                         (-1e300, "ik_minus", 2)])
def test_singular_passes_at_large_negative_p(p, op_kind, N):
    # u(t e_N)^p is M^p t^{mu p} in closed form: raising M t^mu to the power p
    # multiplied its rounding by |p| (pigeonhole residual 2.2e-7 against a
    # bar of 0 at p = -1e10; exact_cancellation 0.36-0.84 at p = -1e300)
    r = vf.verify_singular_supersolution(0.5, p, op_kind, N)
    assert r.verdict == "pass", [(c.claim, c.residual, c.error) for c in r.residuals]


def test_singular_in_plus_sup_is_closed_form():
    # the sup over every frame is the fs = 1 case, V (1 - N^-s) with V the
    # e_N value M C_s c_{s,mu} at t = 1; a frame without e_N has fs > 1 and
    # a wider margin
    s, p, N = 0.07, -2.7, 4
    r = vf.verify_singular_supersolution(s, p, "in_plus", N)
    assert r.verdict == "pass"
    assert len(r.residuals) <= 12
    sup = [c for c in r.residuals if c.claim == "sup_frame_supersolution" and c.point == [1.0]]
    assert len(sup) == 1
    mu = 2.0 * s / (1.0 - p)
    big_c = oc.normalizing_constant_oracle(s) * oc.c_s_mu_oracle(mu, s)
    M = (N**s / abs(big_c)) ** (1.0 / (1.0 - p))
    assert sup[0].residual == pytest.approx(M * big_c * (1.0 - N**-s), rel=1e-10)
    assert sup[0].residual == pytest.approx(-0.03872, abs=5e-6)


@pytest.mark.parametrize("s", [0.07, 0.3, 0.5, 0.9])
def test_power_frame_sum_is_fs_times_e_n_value(s):
    # the lemma behind the singular suite: at t*e_N a frame's sum for
    # M (x_N)_+^mu is fs = sum_i |xi_i.e_N|^{2s} >= 1 times the e_N value
    N, x = 4, np.array([0.0, 0.0, 0.0, 1.0])
    u, _, _ = pr.build_singular_supersolution(s, -2.7, "in_plus", N)
    frames = op.random_frames(N, N, 20, np.random.default_rng(11))
    along_n = op.directional(u, x, x, s, Tolerance(1e-10, 1e-9))
    sums = op.row_sums(u, op._fan_rows(x, frames), s, Tolerance(1e-10, 1e-9))
    for frame, fsum in zip(frames, sums):
        fs = float(np.sum(np.abs(frame[:, -1]) ** (2.0 * s)))
        assert fs >= 1.0
        assert abs(fsum.value - fs * along_n.value) \
            <= fsum.abs_error_estimate + fs * along_n.abs_error_estimate


def test_avoidance_geometry_guard():
    with pytest.raises(vf.GeometryViolation):
        vf.verify_avoidance_example(3, 0.5, 1.0, np.array([0.0, 0.0, -1.0]))


def test_avoidance_passes():
    r = vf.verify_avoidance_example(3, 0.5, 0.5, np.array([0.0, 0.0, -0.8]))
    assert r.verdict == "pass"
    zeros = [c for c in r.residuals if c.claim == "frame_sum_zero"]
    assert zeros and all((c.residual, c.error, c.kind) == (0.0, 0.0, "eq") for c in zeros)


def test_exact_frame_sums_match_the_quadrature_they_replace():
    # the avoidance lines miss the bump's ball, and the bump train's gap
    # sections along e_1 are constant, so the engine reads both as 0
    y = np.array([0.0, 0.0, -0.8])
    points = np.array(vf.verify_avoidance_example(3, 0.5, 0.5, y).points)
    rows = op.householder_rows(points - y)[:, :1]
    assert all(r.value == 0.0 for r in op.row_sums(BallBump(0.5, 0.5), rows, 0.5, Tolerance()))
    eps = 0.2
    gaps = np.multiply.outer([eps + 0.5, 4.5 + eps], vf._on_axis(3, 1.0))
    rows = op._fan_rows(gaps[:, None], np.eye(1, 3))
    for r in op.row_sums(pr.BumpTrain(eps, 0.5), rows, 0.5, Tolerance()):
        assert abs(r.value) <= r.abs_error_estimate


def test_avoidance_and_t49_2_claim_each_points_nearest_line():
    # one distance claim per point, read from the smallest d^2 of its
    # Householder rows: every row sits at distance |x - y| sqrt(1 - 1/N)
    N, r, y = 5, 0.5, np.array([0.0, 0.0, 0.0, 0.0, -0.8])
    report = vf.verify_avoidance_example(N, 0.5, r, y)
    assert report.verdict == "pass" and len(report.residuals) == 3 * 3
    for c in (c for c in report.residuals if c.claim == "line_avoids_ball"):
        d2 = float(np.sum((np.array(c.point) - y) ** 2)) * (1.0 - 1.0 / N)
        assert c.residual == pytest.approx(r * r - d2, rel=1e-14)
    report = vf.verify_T49_2(N, 0.5)
    assert [c.claim for c in report.residuals].count("avoidance_radius") == 6
    for c in (c for c in report.residuals if c.claim == "avoidance_radius"):
        nx2 = float(np.sum(np.array(c.point) ** 2))
        assert c.residual == pytest.approx(nx2 / 2.0 - nx2 * (1.0 - 1.0 / N), rel=1e-14)


def test_avoidance_at_n_2000_builds_no_square_frame():
    # a dense 2000 x 2000 Householder frame takes 32 MB a point; its rows'
    # projections are four arrays of N floats, of which the suite integrates one row
    y = np.zeros(2000)
    y[-1] = -1.0
    tracemalloc.start()
    try:
        report = vf.verify_avoidance_example(2000, 0.5, 0.5, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict == "pass"
    assert peak < 16_000_000


def test_transform_passes():
    r = vf.verify_transform(0.5, -3.0, -5.0)
    assert r.verdict == "pass"
    assert r.params["beta"] == pytest.approx(2.0 / 3.0)
    # the scalar bound is the concavity of x^beta at the suite's own beta, not sampled
    scalar = r.residuals[0]
    assert (scalar.claim, scalar.residual, scalar.error) == (
        "scalar_inequality_concavity", r.params["beta"] - 1.0, 0.0)


@pytest.mark.parametrize("name,call,rows", [
    ("power-identity", lambda: vf.verify_power_identity(0.3, 0.5), [3]),
    ("bump-train", lambda: vf.verify_bump_train(0.5, 1.5, k=2, N=3), [6]),
    ("t49-2", lambda: vf.verify_T49_2(3, 0.5), [6 * 3]),
    ("psi", lambda: vf.verify_psi_subsolution("decay", 2, 0.4), [10]),
    ("singular ik_minus",
     lambda: vf.verify_singular_supersolution(0.5, -3.0, "ik_minus", 2), [3]),
    ("singular in_plus",
     lambda: vf.verify_singular_supersolution(0.5, -3.0, "in_plus", 3), [3]),
    # avoidance integrates nothing: every section misses the ball
    ("avoidance",
     lambda: vf.verify_avoidance_example(3, 0.5, 0.5, np.array([0.0, 0.0, -0.8])), []),
    ("transform", lambda: vf.verify_transform(0.5, -3.0, -5.0), [3, 3]),
    ("avoidance N=100000",
     lambda: vf.verify_avoidance_example(100_000, 0.5, 0.5, -vf._on_axis(100_000, 1.0)), []),
])
def test_one_engine_call_per_field(name, call, rows, monkeypatch):
    # every section of a suite goes through the fan engine in one call per field
    calls = []
    engine = op._integrate_fan

    def spy(u, rows, *args):
        calls.append((u, len(rows)))
        return engine(u, rows, *args)

    monkeypatch.setattr(op, "_integrate_fan", spy)
    assert call().verdict == "pass"
    assert [n for _, n in calls] == rows
    assert len({id(u) for u, _ in calls}) == len(calls)
