"""Directional operator engine, frames, and extremal search."""

import itertools
import math
import os
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate as si
from scipy.integrate import IntegrationWarning

from fractrunc import constants as cn
from fractrunc import operators as op
from fractrunc import profiles as pr
from fractrunc import quad
from fractrunc import verify as vf
from fractrunc.quad import Tolerance

import oracles as oc
from fields import BallBump, CompactBump, commutation_residual

TOL = Tolerance(1e-10, 1e-9)


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


def test_bump_train_at_n_2000_builds_no_square_frame():
    # the gap rows e_1..e_k through t e_N are one row, from vectors of N
    # floats; the N x N identity the gap frame was once cut from took 32 MB
    tracemalloc.start()
    try:
        report = vf.verify_bump_train(0.5, 1.5, k=1999, N=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict == "pass"
    assert peak < 1_000_000


def test_frame_validation():
    with pytest.raises(ValueError):
        op.Frame(np.array([[1.0, 0.0], [1.0, 0.0]]))
    f = op.Frame(np.eye(2, 3))
    assert f.k == 2 and f.N == 3


def test_nan_and_zero_frames_rejected():
    # the orthonormality check is false for NaN, which it must refuse too
    with pytest.raises(ValueError, match="orthonormality defect nan"):
        op.Frame(np.full((1, 2), np.nan))


@pytest.mark.filterwarnings("error")
def test_zero_directions_raise_no_warning():
    # a zero direction divides by its zero norm: NaN, which Frame refuses,
    # and no RuntimeWarning under warnings-as-errors
    for bad in (lambda: op.householder_rows(np.zeros(3)),
                lambda: op.extremal_search(pr.RadialProfile(1.1, 1.0, "decay"), np.zeros(2),
                                           0.3, 1, "plus", budget=1, seed=0)):
        with pytest.raises(ValueError, match="orthonormality defect nan"):
            bad()


@pytest.mark.parametrize("x,xi", [(np.array([2.0, 0.0]), np.zeros(2)),
                                  (np.array([2.0, 0.0]), np.array([np.nan, 1.0])),
                                  (np.array([2.0, 0.0]), np.array([np.inf, 1.0])),
                                  (np.array([np.nan, 1.0]), np.array([1.0, 0.0])),
                                  (np.array([np.inf, 1.0]), np.array([1.0, 0.0]))])
def test_directional_rejects_zero_or_non_finite_input(x, xi):
    w = pr.make_w_gamma(0.5)
    with pytest.raises(ValueError, match="finite and nonzero"):
        op.directional(w, x, xi, 0.5, TOL)
    # a stack of rows is refused whole, whichever row is bad
    with pytest.raises(ValueError, match="finite and nonzero"):
        op._fan_rows(np.stack((np.array([2.0, 0.0]), x))[:, None],
                     np.stack((np.array([0.0, 1.0]), xi))[:, None])


@pytest.mark.parametrize("k,variant", [(1, "plus"), (2, "minus_full")])
def test_extremal_radial_rejects_the_origin(k, variant):
    with pytest.raises(ValueError, match="orthonormality defect nan"):
        op.extremal_radial(pr.make_w_gamma(0.5), np.zeros(2), 0.5, k, variant, TOL)


@pytest.mark.parametrize("k", [5, 4, 0, -2])
def test_extremal_radial_plus_rejects_k_out_of_range(k):
    # a "frame" of more than N orthonormal vectors, or of none, does not exist
    with pytest.raises(ValueError, match=r"k must lie in 1\.\.N = 3"):
        op.extremal_radial(pr.make_w_gamma(0.8), np.array([1.2, 0.0, 0.9]), 0.5, k, "plus", TOL)


@pytest.mark.filterwarnings("error")
def test_radial_plus_and_table_build_no_square_frame():
    # the plus closed form and the search's radial table read the rows along
    # xhat and a unit vector orthogonal to it, built in O(N): at N = 2000
    # their N x (N + 1) QR completion took 132 MB
    w, s = pr.make_w_gamma(0.8), 0.5
    small = op.extremal_radial(w, np.array([1.2, 0.0, 0.9]), s, 2, "plus", TOL)
    x = np.zeros(2000)
    x[0], x[-1] = 1.2, 0.9
    for call in (lambda: op.extremal_radial(w, x, s, 2, "plus", TOL),
                 lambda: op._radial_spline(w, x, s, Tolerance(1e-7, 1e-6))):
        tracemalloc.start()
        try:
            out = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000
    big = op.extremal_radial(w, x, s, 2, "plus", TOL)
    assert abs(big.value - small.value) <= big.abs_error_estimate + small.abs_error_estimate
    assert out[1] > 0.0
    # a zero or NaN point is refused with no RuntimeWarning
    for bad in (np.zeros(3), np.array([np.nan, 1.0, 0.0])):
        for call in (lambda: op.extremal_radial(w, bad, s, 2, "plus", TOL),
                     lambda: op._radial_spline(w, bad, s, TOL)):
            with pytest.raises(ValueError, match="orthonormality defect nan"):
                call()


def _householder_matrix(x):
    """The Householder frame of x as a dense N x N matrix, one row xi_i = H e_i
    per row: H = I - 2 w w^T reflects the normalized all-ones vector onto
    x/|x| (the identity where they agree)."""
    xhat = x / np.linalg.norm(x)
    w = xhat - np.full(x.size, 1.0 / math.sqrt(x.size))
    wn = np.linalg.norm(w)
    if wn < 1e-14:
        return np.eye(x.size)
    w = w / wn
    return (np.eye(x.size) - 2.0 * np.outer(w, w)).T


def test_householder_frame_angles():
    # every row meets x at the angle arccos(1/sqrt(N)), and the rows are an
    # orthonormal basis: their squared distances sum to (N - 1)|x|^2
    x = 2.5 * np.array([0.3, -0.5, 0.8124038404635961])
    rows = op.householder_rows(x)
    nx = float(np.linalg.norm(x))
    assert np.allclose(rows.b, nx / math.sqrt(3.0), rtol=1e-14)
    assert np.allclose(rows.d2, nx * nx * (1.0 - 1.0 / 3.0), rtol=1e-14)
    assert np.all(rows.x_n == x[-1])
    assert float(np.sum(rows.xi_n**2)) == pytest.approx(1.0, rel=1e-14)
    # x along the all-ones direction: the reflection is the identity
    ones = op.householder_rows(np.full(4, 2.0))
    assert ones.xi_n.tolist() == [0.0, 0.0, 0.0, 1.0] and ones.b.tolist() == [2.0] * 4


@pytest.mark.parametrize("N", [2, 3, 5, 8])
def test_householder_rows_match_the_dense_reflection(N):
    # b = x.xi_i, d^2 = |x - b xi_i|^2 and xi_i.e_N from the reflection's
    # rows, each within 4 ulps of its scale: |x| for b, |x|^2 for d^2, 1 for xi_N
    rng = np.random.default_rng(N)
    for x in [rng.standard_normal(N) * 10.0 ** rng.uniform(-3, 3) for _ in range(20)]:
        frame = _householder_matrix(x)
        want = pr.Rows.through(np.broadcast_to(x, frame.shape), frame)
        got = op.householder_rows(x)
        nx = float(np.linalg.norm(x))
        ulp = np.spacing
        assert np.all(np.abs(got.b - want.b) <= 4.0 * ulp(nx))
        assert np.all(np.abs(got.d2 - want.d2) <= 4.0 * ulp(nx * nx))
        assert np.all(np.abs(got.xi_n - want.xi_n) <= 4.0 * ulp(1.0))
        assert np.all(got.x_n == x[-1])
    # a stack of points gives each point's own rows, bit for bit
    points = rng.standard_normal((5, N)) * np.geomspace(1e-3, 1e3, 5)[:, None]
    stack = op.householder_rows(points)
    assert stack.b.shape == (5, N)
    for x, b, d2, x_n, xi_n in zip(points, stack.b, stack.d2, stack.x_n, stack.xi_n):
        one = op.householder_rows(x)
        assert [a.tolist() for a in (b, d2, x_n, xi_n)] == [
            a.tolist() for a in (one.b, one.d2, one.x_n, one.xi_n)]


def _completion_matrix(x, k):
    """The frame {xhat, k - 1 vectors orthogonal to xhat} of x as k rows of N,
    from a QR of xhat followed by the identity's columns; the first row is
    xhat exactly."""
    xhat = x / np.linalg.norm(x)
    q, _ = np.linalg.qr(np.column_stack((xhat, np.eye(x.size))))
    frame = q[:, :k].T.copy()
    frame[0] = xhat
    return frame


def test_radial_rows_contain_the_radial_line():
    # cosine 1 is the line along xhat, through the origin's nearest point x
    x = np.array([0.6, 0.8]) * 2.5
    rows = op._radial_rows(x, np.array([1.0]))
    assert rows.b.tolist() == [2.5] and rows.d2.tolist() == [0.0]
    assert rows.x_n.tolist() == [2.0] and rows.xi_n.tolist() == [0.8]


def test_radial_rows_match_the_rows_of_their_vectors():
    # the rows at cosine c with xhat, by their projections, against those
    # through x along c xhat + sqrt(1 - c^2) v for a QR completion's v: b and
    # d^2 within 8 ulps of their scales |x| and |x|^2, and a unit xi_N
    rng = np.random.default_rng(8)
    cosines = np.linspace(0.0, 1.0, 9)
    for N in (2, 3, 4, 50):
        for x in rng.standard_normal((30, N)) * np.geomspace(1e-3, 3e3, 30)[:, None]:
            frame = _completion_matrix(x, 2)
            want = pr.Rows.through(x, np.outer(cosines, frame[0])
                                   + np.outer(np.sqrt(1.0 - cosines**2), frame[1]))
            got = op._radial_rows(x, cosines)
            nx = float(np.linalg.norm(x))
            assert np.all(np.abs(got.b - want.b) <= 8.0 * np.spacing(nx))
            assert np.all(np.abs(got.d2 - want.d2) <= 8.0 * np.spacing(nx * nx))
            assert np.all(got.x_n == x[-1]) and np.all(np.abs(got.xi_n) <= 1.0)
            assert got.xi_n[-1] == frame[0][-1]


def test_spline_matches_scipy_cubic_spline():
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(9)
    nodes = np.linspace(0.0, 1.0, 65)
    z = np.concatenate([rng.uniform(0.0, 1.0, 2000), nodes])
    for scale in (1e-6, 1.0, 1e6):
        y = scale * rng.standard_normal(65)
        got = op._not_a_knot_spline(y)(z)
        assert np.max(np.abs(got - CubicSpline(nodes, y)(z))) <= 1e-14 * np.max(np.abs(y))


def test_random_frame_orthonormal():
    rng = np.random.default_rng(0)
    f = op.Frame(op.random_frames(4, 3, 1, rng)[0])
    assert np.allclose(f.vectors @ f.vectors.T, np.eye(3), atol=1e-12)


def test_random_frames_match_one_qr_per_frame():
    # one stacked QR gives the frames of one QR per frame, bit for bit
    for N in (2, 3, 4):
        rng = np.random.default_rng(3)
        want = []
        for _ in range(100):
            q, r = np.linalg.qr(rng.standard_normal((N, N)))
            want.append((q * np.sign(np.diag(r))).T)
        assert np.array_equal(op.random_frames(N, N, 100, np.random.default_rng(3)), want)
    with pytest.raises(ValueError, match="orthonormality defect"):
        op._check_orthonormal(np.stack([np.eye(3), np.ones((3, 3))]))


def test_frame_sum_additivity():
    gamma, s = 0.5, 0.4
    w = pr.make_w_gamma(gamma)
    x = np.array([0.0, 2.0])
    f = op.Frame(np.eye(2))
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
    # on these min fields the plus objective peaks at xi = e_1: at a kink
    # falling ~5e-2 per radian on either side, and (frame-search seed 26's
    # first min-field item) at a cusp falling 3.4e-7 within 1e-7 rad, where a
    # zoom that stopped at an angle width ended up to 2.2e-7 low against bars
    # of ~1e-8.  The search must land within both error bars of the value there
    search_tol = Tolerance(1e-7, 1e-6)
    for s, p, x in [(0.391, 3.82, [-0.0469, 1.3451]),
                    (0.3016259076587705, 4.294874482669575,
                     [-0.01388017827356236, 1.4924757587104183])]:
        u, _ = pr.build_thIN_supersolution(2, s, p)
        x = np.array(x)
        kink = op.directional(u, x, np.array([1.0, 0.0]), s, search_tol)
        for seed in range(4):
            found, _ = op.extremal_search(u, x, s, 1, "plus", budget=1, seed=seed,
                                          tol=search_tol, sweeps=1)
            bars = found.abs_error_estimate + kink.abs_error_estimate
            assert found.value >= kink.value - bars


SEARCH_TOL = Tolerance(1e-7, 1e-6)


def _unit(v):
    v = np.asarray(v, float)
    return v / np.linalg.norm(v)


def _count_fans(monkeypatch) -> list:
    """A list that grows by one at every call of the search's objective."""
    fans = []
    make = op._search_objective

    def counted(*args):
        objective = make(*args)
        return lambda frames: fans.append(1) or objective(frames)
    monkeypatch.setattr(op, "_search_objective", counted)
    return fans


def test_search_rotation_costs_few_fans(monkeypatch):
    # at the package defaults (budget 1, seed 0), on the three half-space tails
    # of FROZEN_SEARCHES: the search of the time, three Givens sweeps each
    # with a zoom that stopped at a fixed angle width, whatever the bars,
    # made 27, 37 and 9 objective fans there; one sweep and the refinement
    # must take at most 60% of that on N = 3 and 4 (16 and 22 fans).  The
    # N = 2 tail's zoom stops once its best angle's drop is within the
    # score's bar, and the far rule took those bars from ~5e-8 to ~2e-11: two
    # more levels, 7 fans (78% of 9), which end 3.3e-10 lower
    fans = _count_fans(monkeypatch)
    for (make, x, s, variant, _, _), ceiling in zip(FROZEN_SEARCHES, (16, 22, 7)):
        fans.clear()
        op.extremal_search(make(), x, s, 1, variant, budget=1, seed=0)
        assert len(fans) <= ceiling


def test_search_climbs_the_ridge_of_a_tail(monkeypatch):
    # frame-search seed 27's first N = 4 tail item: three Givens sweeps crawled
    # along a ridge to -0.216629 in 72 fans, and one sweep with a polish of 8
    # calls stopped at -0.191500 in 29; 100 sweeps with that polish reach
    # -0.13992831752313878 (bar 1.18e-8), the value the search must reach
    fans = _count_fans(monkeypatch)
    x = np.array([0.9310256717892123, 0.301558067069824, 1.873657177793345,
                  1.1575887470655923])
    found, _ = op.extremal_search(pr.HalfSpacePowerTail(0.7291850556983216), x,
                                  0.20694183569194996, 1, "plus", budget=1, seed=703846124,
                                  tol=SEARCH_TOL)
    assert found.value >= -0.13992831752313878 - (1.18e-8 + found.abs_error_estimate)
    assert len(fans) < 29


def test_search_on_flat_objective_ends_within_level_cap(monkeypatch):
    calls = []

    def flat(u, x, s, k, tol):
        return lambda frames: calls.append(1) or (np.full(frames.shape[0], 0.25),
                                                  np.zeros(frames.shape[0]))
    monkeypatch.setattr(op, "_search_objective", flat)
    w = pr.make_w_gamma(0.5)
    # every restart ties at every angle, so no ring gains: the first score and
    # one ring per plane, and no polish (N = 3); with one angle (N = 2) one
    # zoom level too, whose drop 0 is within its bar 0
    for x in (np.array([2.0, 0.0, 0.0]), np.array([2.0, 0.0])):
        calls.clear()
        found, frame = op.extremal_search(w, x, 0.5, 1, "plus", budget=2, seed=3)
        assert len(calls) == 3
        assert frame.k == 1 and math.isfinite(found.value)


@pytest.mark.parametrize("peak,share", [(lambda t: -t * t, 0.25), (lambda t: -np.abs(t), 0.5)],
                         ids=["smooth", "cusp"])
def test_zoom_stops_within_the_bar_of_the_peak(monkeypatch, peak, share):
    # a synthetic N = 2 objective of the angle t from a direction e, peaked
    # at 0 at t = 0: the zoom stops before its level cap, once the best
    # angle's drop to a neighbour is within the bar, so the gain left is at
    # most 1/4 of the bar on a smooth peak and 1/2 on a cusp
    bar, e = 1e-7, _unit([0.3, 0.8])

    def objective(frames):
        return peak(frames[:, 0, 0] * e[1] - frames[:, 0, 1] * e[0])

    calls = []
    monkeypatch.setattr(op, "_search_objective", lambda u, x, s, k, tol: lambda frames: (
        calls.append(1) or (objective(frames), np.full(frames.shape[0], bar))))
    w = pr.make_w_gamma(0.5)
    _, frame = op.extremal_search(w, np.array([2.0, 0.0]), 0.5, 1, "plus", budget=2, seed=5)
    assert objective(frame.vectors[None])[0] >= -share * bar
    assert len(calls) < 2 + op._ZOOM_LEVELS


def test_zoom_scores_no_angle_twice(monkeypatch):
    # each zoom level's centre is the best angle so far, and its edges are that
    # angle's neighbours on the level before (at level 1 on the sweep's ring):
    # the zoom holds their scores, so it scores 14 angles at every narrowing
    # level, none of them twice and none at the centre it starts from
    e = _unit([0.3, 0.8])
    seen = []

    def objective(frames):
        seen.append(np.arctan2(frames[:, 0, 1], frames[:, 0, 0]) % math.pi)
        return (-np.abs(frames[:, 0, 0] * e[1] - frames[:, 0, 1] * e[0]),
                np.full(frames.shape[0], 1e-12))

    monkeypatch.setattr(op, "_search_objective", lambda u, x, s, k, tol: objective)
    op.extremal_search(pr.make_w_gamma(0.5), np.array([2.0, 0.0]), 0.5, 1, "plus", budget=1,
                       seed=5)
    start, ring, *levels = seen
    assert [len(a) for a in levels] == [14] * op._ZOOM_LEVELS
    swept = np.concatenate((start, ring))
    centre = swept[np.argmin(np.abs(np.sin(swept - math.atan2(e[1], e[0]))))]
    angles = np.sort(np.concatenate(levels + [[centre]]))
    assert np.min(np.diff(angles)) > 1e-14


def test_zoom_scores_no_angle_the_sweep_scored(monkeypatch):
    # the ring's scores at the best angle's neighbours -+pi/32 are the zoom's
    # first edges: no zoom frame turns a restart to an angle (mod pi) that its
    # ring scored, which 2 of the 16 frames of each level-1 grid did
    seen = []

    def objective(frames):
        seen.append(np.arctan2(frames[:, 0, 1], frames[:, 0, 0]))
        a = seen[-1]
        return np.cos(2.0 * (a - 0.4)) + 0.1 * np.cos(4.0 * a), np.full(a.size, 1e-12)

    monkeypatch.setattr(op, "_search_objective", lambda u, x, s, k, tol: objective)
    budget = 3
    op.extremal_search(pr.make_w_gamma(0.5), np.array([2.0, 0.0]), 0.5, 1, "plus",
                       budget=budget, seed=11)
    start, ring, *levels = seen
    assert ring.size == budget * (op._ANGLE_GRID - 1) and len(levels) >= 2
    swept, zoomed = np.r_[start, ring], np.concatenate(levels)
    # distance mod pi, since a frame turned by pi is the same frame
    gap = np.abs((zoomed[:, None] - swept + math.pi / 2.0) % math.pi - math.pi / 2.0)
    assert np.min(gap) > 1e-9


# (field, point, s, variant, settings) -> (value, error bar) the search
# returned with a zoom of 4x per level (k = 1, budget 1, seed 0, SEARCH_TOL)
FROZEN_SEARCHES = [
    (lambda: pr.HalfSpacePowerTail(0.9), 2.0 * _unit([0.4, -0.7, 0.9]), 0.35, "plus", {},
     (-0.020637457090175133, 1.2345752615835503e-07)),
    (lambda: pr.HalfSpacePowerTail(1.1), 1.8 * _unit([0.5, 0.3, -0.6, 0.8]), 0.3, "plus", {},
     (-0.01273072114657014, 4.0150097093695125e-09)),
    (lambda: pr.HalfSpacePowerTail(0.7), 2.2 * _unit([0.6, 0.9]), 0.4, "minus", {},
     (-0.19877620973955157, 3.002121155192993e-08)),
    (lambda: pr.build_thIN_supersolution(2, 0.45, 4.0)[0], np.array([0.2, 1.2]), 0.45, "plus",
     {"sweeps": 1}, (-0.051523349686220236, 5.5909943356316065e-09)),
]


@pytest.mark.parametrize("make,x,s,variant,settings,frozen", FROZEN_SEARCHES,
                         ids=["tail-N3-plus", "tail-N4-plus", "tail-N2-minus",
                              "min-field-plus"])
def test_search_no_worse_than_frozen(make, x, s, variant, settings, frozen):
    found, _ = op.extremal_search(make(), x, s, 1, variant, budget=1, seed=0,
                                  tol=SEARCH_TOL, **settings)
    value, bar = frozen
    # plus bounds the sup from below, minus the inf from above
    gain = found.value - value if variant == "plus" else value - found.value
    assert gain >= -(bar + found.abs_error_estimate)


def test_commutation_residual_small():
    # D_N v_{0.5} = -psi/2 for the one-profile psi at gamma 0.5
    v, psi = pr.make_v_gamma(0.5), pr.PsiField("halfint", 0.25, 0.5, 0.5)
    assert commutation_residual(v, psi, -0.5, np.array([0.0, 2.0]), np.array([1.0, 0.0]),
                                0.25) <= 1e-4


def test_growth_metadata_enforced():
    # far exponent 1.2 >= 2s: the defining integral diverges
    with pytest.raises(op.GrowthViolation):
        op.directional(pr.PowerProfile(1.2), np.array([0.0, 2.0]), np.array([0.0, 1.0]), 0.5)
    # along e_1 the same field is constant, exponent 0, and its integral converges
    r = op.directional(pr.PowerProfile(1.2), np.array([0.0, 2.0]), np.array([1.0, 0.0]), 0.5)
    assert abs(r.value) <= r.abs_error_estimate

    class NoLaw(pr.Field):  # a field that declares no far law is refused
        def line(self, rows):
            return lambda t: np.zeros_like(rows.r2(t))

    with pytest.raises(TypeError, match="NoLaw declares no far law"):
        op.directional(NoLaw(), np.array([0.0, 0.5]), np.array([0.0, 1.0]), 0.5)

    class NoC2Window(CompactBump):
        def c2_radius(self, rows):
            return np.zeros(len(rows))

    with pytest.raises(ValueError, match="C\\^2 window"):
        op.directional(NoC2Window(0.5), np.array([0.0, 0.5]), np.array([0.0, 1.0]), 0.5)


class _CountingField:
    """A field's proxy that counts the values its line closures return."""

    def __init__(self, field):
        self.field, self.evals = field, 0

    def __getattr__(self, name):
        return getattr(self.field, name)

    def line(self, rows):
        at = self.field.line(rows)

        def counted(t):
            out = at(t)
            self.evals += np.size(out)
            return out
        return counted


# metadata (breakpoints, C^2 radius, far law) of these fields is analytic, so
# every evaluation the proxy sees belongs to the operator; the half-space tail
# has no d2_along (finite differences).  Each far law is one term, the field's
# own line, so the proxy sees the far rules' nodes too, two a node
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
    """An independent reference for ``op.directional``, each piece by scipy's quad,
    one call per node: a Taylor ladder of rungs near 0, judged on the d^2 piece,
    core pieces above it, then a log-substituted far panel out to T <= e^550
    and a tail bound from the far law's largest exponent and probes.

    It reads the field's own hooks, one direction at a time: each a stack of one row.
    """
    line = u.line(pr.Rows.through(x, xi))

    def ev(t):
        return float(line(np.array(t)))

    u0 = ev(0.0)

    def kernel(t):
        return (ev(t) + ev(-t) - 2.0 * u0) / t ** (1.0 + 2.0 * s)

    row = pr.Rows.through(x[None], xi[None])
    discontinuities = [float(t) for t in u.breakpoints(row)[0] if math.isfinite(t)]
    window = min([float(u.c2_radius(row)[0])] + [abs(t) for t in discontinuities])
    if hasattr(u, "d2_along"):
        d2 = float(u.d2_along(row)[0])
    else:  # central differences at h, h/2 and h/4, Richardson-extrapolated twice
        h = window / 8.0
        d = [(ev(h / j) + ev(-h / j) - 2.0 * u0) / (h / j) ** 2 for j in (1.0, 2.0, 4.0)]
        once = [(4.0 * fine - coarse) / 3.0 for coarse, fine in zip(d, d[1:])]
        d2 = (16.0 * once[1] - once[0]) / 15.0
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
    core_end = max(1.0, 2.0 * delta, (2.0 * bps[-1] + 1.0) if bps else 1.0)
    cuts = [delta] + [b for b in bps if b < core_end] + [core_end]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        def smooth(z, lo=lo, L=hi - lo):
            w = z * z * z * (10.0 + z * (-15.0 + 6.0 * z))
            return kernel(lo + L * w) * L * 30.0 * z * z * (1.0 - z) * (1.0 - z)
        v, e = _scipy_piece(smooth, 0.0, 1.0, tol.abs_tol / (4.0 * len(cuts)), tol.rel_tol)
        value, err = value + v, err + e

    # a growth bound from the far law's largest exponent and probes of the section
    alpha = max(float(np.max(a)) for a, _ in u.far_law(row, np.array([core_end]))[1])
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
    closed, closed_err = u.far_part(row, s) if hasattr(u, "far_part") else ([0.0], [0.0])
    return Cs * (value + float(closed[0])), Cs * (err + float(closed_err[0]))


class _TruncatedTrain:
    """The bumps n < ``window`` of a ``BumpTrain``, each on the whole line of
    every section, and the bumps from ``window`` on as ``far_part``, the
    moment series of their Hurwitz sum.  A quadrature of its sections is an
    independent check of the train's split into the bumps of a section's
    span and the Hurwitz sums above and below it; rows need x_N <= window - eps."""

    def __init__(self, eps, s, window):
        self.eps, self.s, self.window = eps, s, window
        starts = np.arange(window, dtype=float)
        self.edges = np.column_stack((starts, starts + 2.0 * eps)).reshape(-1)

    def line(self, rows):
        a, b = rows.x_n, rows.xi_n
        eps, s, window = self.eps, self.s, self.window

        def at(t):
            y = a + t * b
            n = np.floor(y)
            arg = eps * eps - (y - n - eps) ** 2
            inside = (n >= 0.0) & (n < window) & (arg > 0.0)
            return np.where(inside, np.maximum(arg, 0.0) ** s, 0.0)
        return at

    def c2_radius(self, rows):
        return np.maximum(np.min(np.abs(rows.x_n[:, None] - self.edges), axis=1) / 2.0, 1e-6)

    def breakpoints(self, rows):
        return pr._plane_crossings(rows, self.edges)

    far_law = staticmethod(pr._settled_law)  # each section vanishes past its last bump

    def far_part(self, rows, s):
        y, xi_n = np.broadcast_arrays(rows.x_n, rows.xi_n)
        start = self.window + self.eps - y
        moments, errors = pr._hurwitz_sums(self.eps, s, start,
                                           2.0**-53 * ((self.window + self.eps) / start + 1.0))
        value, error = pr._moment_series(self.eps, self.s, s, moments, errors)
        scale = np.abs(xi_n) ** (2.0 * s)
        return scale * value, scale * error


# field kinds whose growth exponent stays below 2s for every s tested
PARITY_FIELDS = {
    "radial_decay": lambda N: pr.make_w_gamma(0.5),
    "psi_decay": lambda N: pr.make_psi("decay", 2, 0.5),
    "bump_train": lambda N: pr.BumpTrain(0.2, 0.5),
    "halfspace_power_tail": lambda N: pr.HalfSpacePowerTail(0.7, shift=0.8),
    "singular_power": lambda N: pr.PowerProfile(0.05, 2.0),
    "min_composition": lambda N: pr.MinField(
        pr.HalfSpacePowerTail(0.7, shift=0.8), pr.PowerProfile(0.25, 0.5), 0.3),
    "ball_bump": lambda N: BallBump(1.5, 0.5),
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
    # scipy integrates the train's first six bumps over the whole section
    reference = _TruncatedTrain(0.2, 0.5, 6) if kind == "bump_train" else u
    ref_value, ref_err = _reference_directional(reference, x, xi, s, TOL)
    assert abs(r.value - ref_value) <= r.abs_error_estimate + ref_err


# a min field whose sections cross far out when they are near xi_N = 0
_THIN_FAR = pr.build_thIN_supersolution(2, 0.3016, 4.2949)[0]


@pytest.mark.parametrize("s", [0.1, 0.3016])
@pytest.mark.parametrize("x,xi", [([0.0, 0.005], [math.cos(0.005), math.sin(0.005)]),
                                  ([0.0, 1e-6], [1.0, 1e-5])], ids=["t10", "t180"])
def test_min_field_far_crossing_matches_scipy_reference(x, xi, s):
    # phi drops below z at t ~ 10.4 and ~ 181 along these rows, past the near
    # scan's span of 10: a far law that took z, the lower field at the core's
    # end, read -0.0797 at the first row and s = 0.3016, where the reference's
    # log panel reads -0.1020
    x, xi = np.array(x), _unit(xi)
    r = op.directional(_THIN_FAR, x, xi, s, TOL)
    ref_value, ref_err = _reference_directional(_THIN_FAR, x, xi, s, TOL)
    assert abs(r.value - ref_value) <= r.abs_error_estimate + ref_err


def test_min_field_far_scan_stays_in_float_range():
    # the far crossing scan stops at |t| = 1e150, so at |x| = 1e140 the squared
    # norms |x + t xi|^2 it reads stay finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = op.directional(_THIN_FAR, np.array([0.3, 1e140]), _unit([0.6, 0.8]), 0.3016)
    assert math.isfinite(r.value) and math.isfinite(r.abs_error_estimate)


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
    fan = op.row_sums(u, op._fan_rows(x, directions[:, None]), s, TOL)
    assert len(fan) == len(directions)
    for xi, r in zip(directions, fan):
        one = op.directional(u, x, xi, s, TOL)
        assert r.n_evals == one.n_evals
        bars = r.abs_error_estimate + one.abs_error_estimate
        assert abs(r.value - one.value) <= max(1e-13 * abs(one.value), bars)
        assert r.abs_error_estimate == pytest.approx(one.abs_error_estimate, rel=1e-13)
    # a stack of points, one per row, the first two rows and the last two
    # sharing theirs: each row matches its own call; its panels sit elsewhere
    # in the batch, so sums may round differently
    points = np.r_[x[None], x[None], np.c_[rng.uniform(-1.0, 1.0, (N + 1, N - 1)),
                                           rng.uniform(0.2, 2.0, N + 1)]]
    points[-1] = points[-2]
    stack = op.row_sums(u, op._fan_rows(points[:, None], directions[1:, None]), s, TOL)
    assert len(stack) == len(points)
    for y, xi, r in zip(points, directions[1:], stack):
        one = op.directional(u, y, xi, s, TOL)
        assert r.n_evals == one.n_evals
        assert abs(r.value - one.value) <= r.abs_error_estimate + one.abs_error_estimate
        assert r.abs_error_estimate == pytest.approx(one.abs_error_estimate, rel=1e-9)


@pytest.mark.parametrize("kind", sorted(PARITY_FIELDS))
def test_one_point_fan_matches_stack_of_that_point(kind):
    # the rows through one point of shape (N,) and through a stack of that
    # point repeated are the same batch, so the results agree bit for bit
    N, s = 3, 0.5
    rng = np.random.default_rng(17)
    u = PARITY_FIELDS[kind](N)
    x = np.r_[rng.uniform(-1.0, 1.0, N - 1), rng.uniform(0.2, 2.0)]
    directions = rng.standard_normal((5, N))
    fan = op.row_sums(u, op._fan_rows(x, directions[:, None]), s, TOL)
    stack = op._fan_rows(np.repeat(x[None], 5, axis=0)[:, None], directions[:, None])
    assert op.row_sums(u, stack, s, TOL) == fan


def test_an_empty_stack_sums_to_nothing():
    empty = np.zeros(0)
    value, err, n_evals = op._integrate_fan(pr.PowerProfile(0.3), pr.Rows(empty, empty, empty,
                                                                         empty), 0.5, 1e-10, 1e-9)
    assert value.size == err.size == n_evals.size == 0
    assert op.row_sums(pr.make_w_gamma(0.5), pr.Rows(*(np.zeros((0, 2)),) * 4), 0.5) == []


def test_row_sums():
    u, s = pr.HalfSpacePowerTail(0.7, shift=0.8), 0.5
    x, y = np.array([0.3, -0.2, 1.1]), np.array([-0.5, 0.4, 2.0])
    fx, fy = op.Frame(_householder_matrix(x)), op.Frame(_completion_matrix(y, 3))
    # frame_sum is row_sums of its frame's rows at one point
    assert op.frame_sum(u, x, fx, s, TOL) == op.row_sums(u, op._fan_rows(x, fx.vectors[None]),
                                                         s, TOL)[0]
    # a (P, k) stack, one tolerance per point: each sum adds its own rows of
    # the one batch in order from 0, bit for bit, and matches its point's own
    # call with the same evaluations, within the bars (a row's bar rounds by
    # its panels' place in the batch)
    tols = [TOL, Tolerance(1e-6, 1e-5)]
    rows = op._fan_rows(np.stack((x, y))[:, None], np.stack((fx.vectors, fy.vectors)))
    assert rows.b.shape == (2, 3)
    sums = op.row_sums(u, rows, s, tols)
    flat = pr.Rows(*(np.ravel(a) for a in (rows.b, rows.d2, rows.x_n, rows.xi_n)))
    engine = op._integrate_fan(u, flat, s, np.repeat([t.abs_tol for t in tols], 3),
                               np.repeat([t.rel_tol for t in tols], 3))
    sections = [op.QuadResult(*a) for a in zip(*(a.tolist() for a in engine))]
    for i, r in enumerate(sums):
        assert r == sum(sections[3 * i:3 * i + 3], op.QuadResult(0.0, 0.0, 0))
    for r, point, frame, tol in zip(sums, (x, y), (fx, fy), tols):
        one = op.frame_sum(u, point, frame, s, tol)
        assert r.n_evals == one.n_evals
        assert abs(r.value - one.value) <= r.abs_error_estimate + one.abs_error_estimate
    assert sums[1].n_evals < op.frame_sum(u, y, fy, s, TOL).n_evals
    # the same sums from the Householder rows in O(N), a stack of both points
    for r, row in zip(sums[:1], op.row_sums(u, op.householder_rows(np.stack((x, y)))[:1], s,
                                            tols[:1])):
        assert r.n_evals == row.n_evals
        assert abs(r.value - row.value) <= r.abs_error_estimate + row.abs_error_estimate


@pytest.mark.parametrize("kind,k,s,ceiling", [("decay", 1, 0.4, 1_900),
                                               ("growth", 1, 0.7, 1_650)])
def test_far_panel_starts_clear_of_the_last_breakpoint(kind, k, s, ceiling):
    # at r = 3000 the radial section crosses psi's junction spheres at
    # t ~ -r -+ 1; a log-substituted far panel starting just past them
    # bisected deep next to the kink (2,196 and 1,944 evaluations), one
    # starting at twice the last breakpoint did not (1,608 and 1,356); the
    # core now runs to that start and the far rule takes the rest
    psi, phi, tol = pr.make_psi(kind, k, s), 0.85, Tolerance(1e-12, 1e-11)
    x = 3000.0 * np.array([math.cos(phi), math.sin(phi)])
    r = op.directional(psi, x, x, s, tol)
    assert r.n_evals < ceiling
    assert r.value > 0.0 and r.abs_error_estimate <= tol.abs_tol


@pytest.mark.parametrize("s", [0.05, 0.5, 0.9])
def test_far_start_moves_past_a_far_radius_declared_too_small(monkeypatch, s):
    # w_gamma's law with R = 0, at |x| = 50 along a line that misses the cap:
    # c starts near 1 while the section is singular at t = -30 +- 40i, so the
    # far rules' gap moves c out fourfold until it meets the honest field
    class ShortLaw(pr.RadialProfile):
        def far_law(self, rows, beyond):
            return 0.0, super().far_law(rows, beyond)[1]

    starts, far_piece = [], op._far_piece
    monkeypatch.setattr(op, "_far_piece", lambda u, rows, s, c, terms: (
        starts.append(float(c[0])) or far_piece(u, rows, s, c, terms)))
    x, xi = np.array([50.0, 0.0]), np.array([0.6, 0.8])
    r = op.directional(ShortLaw(0.5, 0.5, "decay"), x, xi, s, TOL)
    assert starts[0] <= 2.0 and len(starts) > 1
    assert starts[1:] == [4.0 * c for c in starts[:-1]]
    starts.clear()
    honest = op.directional(pr.make_w_gamma(0.5), x, xi, s, TOL)
    assert starts == [101.0]  # 2|x| + 1, taken once
    assert abs(r.value - honest.value) <= r.abs_error_estimate + honest.abs_error_estimate


def _count_engine_calls(monkeypatch):
    calls = []
    engine = op.integrate_batch
    monkeypatch.setattr(op, "integrate_batch", lambda *a: calls.append(1) or engine(*a))
    return calls


@pytest.mark.parametrize("s,mu,abs_tol", [(0.07, 0.08, 1e-10), (0.25, 0.2, 1e-10),
                                          (0.4, 0.44, 1e-10), (0.3, 0.45, 1e-16)])
def test_every_fan_makes_one_engine_call(monkeypatch, s, mu, abs_tol):
    # the near and far pieces are fixed rules outside the engine, so a fan's
    # core pieces are its one integrate_batch call.  The row of x_N^0.45 along
    # e_N at 1e-16 took three calls when a Taylor ladder of rungs integrated
    # its near piece
    calls, per_fan = _count_engine_calls(monkeypatch), []
    fan = op._integrate_fan

    def counted(*args):
        before = len(calls)
        out = fan(*args)
        per_fan.append(len(calls) - before)
        return out

    monkeypatch.setattr(op, "_integrate_fan", counted)
    assert vf.verify_power_identity(mu, s, tol=TOL).verdict == "pass"
    e_n = np.array([0.0, 1.0])
    r = op.directional(pr.PowerProfile(mu), e_n, e_n, s, Tolerance(abs_tol, 10.0 * abs_tol))
    assert abs(r.value - cn.normalizing_constant(s) * cn.c_s_mu(mu, s)) <= r.abs_error_estimate
    assert len(per_fan) >= 2 and per_fan == [1] * len(per_fan)


# the near end's weight u^{1-s} at five s (alpha None), and the far end's
# u^beta, beta = 2s - alpha - 1 from -0.99998 through -0.985 to 0.7
JACOBI_CASES = ([(s, None) for s in (1e-5, 0.05, 0.5, 0.95, 0.99999)]
                + [(1e-5, 3e-6), (0.01, 0.005), (0.5, 0.3), (0.5, -0.7), (0.99, 1.5)])


@pytest.mark.parametrize("s,alpha", JACOBI_CASES,
                         ids=[str(s) if a is None else f"far-{s}-{a}" for s, a in JACOBI_CASES])
@pytest.mark.parametrize("n", [op._CHECK_NODES, op._RULE_NODES])
def test_jacobi_rule_moments_match_mpmath(n, s, alpha):
    # an n-node Gauss rule for the weight u^{a-1} on (0, 1) integrates u^k
    # exactly, 1/(k + a), for every k < 2n: a = 2 - s at the near end, and
    # a = 1 + beta = 2s - alpha at the far end, where the mass 1/a reaches 6e4
    a = 2.0 - s if alpha is None else 2.0 * s - alpha
    nodes, weights = (r[:n] if n == op._RULE_NODES else r[op._RULE_NODES:] for r in op._rules(a))
    assert nodes.size == weights.size == n and np.all((nodes > 0.0) & (nodes < 1.0))
    with mpmath.workdps(40):
        sm = mpmath.mpf(s)
        exact_a = 2 - sm if alpha is None else 2 * sm - mpmath.mpf(alpha)
        for k in range(2 * n):
            got = mpmath.fsum(mpmath.mpf(float(w)) * mpmath.mpf(float(u)) ** k
                              for u, w in zip(nodes, weights))
            exact = 1 / (k + exact_a)
            assert abs(got / exact - 1) <= 1e-14, (k, float(got / exact - 1))


@pytest.mark.parametrize("s", [0.995, 0.999, 0.9999])
@pytest.mark.parametrize("ratio", [0.3, 1.2])
def test_power_identity_near_s_one_holds_within_a_tight_bar(s, ratio):
    # the near rule takes G(u) - G(0) against u^{1-s}, so its nodes stay clear of
    # where the pair cancels; a rule for u^{-s} on G itself read bars of 2e-9 here
    mu, e_n = ratio * s, np.array([0.0, 1.0])
    r = op.directional(pr.PowerProfile(mu), e_n, e_n, s)
    assert abs(r.value - cn.normalizing_constant(s) * cn.c_s_mu(mu, s)) <= r.abs_error_estimate
    assert r.abs_error_estimate <= 1e-11


def _mp_power_identity(mu, s):
    """C_s c_{s,mu} in mpmath from the Gamma closed forms, 80 digits; at s = 1/2,
    where the pole of Gamma(1 - 2s) meets a zero of the bracket, the mean of
    the values at s -+ 1e-30."""
    def value(s, mu):
        return (4**s * s * mpmath.gamma(0.5 + s) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(1 - s))
                * mu / (2 * s) * mpmath.gamma(1 - 2 * s)
                * (mpmath.gamma(2 * s - mu) / mpmath.gamma(1 - mu)
                   - mpmath.gamma(mu) / mpmath.gamma(1 + mu - 2 * s)))

    with mpmath.workdps(80):
        sm, mum = mpmath.mpf(s), mpmath.mpf(mu)
        if s != 0.5:
            return value(sm, mum)
        d = mpmath.mpf("1e-30")
        return (value(sm - d, mum) + value(sm + d, mum)) / 2


@pytest.mark.parametrize("s", [1e-5, 0.01, 0.1, 0.5, 0.95, 0.999])
@pytest.mark.parametrize("ratio", [0.3, 1.2])
def test_power_identity_matches_mpmath_across_s(s, ratio):
    # along e_N at e_N the section integral is c_{s,mu}.  At s = 1e-5 the far
    # rule's sum and -u(x) c^{-2s}/s are each ~1/(2s - mu) ~ 6e4 and cancel,
    # so the rule's weight u^{a-1} takes a = 2s - mu itself, not 1 plus a
    # rounded 2s - mu - 1, and the bar counts the sum's rounding
    mu, e_n = ratio * s, np.array([0.0, 1.0])
    r = op.directional(pr.PowerProfile(mu), e_n, e_n, s)
    assert abs(r.value - float(_mp_power_identity(mu, s))) <= r.abs_error_estimate


def _mp_far_section(u, row):
    """t -> the section of ``u`` along the one row of ``row`` in mpmath, from its
    four projections, beyond the caps and crossings: the power, the tails of
    the half-space tail and of psi's parts, and the min of two of them."""
    if isinstance(u, pr.MinField):
        first, second = (_mp_far_section(f, row) for f in (u.first, u.second))
        return lambda t: mpmath.mpf(u.scale) * min(first(t), second(t))
    b, d2, x_n, xi_n = (mpmath.mpf(float(a[0])) for a in (row.b, row.d2, row.x_n, row.xi_n))
    zero = mpmath.mpf(0)

    def r2(t):
        return d2 + (t + b) ** 2

    if isinstance(u, pr.PowerProfile):
        coef, mu = mpmath.mpf(u.coefficient), mpmath.mpf(u.mu)
        return lambda t: coef * (x_n + t * xi_n) ** mu if x_n + t * xi_n > 0 else zero
    if isinstance(u, pr.HalfSpacePowerTail):
        c, p = mpmath.mpf(u.shift), -mpmath.mpf(u.gamma) / 2

        def tail(t):
            y = x_n + t * xi_n
            return (r2(t) + 2 * c * y + c * c) ** p if y > 0 else zero
        return tail
    # psi = -(2/gamma_lead) y_N sum_j g_j'(|y|^2), g_j' = c_j r^{e_j} on the tails
    tails = [tuple(mpmath.mpf(a) for a in v._tail(1)) for v in u.profiles]
    lead = mpmath.mpf(u.gamma_lead)
    return lambda t: -2 * (x_n + t * xi_n) * sum(cj * r2(t) ** ej for cj, ej in tails) / lead


def _mp_far_integral(f, s, c, alpha):
    """int_c^inf (f(t) + f(-t)) t^{-1-2s} dt in mpmath: c^{-2s} int_0^1 h(v)
    v^{2s-1} dv with h(v) = f(c/v) + f(-c/v), and for a = 2s - alpha < 1, alpha
    the section's largest far exponent, H(v) = v^alpha h(v) and H0 = H(1e-30),
    c^{-2s} (H0/a + int_0^1 (H(v) - H0) v^{a-1} dv)."""
    s, c, alpha = mpmath.mpf(s), mpmath.mpf(c), mpmath.mpf(alpha)
    a = 2 * s - alpha

    def h(v):
        return f(c / v) + f(-c / v)

    if a >= 1:
        inner = mpmath.quad(lambda v: h(v) * v ** (2 * s - 1), [0, 1])
    else:
        H0 = mpmath.mpf("1e-30") ** alpha * h(mpmath.mpf("1e-30"))
        inner = H0 / a + mpmath.quad(lambda v: (v**alpha * h(v) - H0) * v ** (a - 1), [0, 1])
    return c ** (-2 * s) * inner


# name -> (field at s, point, direction, the least s it takes)
FAR_LAWS = {
    "power-flat": (lambda s: pr.PowerProfile(1.2 * s, 2.0), [0.3, 1.3], [1.0, 0.0], 0.0),
    "power": (lambda s: pr.PowerProfile(1.2 * s, 2.0), [0.3, 1.3], [0.6, 0.8], 0.0),
    "psi-decay": (lambda s: pr.PsiField("decay", s, 0.5, 0.7), [0.4, 0.3, 1.1],
                  [0.48, -0.6, 0.64], 0.0),
    "psi-growth": (lambda s: pr.make_psi("growth", 1, s), [0.4, 0.3, 1.1],
                   [0.48, -0.6, 0.64], 0.5),
    "tail": (lambda s: pr.HalfSpacePowerTail(0.7, shift=0.8), [0.3, -0.4, 1.1],
             [0.6, 0.3, -0.5], 0.0),
    "min-tail-first": (lambda s: pr.MinField(pr.HalfSpacePowerTail(0.7, shift=0.8),
                                             pr.PowerProfile(0.25, 0.5), 0.3),
                       [0.3, 1.2], [0.6, -0.8], 0.0),
    "min-tail-second": (lambda s: pr.MinField(pr.PowerProfile(0.25, 0.5),
                                              pr.HalfSpacePowerTail(0.7, shift=0.8), 0.3),
                        [0.3, 1.2], [0.6, 0.8], 0.0),
    # 4 y_N is the lower one beyond y_N = 4, so the second field, at exponent 1 < 2s
    "min-powers": (lambda s: pr.MinField(pr.PowerProfile(2.0), pr.PowerProfile(1.0, 4.0)),
                   [0.3, 1.2], [0.6, 0.8], 0.5),
    # z = y_N^0.151 is the lower one out to t ~ 10.4 and phi beyond: a crossing
    # past the near scan's span of 10; nearer the plane, at 1e-5 rad, at t ~ 180
    "min-far-crossing": (lambda s: _THIN_FAR, [0.0, 0.005], [math.cos(0.005), math.sin(0.005)],
                         0.0),
    "min-farther-crossing": (lambda s: _THIN_FAR, [0.0, 1e-6], [1.0, 1e-5], 0.0),
}


@pytest.mark.parametrize("kind,s", [(kind, s) for kind, case in sorted(FAR_LAWS.items())
                                    for s in (1e-5, 0.01, 0.5, 0.95, 0.999) if s > case[3]])
def test_far_law_matches_line_and_mpmath(kind, s):
    # each field's far law: its terms sum to the section beyond c, and the far
    # piece by the Gauss-Jacobi rules on them lies within its bar of 40-digit mpmath
    make, x, xi, _ = FAR_LAWS[kind]
    u, row = make(s), pr.Rows.through(np.array(x, float)[None], _unit(xi)[None])
    radii = np.abs(u.breakpoints(row))
    beyond = 2.0 * np.max(radii, axis=1, where=np.isfinite(radii), initial=0.0) + 1.0
    radius, terms = u.far_law(row, beyond)
    c = np.maximum(beyond, 2.0 * radius + 1.0)
    t = float(c[0]) * np.array([1.0, 10.0, 1e3, -1.0, -10.0, -1e3])
    total = sum((u.line(row) if line is None else line)(t) for _, line in terms)
    assert total == pytest.approx(u.line(row)(t), rel=1e-14, abs=1e-300)
    value, bar, _, count = op._far_piece(u, row, s, c, u.far_law(row[:, None], beyond[:, None])[1])
    assert count == 2 * len(terms) * (op._RULE_NODES + op._CHECK_NODES)
    # the reference needs the leading exponent: that of a term that is not 0 there
    alpha = max(float(np.max(a)) for a, line in terms
                if np.any((u.line(row) if line is None else line)(t) != 0.0))
    with mpmath.workdps(40):
        want = float(_mp_far_integral(_mp_far_section(u, row), s, c[0], alpha))
    assert abs(value[0] - want) <= bar[0], (value[0], want, bar[0])
    assert bar[0] <= 1e-12 * max(1.0, abs(want))


def _run_first_pass(monkeypatch, workload: str, seed: int) -> None:
    """Call every item of a workload's first benchmark pass at ``seed``."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench"))
    import decks

    for item in itertools.islice(decks.deck(workload, seed), decks.pass_size(workload)):
        item.call()


def _first_pass(monkeypatch, workload: str, seed: int) -> dict:
    """The engine calls, rounds (``quad._gk21`` calls) and integrand nodes of
    a workload's first benchmark pass at ``seed``."""
    counts = {"calls": 0, "rounds": 0, "nodes": 0}
    engine, round_ = op.integrate_batch, quad._gk21

    def spy(*args):
        v, e, n = engine(*args)
        counts["calls"] += 1
        counts["nodes"] += int(np.sum(n))
        return v, e, n

    def counted_round(*args):
        counts["rounds"] += 1
        return round_(*args)

    monkeypatch.setattr(op, "integrate_batch", spy)
    monkeypatch.setattr(quad, "_gk21", counted_round)
    _run_first_pass(monkeypatch, workload, seed)
    return counts


def test_certify_pass_makes_half_the_engine_calls(monkeypatch):
    # the first certify pass of seed 1 made 106 engine calls when each ladder
    # ran four rungs a call and the core and far pieces waited for it, 42 when
    # the ladders' first five rungs joined them; now one call a fan, 30
    assert _first_pass(monkeypatch, "certify", 1)["calls"] <= 30


def test_certify_pass_nodes_stay_under_a_ceiling(monkeypatch):
    # the integrand nodes of seed 1's first certify pass: 180,558 when psi
    # integrated every row of its frames, 84,000 with one radial row per
    # radius and its orthogonal rows in closed form, 59,136 with the near
    # pieces by a Gauss-Jacobi rule outside the engine (57,876 once
    # avoidance integrated nothing), 39,438 with the far pieces too
    assert _first_pass(monkeypatch, "certify", 1)["nodes"] <= 41_000


def test_certify_pass_rounds_stay_under_a_ceiling(monkeypatch):
    # seed 1's first certify pass took 144 rounds when every piece started as
    # one panel and a failing panel was only halved; 92 with core and far
    # pieces started as two panels and four-way cuts far above the share; 78
    # with no rungs
    assert _first_pass(monkeypatch, "certify", 1)["rounds"] <= 82


def test_frame_search_pass_counts_stay_under_ceilings(monkeypatch):
    # seed 1's first frame-search pass: 51 calls, 221 rounds and 238,182 nodes
    # with one-panel starts and halvings only; 55, 141 and 266,448 with a
    # Taylor ladder near 0; 51, 137 and 180,054 with a log panel and a growth
    # bound at the far end; 54, 133 and 128,562 with the far rule, whose
    # tighter bars take two N = 2 zooms three levels further (one call each)
    counts = _first_pass(monkeypatch, "frame-search", 1)
    assert counts["calls"] <= 54 and counts["rounds"] <= 135 and counts["nodes"] <= 135_000


def test_constants_pass_counts_stay_under_ceilings(monkeypatch):
    # seed 1's first constants pass: 68 _iso_arrays calls (every c_iso and c_N^+
    # pass, iso_stack's too) over 368 gammas and 122 evaluations inside
    # _bracketed_root (seeds 2 and 3: 68/368/123 and 68/368/125)
    counts = {"calls": 0, "gammas": 0, "root_evals": 0}
    stack, root = cn._iso_arrays, cn._bracketed_root

    def counted_stack(gammas, *args):
        counts["calls"] += 1
        counts["gammas"] += len(gammas)
        return stack(gammas, *args)

    def counted_root(*args, **kwargs):
        result = root(*args, **kwargs)
        counts["root_evals"] += result.iterations  # its own evaluations of fn
        return result

    monkeypatch.setattr(cn, "_iso_arrays", counted_stack)
    monkeypatch.setattr(cn, "_bracketed_root", counted_root)
    _run_first_pass(monkeypatch, "constants", 1)
    assert counts["calls"] <= 70 and counts["gammas"] <= 380 and counts["root_evals"] <= 130


def _mp_tail_section(u, x, xi):
    """t -> u(x + t*xi) for a ``HalfSpacePowerTail`` in mpmath, from its float cap."""
    g = u.radial
    j, power, cap = mpmath.mpf(g.junction_r2), mpmath.mpf(g.p), [mpmath.mpf(c) for c in g.cap]
    a, b = [mpmath.mpf(float(c)) for c in x], [mpmath.mpf(float(c)) for c in xi]
    z = a[:-1] + [a[-1] + mpmath.mpf(u.shift)]
    r0, r1, r2 = mpmath.fdot(z, z), 2 * mpmath.fdot(z, b), mpmath.fdot(b, b)

    def f(t):
        if a[-1] + t * b[-1] <= 0:
            return mpmath.mpf(0)
        r = r0 + t * (r1 + t * r2)
        if r > j:
            return r**power
        d = r - j
        return cap[0] + d * (cap[1] + d * (cap[2] + d * cap[3]))
    return f


def _mp_directional(f, s, cuts):
    """integral_0^inf (f(t) + f(-t) - 2f(0)) t^{-1-2s} dt in mpmath, ``cuts`` the
    section's breakpoint radii: below t0 = 1e-4 the pair's t^2 and t^4 Taylor
    terms, up to the first cut in w = log t, between the cuts in t, and beyond
    twice the last cut in w again, with -2f(0) integrated in closed form."""
    sm = mpmath.mpf(s)
    e = 2 - 2 * sm
    f0 = f(mpmath.mpf(0))

    def pair(t):
        return f(t) + f(-t) - 2 * f0

    t0 = mpmath.mpf("1e-4")
    near = (mpmath.diff(pair, 0, 2) / 2 * t0**e / e
            + mpmath.diff(pair, 0, 4) / 24 * t0 ** (e + 2) / (e + 2))
    h = min(cuts[0] / 2, mpmath.mpf(0.5)) if cuts else mpmath.mpf(0.5)
    near += mpmath.quad(lambda w: pair(mpmath.exp(w)) * mpmath.exp(-2 * sm * w),
                        [mpmath.log(t0), mpmath.log(h)])
    end = 2 * cuts[-1] + 1 if cuts else mpmath.mpf(2)
    core = mpmath.quad(lambda t: pair(t) / t ** (1 + 2 * sm), [h] + cuts + [end])
    far = mpmath.quad(lambda w: (f(mpmath.exp(w)) + f(-mpmath.exp(w))) * mpmath.exp(-2 * sm * w),
                      mpmath.linspace(mpmath.log(end), mpmath.log(end) + 40, 5))
    return near + core + far - f0 * end ** (-2 * sm) / sm


def _mp_frame_sum(u, x, frame, s):
    total = 0
    with mpmath.workdps(30):
        for xi in frame:
            cuts = sorted({mpmath.mpf(abs(float(t)))
                           for t in u.breakpoints(pr.Rows.through(x[None], xi[None]))[0]
                           if math.isfinite(t)})
            total += _mp_directional(_mp_tail_section(u, x, xi), s, cuts)
    return cn.normalizing_constant(s) * float(total)


@pytest.mark.parametrize("s", [0.51, 0.54])
def test_t49_2_frame_sums_match_mpmath(s):
    # the t49-2 suite's frame sums at N = 4 against 30-digit mpmath; stopping
    # each Taylor ladder on its plain self-estimate missed the point at
    # |x| = 2.53 by 12x (s = 0.51) and 20x (s = 0.54) its bar
    N = 4
    p = 1.0 + 2.0 * s / cn.find_gamma_plus(N, s).root + 0.2
    u, R = pr.HalfSpacePowerTail(2.0 * s / (p - 1.0)), math.sqrt(N / (N - 1.0))
    points = ([vf._on_axis(N, 2.0 * math.sqrt(N))]
              + vf._upper_points(N, np.geomspace(1.05 * R, 20.0 * R, 5), 7))
    for x, r in zip(points, op.row_sums(u, op.householder_rows(np.array(points)), s, TOL)):
        assert abs(r.value - _mp_frame_sum(u, x, _householder_matrix(x), s)) <= r.abs_error_estimate


@pytest.mark.parametrize("s", [0.95, 0.99])
def test_finite_difference_sections_match_mpmath(s):
    # the half-space tail has no d2_along: its second derivatives come from
    # finite differences, whose error the near piece carries with a weight of
    # order h^{2-2s}/(2-2s), 7-50 at these s; with the differences extrapolated
    # once, these rows missed 30-digit mpmath by 5-7x their bars at s = 0.95
    u = pr.HalfSpacePowerTail(0.7, shift=0.8)
    for N in (2, 3):
        rng = np.random.default_rng(round(1000 * s) + N)
        x = np.r_[rng.uniform(-1.0, 1.0, N - 1), rng.uniform(0.2, 2.0)]
        xi = rng.standard_normal(N)
        xi /= np.linalg.norm(xi)
        r = op.directional(u, x, xi, s, TOL)
        assert abs(r.value - _mp_frame_sum(u, x, xi[None], s)) <= r.abs_error_estimate


def test_psi_orthogonal_rows_match_mpmath():
    # far out, psi's rows orthogonal to x stay outside its cap, where its
    # parts are D_N of power tails and d2 is their closed form
    # (``PsiField.d2_along``); the C^2 window is capped at 1 while psi varies
    # on the scale |x|, and every row must meet 30-digit mpmath within its bar
    k, s = 2, 0.97
    psi = pr.make_psi("growth", k, s)
    tails = [(mpmath.mpf(c), mpmath.mpf(e)) for c, e in (v._tail(1) for v in psi.profiles)]
    radii, angles = np.geomspace(2.0, 3000.0, 10)[6:], np.linspace(0.25, 1.45, 3)
    xs = np.zeros((len(radii) * len(angles), k + 1))
    xs[:, 0] = np.outer(radii, np.cos(angles)).ravel()
    xs[:, -1] = np.outer(radii, np.sin(angles)).ravel()
    for x in xs:
        frame = _completion_matrix(x, k)
        for xi, r in zip(frame[1:], op.row_sums(psi, op._fan_rows(x, frame[1:, None]), s,
                                                Tolerance(1e-12, 1e-11))):
            with mpmath.workdps(30):
                a, b = [mpmath.mpf(float(c)) for c in x], [mpmath.mpf(float(c)) for c in xi]

                def f(t, a=a, b=b):
                    r2 = mpmath.fdot(a, a) + t * (2 * mpmath.fdot(a, b) + t * mpmath.fdot(b, b))
                    y_n = a[-1] + t * b[-1]
                    return -sum(2 * y_n * c * r2**e for c, e in tails) / psi.gamma_lead

                want = cn.normalizing_constant(s) * float(_mp_directional(f, s, []))
            assert abs(r.value - want) <= r.abs_error_estimate


def _mp_psi_section(psi, x, xi):
    """t -> psi(x + t*xi) in mpmath, each part's cap from its float coefficients."""
    parts = [(mpmath.mpf(g.junction_r2), [mpmath.mpf(c) for c in g.cap],
              mpmath.mpf(g.sign), mpmath.mpf(g.p)) for g in psi.profiles]
    a, b = [mpmath.mpf(float(c)) for c in x], [mpmath.mpf(float(c)) for c in xi]
    r0, r1, r2 = mpmath.fdot(a, a), 2 * mpmath.fdot(a, b), mpmath.fdot(b, b)

    def f(t):
        r = r0 + t * (r1 + t * r2)
        acc = 0
        for j, cap, sign, power in parts:
            d = r - j
            acc += (sign * power * r ** (power - 1) if r > j
                    else cap[1] + d * (2 * cap[2] + 3 * d * cap[3]))
        return -2 * (a[-1] + t * b[-1]) * acc / psi.gamma_lead
    return f


PSI_FIELDS = {"decay": lambda s: pr.make_psi("decay", 2, s),
              "growth": lambda s: pr.make_psi("growth", 1, s),
              # the field is the same at every s; make_psi takes it at s = 1/2 only
              "halfint": lambda s: pr.PsiField("halfint", s, 0.5, 0.5)}


@pytest.mark.parametrize("kind", sorted(PSI_FIELDS))
def test_psi_d2_along_matches_mpmath(kind):
    # the second derivative of the section at t = 0 on the cap, at the
    # junction |x| = 1 (from either side: the section is C^2 there, not C^3)
    # and on the tail, against 30-digit mpmath
    psi = PSI_FIELDS[kind](0.75)
    xi = np.array([0.48, -0.6, 0.64]) / np.linalg.norm([0.48, -0.6, 0.64])
    points = {0: [0.3, -0.2, 0.5], 1: [0.0, 0.0, 1.0], -1: [0.0, 0.0, 1.0],
              2: [1.2, -0.7, 2.5], 3: [30.0, -20.0, 50.0]}
    for direction, x in points.items():
        x = np.array(x)
        d2 = psi.d2_along(pr.Rows.through(x[None], xi[None]))[0]
        with mpmath.workdps(30):
            # at the junction a central difference would straddle the kink
            want = float(mpmath.diff(_mp_psi_section(psi, x, xi), 0, 2,
                                     direction=direction if abs(direction) == 1 else 0))
        assert d2 == pytest.approx(want, rel=1e-12, abs=1e-14), (x, direction)


@pytest.mark.parametrize("kind,s", [(kind, s) for kind in ("decay", "halfint")
                                    for s in (0.05, 0.5, 0.95)]
                         + [("growth", s) for s in (0.55, 0.75, 0.97)])
def test_psi_orthogonal_section_matches_mpmath_and_engine(kind, s):
    # along any xi orthogonal to x with |x| >= 1 the section stays on psi's
    # power tails, so its integral is a closed form; it meets 30-digit
    # mpmath within its bar, and the engine within both bars
    psi = PSI_FIELDS[kind](s)
    for r in (1.0, 2.0, 3000.0):
        x = r * np.array([0.6, 0.0, 0.8])
        value, bar = (float(a[0]) for a in psi.orthogonal_section(x[None], s))
        frame = _completion_matrix(x, 3)
        with mpmath.workdps(30):
            want = cn.normalizing_constant(s) * float(
                _mp_directional(_mp_psi_section(psi, x, frame[1]), s, []))
        assert abs(value - want) <= bar, (r, value, want, bar)
        for row in op.row_sums(psi, op._fan_rows(x, frame[1:, None]), s, Tolerance(1e-12, 1e-11)):
            assert abs(row.value - value) <= row.abs_error_estimate + bar, (r, row, value)


@pytest.mark.parametrize("kind,s", [("halfint", 0.95), ("decay", 0.95), ("growth", 0.97)])
def test_rows_in_a_narrow_window_carry_their_pairs_rounding(kind, s):
    # rows orthogonal to a point on psi's cap sphere: at s near 1 the kernel
    # magnifies the rounding of f(t) + f(-t) - 2u(x) near t = 0, which the
    # quadratures' estimates do not see; when psi's window was clipped to
    # 0.02 there, without the rounding floor these rows missed the closed
    # form by up to 4.7x their bars, and with |x + t xi|^2 summed component
    # by component a row at |x| = 1 + 1e-9 (growth, s = 0.97) missed by 2.3x
    psi = PSI_FIELDS[kind](s)
    rng = np.random.default_rng(0)
    for r in (1.0, 1.0 + 1e-9):
        for _ in range(6):
            v = rng.standard_normal(3)
            v[-1] = abs(v[-1]) + 0.2
            x = r * v / np.linalg.norm(v)
            x *= max(1.0, 1.0 / float(np.linalg.norm(x)))  # not inside the cap
            value, bar = (float(a[0]) for a in psi.orthogonal_section(x[None], s))
            frame = _completion_matrix(x, 3)
            for row in op.row_sums(psi, op._fan_rows(x, frame[1:, None]), s,
                                   Tolerance(1e-12, 1e-11)):
                assert abs(row.value - value) <= row.abs_error_estimate + bar, (x, row, value)


def test_a_junction_sphere_grazed_by_rounding_is_touched():
    # a row orthogonal to a point on psi's junction sphere whose d^2 rounds
    # just below 1 crossed it at t = +-1e-8: the window shrank to those
    # breakpoints and the row cost ~60,000 evaluations, against ~2,000 as a
    # tangent; the ball bump, not C^2 at its sphere, keeps such a crossing
    psi, s = PSI_FIELDS["growth"](0.7), 0.7
    rng = np.random.default_rng(1)
    for _ in range(10):
        v = rng.standard_normal(3)
        v[-1] = abs(v[-1]) + 0.2
        x = v / np.linalg.norm(v)
        directions = _completion_matrix(x, 3)[1:]
        rows = op._fan_rows(x, directions)
        grazing = (rows.d2 < 1.0) & (rows.d2 >= 1.0 - 8.0 * 2.0**-52)
        if np.any(grazing):
            break
    assert np.any(grazing), "no row of the draws grazes the sphere"
    assert np.all(np.isinf(psi.breakpoints(rows)))
    assert np.all(np.isinf(pr.make_v_gamma(0.4).breakpoints(rows)))
    assert np.all(np.isfinite(BallBump(1.0, 0.5).breakpoints(rows)[grazing]))
    for row in op.row_sums(psi, op._fan_rows(x, directions[:, None]), s, Tolerance(1e-13, 1e-12)):
        assert row.n_evals < 10_000
    # a line that dips in by more than the rounding of d^2 crosses
    deeper = pr.Rows(np.zeros(1), np.array([1.0 - 1e-12]), np.ones(1), np.zeros(1))
    assert np.all(np.isfinite(pr.make_v_gamma(0.4).breakpoints(deeper)))


@pytest.mark.parametrize("kind,s", [("decay", 0.5), ("halfint", 0.5), ("growth", 0.7),
                                    ("growth", 0.97)])
def test_psi_rows_tangent_to_the_junction_sphere_meet_mpmath(kind, s):
    # the section along a tangent to |x| = 1 is 1 + t^2 in |y|^2, on the power
    # tails and analytic for |t| < 1: psi is C^2 everywhere and the row crosses
    # no junction, so its window is 1 and its near piece's bar can shrink far
    # below the request; a window clipped to 0.02 there left bars of up to 5.7e-11
    psi = PSI_FIELDS[kind](s)
    x, xi = np.array([0.6, 0.0, 0.8]), np.array([0.8, 0.0, -0.6])
    r = op.directional(psi, x, xi, s, Tolerance(1e-13, 1e-12))
    with mpmath.workdps(30):
        want = cn.normalizing_constant(s) * float(_mp_directional(_mp_psi_section(psi, x, xi),
                                                                  s, []))
    assert abs(r.value - want) <= r.abs_error_estimate <= 1e-13, (r, want)


def test_psi_orthogonal_section_refuses_points_inside_the_cap():
    psi = pr.make_psi("decay", 2, 0.5)
    with pytest.raises(cn.DomainError, match="orthogonal sections need"):
        psi.orthogonal_section(np.array([[2.0, 0.0, 1.0], [0.5, 0.0, 0.5]]), 0.5)


@pytest.mark.parametrize("kind,s", [("decay", 0.5), ("growth", 0.97), ("halfint", 0.5)])
def test_psi_radial_rows_scale_with_the_angle(kind, s):
    # psi = y_N phi(|y|^2): the section at r(cos a e_1 + sin a e_N) along
    # xhat is sin a times the one through r e_N along e_N, so the engine's
    # rows agree within both bars
    psi, tol = PSI_FIELDS[kind](s), Tolerance(1e-12, 1e-11)
    for r in (2.0, 50.0, 3000.0):
        axis = op.directional(psi, vf._on_axis(3, r), vf._on_axis(3, 1.0), s, tol)
        for a in (0.25, 0.85, 1.45):
            x = r * np.array([math.cos(a), 0.0, math.sin(a)])
            row = op.directional(psi, x, x / r, s, tol)
            assert (abs(row.value - math.sin(a) * axis.value)
                    <= row.abs_error_estimate + math.sin(a) * axis.abs_error_estimate), (r, a)


def _check_psi_decay_k3_far_claims(s):
    """psi decay k = 3 passes at ``s`` from r = 3000 on, and its three claims
    there lie within their bars of 40-digit mpmath frame sums."""
    k = 3
    r = vf.verify_psi_subsolution("decay", k, s)
    assert r.verdict == "pass" and r.extra["empirical_R0"] == 3000.0
    psi = pr.make_psi("decay", k, s)
    far = [c for c in r.residuals if math.hypot(*c.point) > 2999.0]
    assert len(far) == 3
    for c in far:
        x = np.array(c.point)
        nx = float(np.linalg.norm(x))
        frame = _completion_matrix(x, k)
        with mpmath.workdps(40):
            cuts = [mpmath.mpf(nx) - 1, mpmath.mpf(nx) + 1]  # the junction crossings
            total = _mp_directional(_mp_psi_section(psi, x, frame[0]), s, cuts)
            # the k - 1 orthogonal sections are equal
            total += (k - 1) * _mp_directional(_mp_psi_section(psi, x, frame[1]), s, [])
        bound = r.params["bound_constant"] * x[-1] * nx ** -(psi.gamma_second + 2.0 * s + 2.0)
        want = bound - cn.normalizing_constant(s) * float(total)
        assert want < 0.0 and abs(c.residual - want) <= c.error, (c, want)


def test_psi_decay_k3_passes_from_the_last_radius():
    # with one radial row per radius and the orthogonal rows in closed form,
    # the claims at r = 3000 resolve: their bars shrink with sin a
    _check_psi_decay_k3_far_claims(0.95)


def test_psi_decay_k3_passes_at_s_0_96():
    # psi asks each radius for 1e-4 of its bound over sin a, with no fixed
    # floor: under a 1e-12 floor the r = 3000 bars (~2e-15) stood above the
    # residuals (~-5e-16) at s = 0.96, and the item was inconclusive
    _check_psi_decay_k3_far_claims(0.96)


@pytest.mark.parametrize("N,s,gamma", [(3, 0.5, 0.6), (2, 0.07, 0.05), (4, 0.3, 0.9)])
def test_halfspace_tail_frame_sum_scales_along_a_ray(N, s, gamma):
    # outside the critical ball R = sqrt(N/(N-1)) the Householder frame's
    # sections stay at radius >= 1.05, where the tail is |x|^-gamma, so the
    # frame sum is homogeneous of degree -gamma-2s along a ray
    u, R = pr.HalfSpacePowerTail(gamma), math.sqrt(N / (N - 1.0))
    xhat = np.linspace(-0.5, 1.0, N) / np.linalg.norm(np.linspace(-0.5, 1.0, N))
    scaled = []
    for r in (1.05 * R, 10.0, 100.0, 1000.0):
        scale = r ** (gamma + 2.0 * s)
        fs = op.row_sums(u, op.householder_rows(r * xhat)[None], s,
                         Tolerance(1e-10 / scale, 1e-10))[0]
        scaled.append((fs.value * scale, fs.abs_error_estimate * scale))
    (first, first_bar), *rest = scaled
    assert first < 0.0
    for value, bar in rest:
        assert abs(value - first) <= bar + first_bar


# --- the bump train: near bumps by quadrature, the rest in closed form -------

def test_bump_train_section_integrates_only_its_near_bumps():
    # the e_N section through the first bump at s = 0.06: the infinite train
    # integrates that bump alone, the truncated one all 800 edges of its 400
    # bumps (~240k evaluations)
    s = 0.06
    eps = vf.epsilon_threshold(s, 1.5)
    x, e_n = np.array([0.0, eps]), np.array([0.0, 1.0])
    r = op.directional(pr.BumpTrain(eps, s), x, e_n, s, TOL)
    full = op.directional(_TruncatedTrain(eps, s, 400), x, e_n, s, TOL)
    assert r.n_evals <= 2_000
    assert abs(r.value - full.value) <= r.abs_error_estimate + full.abs_error_estimate
    # no truncation in the bar: the quadrature's tolerance and the rounding
    assert r.abs_error_estimate <= TOL.abs_tol


@pytest.mark.parametrize("s", [0.05, 0.3, 0.5, 0.9, 0.95, 0.97, 0.99])
def test_bump_train_matches_closed_form_inside_a_bump(s):
    # (-Delta)^s (eps^2 - z^2)_+^s = Gamma(1+2s) for |z| < eps (Dyda 2012), so
    # at a point inside a bump with no other bump near, the directional value
    # is -Gamma(1+2s) |xi_N|^{2s} plus the far part
    Cs = cn.normalizing_constant(s)
    for eps in (0.01, 0.2, 0.3):
        u = pr.BumpTrain(eps, s)
        for y in (eps, 3.0 + 0.5 * eps, 5.0 + 1.9 * eps, 0.05 * eps):
            for xi in (np.array([0.0, 1.0]), np.array([0.6, 0.8])):
                x = np.array([0.3, y])
                r = op.directional(u, x, xi, s, TOL)
                exact = (-math.gamma(1.0 + 2.0 * s) * xi[-1] ** (2.0 * s)
                         + Cs * float(u.far_part(pr.Rows.through(x, xi), s)[0]))
                assert abs(r.value - exact) <= r.abs_error_estimate


@pytest.mark.parametrize("s", [0.05, 0.5, 0.95])
def test_bump_train_matches_truncated_train(s):
    eps, tilt = 0.2, 0.6
    x = np.array([0.0, eps])
    u = pr.BumpTrain(eps, s)
    bars, values = [], []
    for xi in (np.array([0.0, 1.0]), np.array([0.8, tilt])):
        r = op.directional(u, x, xi, s, TOL)
        ref = op.directional(_TruncatedTrain(eps, s, 6), x, xi, s, TOL)
        assert abs(r.value - ref.value) <= r.abs_error_estimate + ref.abs_error_estimate
        # the far part's error is its rounding: no bump is left out
        far, far_err = u.far_part(pr.Rows.through(x, xi), s)
        assert 0.0 < far_err <= 1e-13 * far
        values.append(r.value)
        bars.append(r.abs_error_estimate)
    # the train depends on x_N alone, so the tilted row is the e_N one times
    # tilt^{2s}, its far part included
    scale = tilt ** (2.0 * s)
    assert abs(values[1] - scale * values[0]) <= bars[1] + scale * bars[0]
