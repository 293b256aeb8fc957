"""Barrier/supersolution constructions: invariants, defaults, serialization."""

import math

import numpy as np
import pytest

from fractrunc import constants as cn
from fractrunc import operators as op
from fractrunc import profiles as pr
from fractrunc import verify as vf
from fractrunc.quad import Tolerance


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


def test_d2_along_matches_finite_difference():
    w = pr.make_w_gamma(0.5)
    x = np.array([0.5, 2.0])
    xi = np.array([0.6, 0.8])
    h = 1e-5
    fd = (w(x + h * xi) + w(x - h * xi) - 2.0 * w(x)) / h**2
    assert w.d2_along(x, xi) == pytest.approx(fd, rel=1e-4)


def test_partial_derivative_field():
    v = pr.make_v_gamma(0.5)
    d = v.partial()
    x = np.array([0.3, 2.0])
    h = 1e-6
    fd = (v(x + np.array([0.0, h])) - v(x - np.array([0.0, h]))) / (2.0 * h)
    assert d(x) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("kind,k,s", [("decay", 2, 0.5), ("halfint", 1, 0.5),
                                      ("growth", 1, 0.75)])
def test_make_psi_defaults(kind, k, s):
    psi = pr.make_psi(kind, k, s)
    assert psi.gamma_lead > 0.0
    x = np.array([0.0] * max(k, 2) + [5.0])
    assert np.isfinite(psi(x))


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


def test_make_psi_guards():
    with pytest.raises(pr.ExponentOutOfRange):
        pr.make_psi("halfint", 2, 0.5)
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
    # 1-periodic structure within the window
    assert u(center + np.array([0.0, 3.0])) == pytest.approx(u(center),
                                                             rel=1e-12)
    assert u.extra_abs_error(np.array([0.0, 1.0])) > 0.0
    assert u.extra_abs_error(np.array([0.0, 1.0])) < 1e-2


def test_bump_train_window():
    # only bumps 0 .. window-1 are kept, on the whole line and on arrays
    eps, s = 0.2, 0.5
    u = pr.BumpTrain(eps, s, window=3)
    line = u.line(np.array([0.0, 0.0]), np.array([0.0, 1.0]))
    values = line(np.array([-1.0 + eps, eps, 2.0 + eps, 3.0 + eps, 7.0 + eps]))
    assert values.tolist() == [0.0, eps ** (2.0 * s), eps ** (2.0 * s), 0.0, 0.0]


def test_bump_train_breakpoints():
    u = pr.BumpTrain(0.2, 0.5, window=10)
    bps = u.breakpoints(np.array([0.0, 0.2]), np.array([0.0, 1.0]))
    assert any(abs(b - 0.2) < 1e-12 for b in bps)  # right edge of bump 0
    assert u.breakpoints(np.array([0.0, 0.2]), np.array([1.0, 0.0])) == []


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
    u = pr.PowerProfile(0.5, 2.0)
    v = pr.power_transform(u, -3.0, -5.0)
    tp = pr.TransformParams(-3.0, -5.0)
    w = pr.PowerTransformField(u, tp)
    assert isinstance(v, pr.PowerProfile)
    for t in (0.5, 1.0, 2.0):
        x = np.array([0.0, t])
        assert v(x) == pytest.approx(w(x), rel=1e-12)


def test_min_field_crossings():
    a = pr.PowerProfile(2.0, 1.0)   # x_N^2
    b = pr.PowerProfile(1.0, 4.0)   # 4 x_N
    m = pr.MinField(a, b, 1.0)
    x = np.array([0.0, 1.0])
    assert m(x) == pytest.approx(1.0)
    assert m(np.array([0.0, 5.0])) == pytest.approx(20.0)
    bps = m.breakpoints(x, np.array([0.0, 1.0]))
    assert any(abs(t - 3.0) < 1e-6 for t in bps)  # min switches at x_N = 4


def test_min_field_crossings_ignore_common_zeros():
    # both fields vanish for x_N <= 0: their difference is zero there, but
    # changes sign only once along this section
    m = pr.MinField(pr.HalfSpacePowerTail(0.7, shift=0.8), pr.PowerProfile(0.25, 0.5), 0.3)
    x, xi = np.array([0.3, 0.2, 1.5]), np.array([0.48, 0.6, 0.64])
    assert len(m._crossings(x, xi)) <= 3
    r = op.directional(m, x, xi, 0.5)
    # value and error bar computed with every zero node as a breakpoint
    old_value, old_error = -0.15797872399512658, 1.248418382275979e-11
    assert abs(r.value - old_value) <= r.abs_error_estimate + old_error


def test_pointwise_values_match_closed_forms():
    y = np.array([0.3, -0.4, 1.1])
    tail = pr.HalfSpacePowerTail(0.7, shift=0.8)
    shifted = float(np.linalg.norm(y + np.array([0.0, 0.0, 0.8])))  # beyond the cap
    assert tail(y) == pytest.approx(shifted ** -0.7, rel=1e-14)
    m = pr.MinField(tail, pr.PowerProfile(0.25, 0.5), 0.3)
    assert m(y) == pytest.approx(0.3 * min(shifted ** -0.7, 0.5 * 1.1 ** 0.25),
                                 rel=1e-14)
    ball = vf._BallBump(np.array([0.0, 0.0, 0.5]), 1.0, 0.5)
    assert ball(y) == pytest.approx((1.0 - 0.61) ** 0.5, rel=1e-14)
    assert ball(np.array([0.0, 0.0, -1.0])) == 0.0


def _unit(rng, N):
    v = rng.standard_normal(N)
    return v / np.linalg.norm(v)


# every field kind of the package, as a function of the dimension N
LINE_FIELDS = {
    "radial_decay": lambda N, rng: pr.make_w_gamma(0.5),
    "radial_growth": lambda N, rng: pr.make_v_minus_gamma(0.3, 0.75),
    "partial_n": lambda N, rng: pr.make_v_gamma(0.4).partial(),
    "psi_decay": lambda N, rng: pr.make_psi("decay", 2, 0.5),
    "psi_halfint": lambda N, rng: pr.make_psi("halfint", 1, 0.5),
    "psi_growth": lambda N, rng: pr.make_psi("growth", 1, 0.75),
    "bump_train": lambda N, rng: pr.BumpTrain(0.2, 0.5, window=6),
    "halfspace_power_tail": lambda N, rng: pr.HalfSpacePowerTail(0.7, shift=0.8),
    "singular_power": lambda N, rng: pr.PowerProfile(0.25, 3.0),
    "min_composition": lambda N, rng: pr.MinField(
        pr.HalfSpacePowerTail(0.7, shift=0.8), pr.PowerProfile(0.25, 0.5), 0.3),
    "power_transform": lambda N, rng: pr.PowerTransformField(
        pr.PowerProfile(0.4, 2.5), pr.TransformParams(-3.0, -5.0)),
    "ball_bump": lambda N, rng: vf._BallBump(
        np.r_[np.zeros(N - 1), -0.5], 1.5, 0.5),
}


@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("kind", sorted(LINE_FIELDS))
def test_line_matches_pointwise_evaluation(kind, N):
    rng = np.random.default_rng(N)
    fan_rng = np.random.default_rng(100 + N)
    u = LINE_FIELDS[kind](N, rng)
    for _ in range(4):
        x = rng.uniform(-1.0, 3.0, N)
        xi = _unit(rng, N)
        line = u.line(x, xi)
        ts = [0.0, *rng.uniform(-4.0, 4.0, 6)]
        bps = u.breakpoints(x, xi)
        for b in bps:
            h = 1e-7 * max(1.0, abs(b))
            ts += [b - h, b + h]
        for t in ts:
            assert line(t) == pytest.approx(u(x + t * xi), rel=1e-15, abs=1e-300)
        # the same nodes and every breakpoint as one 2-D array: one value per
        # node, each the node's value alone (numpy's vector pow may differ
        # from its scalar pow in the last bit)
        nodes = np.array(ts + bps)
        values = line(nodes.reshape(-1, 1))
        assert values.shape == (nodes.size, 1)
        assert np.all(np.isfinite(values))
        assert values[:len(ts), 0] == pytest.approx([u(x + t * xi) for t in ts],
                                                    rel=1e-15, abs=1e-300)
        assert values[:, 0] == pytest.approx([float(line(t)) for t in nodes],
                                             rel=1e-15, abs=1e-300)
        # a fan of directions through x, one row of nodes per direction:
        # each row equals that direction's own line
        fan = np.array([xi] + [_unit(fan_rng, N) for _ in range(3)])
        rows = fan_rng.uniform(-4.0, 4.0, (len(fan), 9))
        fan_values = u.line(x, fan[:, None, :])(rows)
        assert fan_values.shape == rows.shape
        for xi_row, t_row, got in zip(fan, rows, fan_values):
            assert got == pytest.approx(u.line(x, xi_row)(t_row), rel=1e-15, abs=1e-300)


def test_power_transform_line_rejects_negative_base():
    u = pr.PowerTransformField(pr.make_v_minus_gamma(0.3, 0.75),
                               pr.TransformParams(-3.0, -5.0))
    line = u.line(np.array([0.0, 2.0]), np.array([0.6, 0.8]))
    with pytest.raises(ValueError, match="nonnegative base"):
        line(0.5)


@pytest.mark.parametrize("u,x,s", [
    (pr.make_w_gamma(0.5), np.array([0.3, 1.2, 0.8]), 0.4),
    (pr.make_v_minus_gamma(0.3, 0.75), np.array([1.5, 0.5]), 0.75),
    (pr.make_v_gamma(0.6), np.array([0.2, 0.3, 0.4, 2.0]), 0.3),
])
def test_radial_search_objective_on_arrays(u, x, s):
    # the objective on a stack of frames equals, frame by frame, the sum of
    # the radial spline over the frame's vectors
    tol = Tolerance(1e-7, 1e-6)
    spline = op._radial_spline(u, x, s, tol)
    xhat = x / np.linalg.norm(x)
    rng = np.random.default_rng(5)
    for k in range(1, x.size + 1):
        objective = op._search_objective(u, x, s, k, tol)
        frames = np.array([op.random_frame(x.size, k, rng).vectors for _ in range(50)])
        expected = [sum(float(spline(min(abs(float(v @ xhat)), 1.0))) for v in f)
                    for f in frames]
        assert objective(frames).tolist() == pytest.approx(expected, rel=1e-14, abs=1e-300)
