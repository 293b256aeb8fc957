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
        x_n, xi_n, s = np.asarray(x)[..., -1], np.asarray(xi)[..., -1], self.s
        return lambda t: np.maximum(1.0 - (x_n + t * xi_n) ** 2, 0.0) ** s

    def c2_radius(self, x):
        return np.maximum(np.abs(1.0 - np.abs(x[:, -1])) / 2.0, 1e-6)

    def breakpoints(self, x, xi):
        # where each section meets x_N = -1 and x_N = 1; a row with xi_N ~ 0 meets neither
        x_n, xi_n = x[:, -1:], xi[:, -1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (np.array([-1.0, 1.0]) - x_n) / xi_n
        return np.where(np.abs(xi_n) < 1e-14, np.inf, t)


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


def test_nan_and_zero_frames_rejected():
    # the orthonormality check is false for NaN, which it must refuse too
    for bad in (lambda: op.Frame(np.full((1, 2), np.nan)),
                lambda: op.completion_frame(np.zeros(3), 2),
                lambda: op.completion_frame(np.array([np.nan, 1.0, 0.0]), 2)):
        with pytest.raises(ValueError, match="orthonormality defect nan"):
            bad()


@pytest.mark.filterwarnings("error")
def test_zero_directions_raise_no_warning():
    # a zero direction divides by its zero norm: NaN, which Frame refuses,
    # and no RuntimeWarning under warnings-as-errors
    for bad in (lambda: op.householder_frame(np.zeros(3)),
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
    with pytest.raises(ValueError, match="finite and nonzero"):
        op.frame_sums(w, [np.array([2.0, 0.0]), x], [np.eye(2), xi[None]], 0.5, TOL)


@pytest.mark.parametrize("k,variant", [(1, "plus"), (2, "minus_full")])
def test_extremal_radial_rejects_the_origin(k, variant):
    with pytest.raises(ValueError, match="orthonormality defect nan"):
        op.extremal_radial(pr.make_w_gamma(0.5), np.zeros(2), 0.5, k, variant, TOL)


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


def test_completion_frames_are_the_stack_of_single_frames():
    # one stacked QR gives each point's own frame bit for bit; the first row
    # is xhat exactly and every frame is orthonormal to 1e-12
    rng = np.random.default_rng(8)
    for N in (2, 3, 4):
        x = rng.standard_normal((30, N)) * np.geomspace(1e-3, 3e3, 30)[:, None]
        xhat = x / np.linalg.norm(x, axis=-1, keepdims=True)
        for k in range(1, N + 1):
            frames = op.completion_frames(x, k)
            assert frames.shape == (30, k, N)
            assert np.array_equal(frames[:, 0], xhat)
            assert np.max(op._orthonormality_defects(frames)) <= 1e-12
            for frame, y in zip(frames, x):
                assert np.array_equal(frame, op.completion_frame(y, k).vectors)


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
    fans = []
    engine = op.directional_fan
    monkeypatch.setattr(op, "directional_fan", lambda *a, **kw: fans.append(1) or engine(*a, **kw))
    return fans


def test_search_rotation_costs_few_fans(monkeypatch):
    # at the package defaults (budget 1, seed 0), on the three half-space tails
    # of FROZEN_SEARCHES: three Givens sweeps made 27, 37 and 9 objective fans
    # there; one sweep and the polish must take at most 60% of that
    fans = _count_fans(monkeypatch)
    for (make, x, s, variant, _, _), before in zip(FROZEN_SEARCHES, (27, 37, 9)):
        fans.clear()
        op.extremal_search(make(), x, s, 1, variant, budget=1, seed=0)
        assert len(fans) <= 0.6 * before


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
            return np.zeros(len(x))

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

    It reads the field's own hooks, one direction at a time: each a stack of one row.
    """
    line = u.line(x, xi)

    def ev(t):
        return float(line(np.array(t)))

    u0 = ev(0.0)

    def kernel(t):
        return (ev(t) + ev(-t) - 2.0 * u0) / t ** (1.0 + 2.0 * s)

    row, row_xi = x[None], xi[None]
    discontinuities = [float(t) for t in u.breakpoints(row, row_xi)[0] if math.isfinite(t)]
    window = min([float(u.c2_radius(row)[0])] + [abs(t) for t in discontinuities])
    if hasattr(u, "d2_along"):
        d2 = float(u.d2_along(row, row_xi)[0])
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
    core_end = max(1.0, 2.0 * delta, (2.0 * bps[-1] + 1.0) if bps else 1.0)
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
    closed, closed_err = u.far_part(row, row_xi, s) if hasattr(u, "far_part") else ([0.0], [0.0])
    return Cs * (value + float(closed[0])), Cs * (err + float(closed_err[0]))


class _TruncatedTrain:
    """The bumps n < ``window`` of a ``BumpTrain``, each on the whole line of
    every section, and the bumps from ``window`` on as ``far_part``, the
    moment series of their Hurwitz sums.  A quadrature of its sections is an
    independent check of the train's split into near bumps, bumps summed one
    by one and the Hurwitz sum; rows need x_N <= window - eps."""

    def __init__(self, eps, s, window):
        self.eps, self.s, self.window = eps, s, window
        self.growth_alpha, self.growth_const = 0.0, eps ** (2.0 * s)
        starts = np.arange(window, dtype=float)
        self.edges = np.column_stack((starts, starts + 2.0 * eps)).reshape(-1)

    def line(self, x, xi):
        a, b = np.asarray(x, float)[..., -1], np.asarray(xi, float)[..., -1]
        eps, s, window = self.eps, self.s, self.window

        def at(t):
            y = a + t * b
            n = np.floor(y)
            arg = eps * eps - (y - n - eps) ** 2
            inside = (n >= 0.0) & (n < window) & (arg > 0.0)
            return np.where(inside, np.maximum(arg, 0.0) ** s, 0.0)
        return at

    def c2_radius(self, x):
        return np.maximum(np.min(np.abs(x[:, -1:] - self.edges), axis=1) / 2.0, 1e-6)

    def breakpoints(self, x, xi):
        return pr._plane_crossings(x, xi, self.edges)

    def far_part(self, x, xi, s):
        y, xi_n = np.broadcast_arrays(np.asarray(x, float)[..., -1],
                                      np.asarray(xi, float)[..., -1])
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
    # scipy integrates the train's first six bumps over the whole section
    reference = _TruncatedTrain(0.2, 0.5, 6) if kind == "bump_train" else u
    ref_value, ref_err = _reference_directional(reference, x, xi, s, TOL)
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
    # a stack of points, one per row, the first two rows and the last two
    # sharing theirs: each row matches its own call; its panels sit elsewhere
    # in the batch, so sums may round differently
    points = np.r_[x[None], x[None], np.c_[rng.uniform(-1.0, 1.0, (N + 1, N - 1)),
                                           rng.uniform(0.2, 2.0, N + 1)]]
    points[-1] = points[-2]
    stack = op.directional_fan(u, points, directions[1:], s, TOL)
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
    fan = op.directional_fan(u, x, directions, s, TOL)
    assert op.directional_fan(u, np.repeat(x[None], 5, axis=0), directions, s, TOL) == fan


def test_frame_sums():
    u, s = pr.HalfSpacePowerTail(0.7, shift=0.8), 0.5
    x, y = np.array([0.3, -0.2, 1.1]), np.array([-0.5, 0.4, 2.0])
    fx = op.householder_frame(x / np.linalg.norm(x))
    fy = op.completion_frame(y / np.linalg.norm(y), 2)
    # frame_sum is the case of one point
    assert op.frame_sum(u, x, fx, s, TOL) == op.frame_sums(u, [x], [fx.vectors], s, TOL)[0]
    # one tolerance per point: each sum matches its own call within the bars
    tols = [TOL, Tolerance(1e-6, 1e-5)]
    sums = op.frame_sums(u, [x, y], [fx.vectors, fy.vectors], s, tols)
    for r, point, frame, tol in zip(sums, (x, y), (fx, fy), tols):
        one = op.frame_sum(u, point, frame, s, tol)
        assert r.n_evals == one.n_evals
        assert abs(r.value - one.value) <= r.abs_error_estimate + one.abs_error_estimate
    assert sums[1].n_evals < op.frame_sum(u, y, fy, s, TOL).n_evals


@pytest.mark.parametrize("kind,k,s,ceiling", [("decay", 1, 0.4, 1_900),
                                               ("growth", 1, 0.7, 1_650)])
def test_far_panel_starts_clear_of_the_last_breakpoint(kind, k, s, ceiling):
    # at r = 3000 the radial section crosses psi's junction spheres at
    # t ~ -r -+ 1; a far panel starting just past them bisects deep next to
    # the kink (2,196 and 1,944 evaluations), one starting at twice the last
    # breakpoint does not (1,608 and 1,356)
    psi, phi, tol = pr.make_psi(kind, k, s), 0.85, Tolerance(1e-12, 1e-11)
    x = 3000.0 * np.array([math.cos(phi), math.sin(phi)])
    r = op.frame_sum(psi, x, op.completion_frame(x, k), s, tol)
    assert r.n_evals < ceiling
    assert r.value > 0.0 and r.abs_error_estimate <= tol.abs_tol


@pytest.mark.parametrize("N,s,gamma", [(3, 0.5, 0.6), (2, 0.07, 0.05), (4, 0.3, 0.9)])
def test_halfspace_tail_frame_sum_scales_along_a_ray(N, s, gamma):
    # outside the critical ball R = sqrt(N/(N-1)) the Householder frame's
    # sections stay at radius >= 1.05, where the tail is |x|^-gamma, so the
    # frame sum is homogeneous of degree -gamma-2s along a ray
    u, R = pr.HalfSpacePowerTail(gamma), math.sqrt(N / (N - 1.0))
    xhat = np.linspace(-0.5, 1.0, N) / np.linalg.norm(np.linspace(-0.5, 1.0, N))
    frame = op.householder_frame(xhat)
    scaled = []
    for r in (1.05 * R, 10.0, 100.0, 1000.0):
        scale = r ** (gamma + 2.0 * s)
        fs = op.frame_sum(u, r * xhat, frame, s, Tolerance(1e-10 / scale, 1e-10))
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


@pytest.mark.parametrize("s", [0.05, 0.3, 0.5, pytest.param(0.99, marks=pytest.mark.xfail(
    strict=True, reason="at s >= 0.95 the Taylor ladder's self-estimate is not a bound once "
    "the pair is rounding noise: up to 5.6x at s = 0.99, eps = 0.01"))])
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
                         + Cs * float(u.far_part(x, xi, s)[0]))
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
        far, far_err = u.far_part(x, xi, s)
        assert 0.0 < far_err <= 1e-13 * far
        values.append(r.value)
        bars.append(r.abs_error_estimate)
    # the train depends on x_N alone, so the tilted row is the e_N one times
    # tilt^{2s}, its far part included
    scale = tilt ** (2.0 * s)
    assert abs(values[1] - scale * values[0]) <= bars[1] + scale * bars[0]
