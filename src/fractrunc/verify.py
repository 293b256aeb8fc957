"""Numerical certification of the constructed inequalities.

Every verifier samples points, computes residuals with error estimates, and
issues a verdict: ``pass`` when every claim holds even under the pessimistic
reading of its error bar, ``fail`` when some claim is violated even under
the optimistic reading, and ``inconclusive`` when an error bar straddles the
boundary.

All inequality checks are one-sided frame bounds: no verdict ever asserts a
value *for* an extremal operator, only a bound certified through one chosen
frame, which is exactly what the underlying constructions provide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import constants as cn
from . import operators as op
from . import profiles as pr
from .quad import QuadResult, Tolerance

__all__ = [
    "VerificationReport",
    "NotFound",
    "GeometryViolation",
    "verify_power_identity",
    "verify_bump_train",
    "epsilon_threshold",
    "verify_T49_2",
    "verify_psi_subsolution",
    "verify_singular_supersolution",
    "verify_avoidance_example",
    "verify_transform",
]


class NotFound(RuntimeError):
    """A numeric search produced no admissible value."""


class GeometryViolation(ValueError):
    """Geometric preconditions (e.g. ball position) fail."""


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class ClaimResult:
    point: list[float]
    claim: str
    residual: float
    error: float
    kind: str  # "le": residual <= 0; "eq": residual == 0 within error

    def status(self) -> str:
        if self.kind == "eq":
            tol = max(self.error, 1e-12)
            return "pass" if abs(self.residual) <= tol else "fail"
        if self.residual + self.error <= 0.0:
            return "pass"
        if self.residual - self.error > 0.0:
            return "fail"
        return "inconclusive"


@dataclass
class VerificationReport:
    construction: str
    params: dict
    points: list[list[float]]
    residuals: list[ClaimResult]
    max_violation: float
    verdict: str
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "construction": self.construction,
            "params": self.params,
            "points": self.points,
            "residuals": [
                {"point": c.point, "claim": c.claim, "value": c.residual,
                 "error_estimate": c.error, "kind": c.kind, "status": c.status()}
                for c in self.residuals
            ],
            "max_violation": self.max_violation,
            "verdict": self.verdict,
            **({"extra": self.extra} if self.extra else {}),
        }


def _finish(construction: str, params: dict, claims: list[ClaimResult],
            extra: Optional[dict] = None) -> VerificationReport:
    """Aggregate claims into a report."""
    statuses = [c.status() for c in claims]
    if any(s == "fail" for s in statuses):
        verdict = "fail"
    elif any(s == "inconclusive" for s in statuses):
        verdict = "inconclusive"
    else:
        verdict = "pass"
    max_violation = max((c.residual for c in claims), default=-math.inf)
    points = sorted({tuple(c.point) for c in claims})
    return VerificationReport(construction, params, [list(p) for p in points],
                              claims, max_violation, verdict, extra or {})


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def _on_axis(N: int, t: float) -> np.ndarray:
    """The point t*e_N of R^N."""
    x = np.zeros(N)
    x[-1] = t
    return x


def _upper_points(N: int, radii: Sequence[float], seed: int) -> list[np.ndarray]:
    """One point of the upper half-space at each radius, in a random direction
    from ``seed`` whose last component is lifted by 0.2 before normalising."""
    rng = np.random.default_rng(seed)
    points = []
    for r in radii:
        v = rng.standard_normal(N)
        v[-1] = abs(v[-1]) + 0.2
        v /= np.linalg.norm(v)
        points.append(r * v)
    return points


def verify_power_identity(mu: float, s: float,
                          tol: Tolerance = Tolerance()) -> VerificationReport:
    """Directional operator of (x_N)_+^mu along e_N equals C_s c_{s,mu} x_N^{mu-2s}
    at x = t*e_N in R^3, t in {0.5, 1, 2}."""
    z = pr.PowerProfile(mu, 1.0)
    e_n = _on_axis(3, 1.0)
    c_val = cn.c_s_mu(mu, s)
    Cs = cn.normalizing_constant(s)

    claims: list[ClaimResult] = []
    for t in (0.5, 1.0, 2.0):
        x = _on_axis(3, t)
        r = op.directional(z, x, e_n, s, tol)
        predicted = Cs * c_val * t ** (mu - 2.0 * s)
        claims.append(ClaimResult(list(map(float, x)), "identity_residual",
                                  r.value - predicted, r.abs_error_estimate + 1e-9, "eq"))
    return _finish("power_identity", {"mu": mu, "s": s}, claims)


def epsilon_threshold(s: float, p: float) -> float:
    """Largest grid eps in (0, 1/2) making the bump-train residual bound
    nonpositive, minus a 10% safety margin."""
    if p <= 0.0 or not 0.0 < s < 1.0:
        raise ValueError("requires p > 0 and s in (0,1)")
    Cs = cn.normalizing_constant(s)
    beta = cn.beta_1ms_s(s)

    def lhs(eps: float) -> float:
        return (-Cs * beta + Cs * (1.0 - 2.0 * eps) ** (-2.0 * s) * eps ** (2.0 * s) / s
                + eps ** (2.0 * s * p))

    grid = np.geomspace(1e-6, 0.499, 600)
    admissible = [e for e in grid if lhs(e) <= 0.0]
    if not admissible:
        raise NotFound(
            f"bump-train inequality fails for all eps >= 1e-6 at s={s}, p={p}")
    return 0.9 * max(admissible)


def verify_bump_train(s: float, p: float, eps: Optional[float] = None,
                      k: int = 1, N: int = 2, window: int = 400,
                      tol: Tolerance = Tolerance()) -> VerificationReport:
    """Certify the bump-train supersolution one bump at a time.

    Case-1 points lie inside bump supports: the e_N directional value plus
    u^p must be nonpositive, and the directional value must respect the
    explicit cross-bump bound.  Case-2 points lie in the gaps: u vanishes
    and the frame sum over {e_1..e_k} (k < N, all orthogonal to e_N)
    vanishes identically.
    """
    if not 1 <= k < N:
        raise ValueError("the construction requires k < N")
    if eps is None:
        eps = epsilon_threshold(s, p)
    u = pr.BumpTrain(eps, s, window)
    Cs = cn.normalizing_constant(s)
    bound = (-Cs * cn.beta_1ms_s(s)
             + Cs * (1.0 - 2.0 * eps) ** (-2.0 * s) * eps ** (2.0 * s) / s)
    e_n = _on_axis(N, 1.0)
    frame = op.canonical_frame(N, k)

    claims: list[ClaimResult] = []
    for t in (eps, 1.0 + eps, 3.0 + eps / 2.0, 5.0 + 1.5 * eps):
        x = _on_axis(N, t)
        r = op.directional(u, x, e_n, s, tol)
        uval = u(x)
        claims.append(ClaimResult([t], "case1_supersolution",
                                  r.value + uval**p, r.abs_error_estimate, "le"))
        claims.append(ClaimResult([t], "case1_cross_bump_bound",
                                  r.value - bound, r.abs_error_estimate, "le"))
    # gap midpoints n + eps + 1/2: bump n covers [n, n + 2*eps]
    for t in (eps + 0.5, 4.0 + eps + 0.5):
        x = _on_axis(N, t)
        uval = u(x)
        claims.append(ClaimResult([t], "case2_u_vanishes", uval, 0.0, "eq"))
        fs = op.frame_sum(u, x, frame, s, tol)
        claims.append(ClaimResult([t], "case2_frame_sum_zero",
                                  fs.value, fs.abs_error_estimate + 1e-12, "eq"))
        # along e_N the second difference of a zero-valued center is >= 0
        rn = op.directional(u, x, e_n, s, tol)
        claims.append(ClaimResult([t], "case2_directional_nonnegative",
                                  -rn.value, rn.abs_error_estimate, "le"))
    params = {"s": s, "p": p, "eps": eps, "k": k, "N": N, "window": window,
              "cross_bump_bound": bound}
    return _finish("bump_train", params, claims)


def verify_T49_2(N: int, s: float, gamma: Optional[float] = None,
                 tol: Tolerance = Tolerance()) -> VerificationReport:
    """Frame bound for the half-space power tail outside the critical ball.

    The frame has every vector at angle arccos(1/sqrt(N)) to the radial
    direction; the frame sum certifies the upper bound
    C_s c_N^+(gamma) |x|^{-gamma-2s} for the full minimal operator.  Default
    gamma: 2s/(p-1) for p = 1 + 2s/gamma_plus + 0.2.
    """
    gamma_plus = cn.find_gamma_plus(N, s).root
    if gamma is None:
        p = 1.0 + 2.0 * s / gamma_plus + 0.2
        gamma = 2.0 * s / (p - 1.0)
    R = math.sqrt(N / (N - 1.0))
    u = pr.HalfSpacePowerTail(gamma)
    Cs = cn.normalizing_constant(s)
    rhs_const = Cs * cn.c_n_plus(gamma, s, N)
    points = ([_on_axis(N, 2.0 * math.sqrt(N))]
              + _upper_points(N, np.geomspace(1.05 * R, 20.0 * R, 5), 7))

    claims: list[ClaimResult] = []
    for x in points:
        nx = float(np.linalg.norm(x))
        frame = op.householder_frame(x / nx)
        # avoidance bound: each section stays at radius >= |x|/sqrt(2)
        for xi in frame.vectors:
            min_r2 = nx * nx * (1.0 - float(x / nx @ xi) ** 2)
            claims.append(ClaimResult(list(map(float, x)), "avoidance_radius",
                                      nx * nx / 2.0 - min_r2 - 1e-9 * nx * nx,
                                      0.0, "le"))
        fs = op.frame_sum(u, x, frame, s, tol)
        rhs = rhs_const * nx ** (-gamma - 2.0 * s)
        claims.append(ClaimResult(list(map(float, x)), "frame_bound",
                                  fs.value - rhs, fs.abs_error_estimate + 1e-10, "le"))
        if gamma < gamma_plus:
            claims.append(ClaimResult(list(map(float, x)), "rhs_negative",
                                      rhs, 0.0, "le"))
    params = {"N": N, "s": s, "gamma": gamma, "gamma_plus": gamma_plus, "R": R}
    return _finish("t49_2", params, claims)


def _psi_bound_constant(kind: str, k: int, s: float, psi: pr.PsiField) -> float:
    Cs = cn.normalizing_constant(s)
    gb, g2 = psi.gamma_lead, psi.gamma_second
    if kind == "decay":
        return Cs * cn.c_k_fn(g2, s, k) * (g2 + 2.0 * s) / (2.0 * gb)
    if kind == "halfint":
        return Cs * cn.hat_c_dec(g2, s) * (g2 + 2.0 * s) / (2.0 * g2)
    if kind == "growth":
        return Cs * cn.hat_c_gro(g2, s) * (2.0 * s - g2) / (2.0 * gb)
    raise ValueError(f"unknown psi kind {kind!r}")


def verify_psi_subsolution(kind: str, k: int, s: float,
                           radii: Optional[Sequence[float]] = None,
                           tol: Tolerance = Tolerance(1e-12, 1e-11)) -> VerificationReport:
    """Frame lower bound for the subsolution candidate, with empirical onset radius.

    The claim (frame sum >= constant * x_N / |x|^{..}) holds for all radii
    beyond some onset; the verifier reports the smallest sampled radius from
    which every sampled angle passes, and the verdict reflects only radii at
    or beyond that onset.
    """
    psi = pr.make_psi(kind, k, s)
    gb, g2 = psi.gamma_lead, psi.gamma_second
    const = _psi_bound_constant(kind, k, s, psi)
    if kind == "growth":
        exponent = 2.0 * s + 2.0 - g2
    else:
        exponent = g2 + 2.0 * s + 2.0
    N = max(k + 1, 2)
    if radii is None:
        radii = np.geomspace(2.0, 3000.0, 10)
    angles = np.linspace(0.25, 1.45, 3)

    claims: list[ClaimResult] = []
    per_radius: dict[float, bool] = {}
    far_positive = True
    for r in radii:
        all_ok = True
        for phi in angles:
            x = np.zeros(N)
            x[0] = r * math.cos(phi)
            x[-1] = r * math.sin(phi)
            frame = op.completion_frame(x / np.linalg.norm(x), k)
            bound = const * float(x[-1]) * r ** (-exponent)
            # absolute tolerance tracks the shrinking bound at far radii
            tol_pt = Tolerance(abs_tol=max(abs(bound) * 1e-4, tol.abs_tol),
                               rel_tol=tol.rel_tol)
            fs = op.frame_sum(psi, x, frame, s, tol_pt)
            c = ClaimResult(list(map(float, x)), "frame_lower_bound",
                            bound - fs.value, fs.abs_error_estimate, "le")
            claims.append(c)
            if c.status() != "pass":
                all_ok = False
            if r == max(radii) and fs.value <= 0.0:
                far_positive = False
        per_radius[float(r)] = all_ok

    onset = None
    sorted_r = sorted(per_radius)
    for i, r in enumerate(sorted_r):
        if all(per_radius[q] for q in sorted_r[i:]):
            onset = r
            break
    # verdict counts only claims at radii >= onset
    if onset is None:
        # no sampled radius starts a passing run: the onset, if there is one,
        # lies beyond the samples, where nothing was checked, so the claim
        # (and the far-field sign with it) is undecided, not violated
        verdict_claims = [ClaimResult([max(sorted_r)], "onset_exists", 0.0, 1.0, "le")]
    else:
        verdict_claims = [c for c in claims
                          if float(np.linalg.norm(np.asarray(c.point))) >= onset - 1e-9]
        if not far_positive:
            verdict_claims.append(
                ClaimResult([max(sorted_r)], "far_field_positive", 1.0, 0.0, "le"))
    report = _finish("psi_subsolution",
                     {"kind": kind, "k": k, "s": s, "gamma_lead": gb,
                      "gamma_second": g2, "bound_constant": const},
                     verdict_claims,
                     extra={"empirical_R0": onset,
                            "radii": [float(r) for r in radii]})
    report.residuals = claims  # keep the full record, verdict from effective set
    return report


def verify_singular_supersolution(s: float, p: float, op_kind: str, N: int,
                                  seed: int = 42,
                                  tol: Tolerance = Tolerance()) -> VerificationReport:
    """Exact-cancellation supersolution M (x_N)_+^mu for p < -1, at x = t*e_N
    for t in {0.5, 1, 2}.

    ``ik_minus``: |I_{e_N} u + u^p| below 1e-6 pointwise (the construction
    cancels exactly).  ``in_plus``: for 100 random full frames per point, the
    frame sum plus u^p stays nonpositive via the pigeonhole direction.
    """
    if N < 2:
        raise cn.DomainError("N must be >= 2")
    u, M, mu = pr.build_singular_supersolution(s, p, op_kind, N)
    points = (0.5, 1.0, 2.0)
    claims: list[ClaimResult] = []
    if op_kind == "ik_minus":
        e_n = _on_axis(N, 1.0)
        for t in points:
            x = _on_axis(N, t)
            r = op.directional(u, x, e_n, s, tol)
            raw = r.value + u(x) ** p
            claims.append(ClaimResult([float(t)], "exact_cancellation",
                                      abs(raw) - 1e-6,
                                      r.abs_error_estimate, "le"))
    else:
        rng = np.random.default_rng(seed)
        # closed-form directional values: each section is a power of x_N
        c_val = cn.normalizing_constant(s) * cn.c_s_mu(mu, s)
        for t in points:
            x = _on_axis(N, t)
            for _ in range(100):
                frame = op.random_frame(N, N, rng)
                pigeon = float(np.max(np.abs(frame.vectors[:, -1])))
                claims.append(ClaimResult([float(t)], "pigeonhole_direction",
                                          1.0 / math.sqrt(N) - pigeon - 1e-12,
                                          0.0, "le"))
                fs = sum(abs(float(xi[-1])) ** (2.0 * s) for xi in frame.vectors)
                total = fs * M * c_val * t ** (mu - 2.0 * s)
                claims.append(ClaimResult([float(t)], "frame_supersolution",
                                          total + (M * t**mu) ** p, 1e-10, "le"))
            # spot-check one frame by quadrature
            frame = op.random_frame(N, N, rng)
            fsq = op.frame_sum(u, x, frame, s, tol)
            claims.append(ClaimResult([float(t)], "frame_supersolution_quadrature",
                                      fsq.value + u(x) ** p,
                                      fsq.abs_error_estimate, "le"))
    params = {"s": s, "p": p, "op_kind": op_kind, "N": N, "M": M, "mu": mu}
    return _finish("singular_supersolution", params, claims)


class _BallBump(pr.Field):
    """Compactly supported bump (r^2 - |x-y|^2)_+^s inside the ball B_r(y)."""

    def __init__(self, y: np.ndarray, r: float, s: float) -> None:
        self.y = np.asarray(y, float)
        self.r = r
        self.s = s
        self.growth_alpha = 0.0
        self.growth_const = r ** (2.0 * s)

    def line(self, x: np.ndarray, xi: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        rows = [(a, b, c) for (a, b), c in zip(pr._components(x, xi), self.y.tolist())]
        r2, s = float(self.r) ** 2, float(self.s)

        def at(t: np.ndarray) -> np.ndarray:
            d2 = 0.0
            for a, b, c in rows:
                v = a + t * b - c
                d2 += v * v
            arg = r2 - d2
            return np.where(arg > 0.0, np.maximum(arg, 0.0) ** s, 0.0)
        return at

    def c2_radius(self, x: np.ndarray) -> float:
        d = float(np.linalg.norm(np.asarray(x, float) - self.y))
        return max(abs(d - self.r) / 2.0, 1e-6)

    def breakpoints(self, x: np.ndarray, xi: np.ndarray) -> list[float]:
        return pr._sphere_crossings(np.asarray(x, float) - self.y,
                                    np.asarray(xi, float), self.r)


def verify_avoidance_example(N: int, s: float, r: float, y: np.ndarray,
                             tol: Tolerance = Tolerance()) -> VerificationReport:
    """Ball-avoiding frame: every section of the ball bump vanishes identically.

    The frame makes each vector see the line at distance >= |x-y|/sqrt(2)
    from the ball center, which exceeds the radius whenever y_N <= -sqrt(2)r,
    so the frame sum is exactly zero and the minimal operator is nonpositive.
    """
    if N < 2:
        raise cn.DomainError("N must be >= 2")
    if not 0.0 < r < math.inf:
        raise cn.DomainError("r must be finite and positive")
    y = np.asarray(y, float)
    if not np.all(np.isfinite(y)):
        raise cn.DomainError("y must be finite")
    if y[-1] > -math.sqrt(2.0) * r:
        raise GeometryViolation("ball center must satisfy y_N <= -sqrt(2) r")
    u = _BallBump(y, r, s)
    claims: list[ClaimResult] = []
    for x in _upper_points(N, (1.0, 2.0, 5.0), 3):
        d = x - y
        nd = float(np.linalg.norm(d))
        claims.append(ClaimResult(list(map(float, x)), "distance_exceeds",
                                  math.sqrt(2.0) * r - nd, 0.0, "le"))
        frame = op.householder_frame(d / nd)
        for xi in frame.vectors:
            min_r2 = nd * nd * (1.0 - float(d / nd @ xi) ** 2)
            claims.append(ClaimResult(list(map(float, x)), "line_avoids_ball",
                                      r * r - min_r2, 0.0, "le"))
        fs = op.frame_sum(u, x, frame, s, tol)
        claims.append(ClaimResult(list(map(float, x)), "frame_sum_zero",
                                  fs.value, fs.abs_error_estimate + 1e-15, "eq"))
    return _finish("avoidance_example", {"N": N, "s": s, "r": r, "y": list(y)},
                   claims)


def verify_transform(s: float, p: float, q: float, seed: int = 42,
                     tol: Tolerance = Tolerance()) -> VerificationReport:
    """Power-transform machinery: scalar inequality, operator inequality, closure.

    Checks the scalar bound b - a <= beta a^{(beta-1)/beta} (b^{1/beta} - a^{1/beta})
    on 10^4 randomized triples, the induced directional-operator inequality
    for the transformed ``ik_minus`` singular supersolution, and that the
    transformed family is again a supersolution of the target exponent:
    one-sided, since the transform degrades the cancellation to an inequality.
    """
    tp = pr.TransformParams(p, q)
    tp.validate()
    beta = tp.beta_exp
    rng = np.random.default_rng(seed)
    claims: list[ClaimResult] = []

    # scalar inequality on randomized triples; parameterize a = A^beta,
    # b = B^beta so every power stays within floating-point range
    n_triples = 10**4
    A = rng.uniform(1e-6, 10.0, n_triples)
    B = rng.uniform(1e-6, 10.0, n_triples)
    betas = rng.uniform(1e-3, 1.0 - 1e-6, n_triples)
    lhs = B**betas - A**betas
    rhs = betas * A ** (betas - 1.0) * (B - A)
    worst = float(np.max(lhs - rhs))
    scale = float(np.max(np.abs(rhs)) + 1.0)
    claims.append(ClaimResult([0.0], "scalar_inequality_worst",
                              worst - 1e-9 * scale, 0.0, "le"))

    base, _, _ = pr.build_singular_supersolution(s, p, "ik_minus", 2)
    v = pr.power_transform(base, p, q)
    wrapper = pr.PowerTransformField(base, tp)
    e_n = _on_axis(2, 1.0)
    for t in (0.5, 1.0, 2.0):
        x = _on_axis(2, t)
        # operator inequality: I v <= beta v^{(beta-1)/beta} I (v^{1/beta})
        lhs_q = op.directional(v, x, e_n, s, tol)
        # v^{1/beta} = alpha^{1/beta} * base
        rhs_dir = op.directional(base, x, e_n, s, tol)
        vx = v(x)
        factor = beta * vx ** ((beta - 1.0) / beta) * tp.alpha_coef ** (1.0 / beta)
        rhs_q = factor * rhs_dir.value
        claims.append(ClaimResult([float(t)], "operator_inequality",
                                  lhs_q.value - rhs_q,
                                  lhs_q.abs_error_estimate
                                  + abs(factor) * rhs_dir.abs_error_estimate,
                                  "le"))
        # closure: wrapper evaluation matches the closed-form power family
        claims.append(ClaimResult([float(t)], "family_closure_pointwise",
                                  wrapper(x) - v(x), 1e-10, "eq"))
        # transformed family stays a supersolution of the target exponent
        res = lhs_q.value + v(x) ** q
        claims.append(ClaimResult([float(t)], "target_supersolution",
                                  res, lhs_q.abs_error_estimate, "le"))
    params = {"s": s, "p": p, "q": q, "beta": beta, "alpha": tp.alpha_coef}
    return _finish("transform", params, claims)
