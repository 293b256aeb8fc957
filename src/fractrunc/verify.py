"""Numerical certification of the constructed inequalities.

Every verifier samples points, computes residuals with error estimates, and
issues a verdict: ``pass`` when every claim holds even under the pessimistic
reading of its error bar, ``fail`` when some claim is violated even under
the optimistic reading, and ``inconclusive`` when an error bar straddles the
boundary.

All inequality checks are one-sided frame bounds certified through one
chosen frame, which is what the underlying constructions provide, with one
exception: the singular ``in_plus`` verdict asserts I_N^+ u = V in closed
form, since every frame sums fs V, with V < 0 the e_N value and
fs = sum_i |xi_i.e_N|^{2s} >= sum_i (xi_i.e_N)^2 = 1, equal on any frame
containing e_N (``verify_singular_supersolution``).  t49-2 and avoidance
claim each point's nearest line, the least d^2 of its ``householder_rows``.

A suite integrates only the sections that decide its claims, in one
``operators.row_sums`` call per field on a ``(P, k)`` stack of rows, the
sections of its P points: the e_N row through each t*e_N, and t49-2's
Householder rows.  The bump train reads x_N alone, so its gap sections
along e_1..e_k are constant, and every avoidance line misses the bump's
support: both frame sums are exactly 0, with no quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import constants as cn
from . import operators as op
from . import profiles as pr
from .quad import Tolerance

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

# The one rounding allowance of every claim.  A residual formed from
# floating-point terms of magnitude ``scale`` (0 where it is exact) may miss
# its exact value by a few ulps of ``scale``, so with floor = _ROUNDING*scale:
#   le: pass when residual + error <= floor, fail when residual - error > floor,
#       inconclusive otherwise;
#   eq: pass when |residual| <= error + floor, fail otherwise.
_ROUNDING = 1e-9


@dataclass
class ClaimResult:
    point: list[float]
    claim: str
    residual: float
    error: float
    kind: str  # "le": residual <= 0; "eq": residual == 0 within error
    scale: float = 0.0  # magnitude of the terms the residual is formed from

    def __post_init__(self) -> None:
        self.point = np.asarray(self.point, float).ravel().tolist()

    def status(self) -> str:
        floor = _ROUNDING * self.scale
        if self.kind == "eq":
            return "pass" if abs(self.residual) <= self.error + floor else "fail"
        if self.residual + self.error <= floor:
            return "pass"
        if self.residual - self.error > floor:
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
                 "error_estimate": c.error, "kind": c.kind, "scale": c.scale,
                 "status": c.status()}
                for c in self.residuals
            ],
            "max_violation": self.max_violation,
            "verdict": self.verdict,
            **({"extra": self.extra} if self.extra else {}),
        }


def _verdict(claims: list[ClaimResult]) -> str:
    """The worst status among the claims: fail, then inconclusive, then pass."""
    statuses = {c.status() for c in claims}
    return next((v for v in ("fail", "inconclusive") if v in statuses), "pass")


def _finish(construction: str, params: dict, claims: list[ClaimResult],
            extra: Optional[dict] = None, verdict: Optional[str] = None,
            counted: Optional[list[ClaimResult]] = None) -> VerificationReport:
    """Aggregate claims into a report; its verdict (``_verdict`` unless given)
    and ``max_violation`` read ``counted``, every claim unless given."""
    counted = claims if counted is None else counted
    verdict = verdict or _verdict(counted)
    # how far the worst claim misses beyond its bar and floor: > 0 when some claim fails
    max_violation = max(((abs(c.residual) if c.kind == "eq" else c.residual)
                         - c.error - _ROUNDING * c.scale for c in counted), default=-math.inf)
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


def _axis_rows(ts: Sequence[float]) -> pr.Rows:
    """The rows through t*e_N along e_N, one point per t: shape ``(P, 1)``, by
    their projections b = x_N = t, d^2 = 0 and xi_N = 1, whatever N."""
    t = np.array(ts, float).reshape(-1, 1)
    return pr.Rows(t, np.zeros_like(t), t.copy(), np.ones_like(t))


_MAX_N = 20_000  # t49-2 integrates N rows per point: ~370 MB peak at this N (x86_64)


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
    c_val = cn.c_s_mu(mu, s)
    Cs = cn.normalizing_constant(s)

    ts = (0.5, 1.0, 2.0)
    claims: list[ClaimResult] = []
    for t, r in zip(ts, op.row_sums(z, _axis_rows(ts), s, tol)):
        predicted = Cs * c_val * t ** (mu - 2.0 * s)
        # c_{s,mu} cancels near mu = s; the terms it sums are of size C_s t^{mu-2s}
        scale = max(abs(predicted), Cs * t ** (mu - 2.0 * s))
        claims.append(ClaimResult(_on_axis(3, t), "identity_residual", r.value - predicted,
                                  r.abs_error_estimate, "eq", scale))
    return _finish("power_identity", {"mu": mu, "s": s}, claims)


def _cross_bump_bound(s: float) -> Callable[[float], float]:
    """eps -> -C_s beta(1-s, s) + C_s (1-2eps)^{-2s} eps^{2s} / s: the bound on
    the e_N directional value inside a bump, the other bumps' pull included."""
    Cs = cn.normalizing_constant(s)
    beta = cn.beta_1ms_s(s)
    return lambda eps: -Cs * beta + Cs * (1.0 - 2.0 * eps) ** (-2.0 * s) * eps ** (2.0 * s) / s


def epsilon_threshold(s: float, p: float) -> float:
    """Largest grid eps in [1e-6, 1/2) making the bump-train residual bound
    nonpositive, minus a 10% safety margin that stops at the grid's floor,
    the narrowest bump a ``BumpTrain`` takes."""
    if not 0.0 < p < math.inf:
        raise ValueError("p must be finite and positive")
    grid = np.geomspace(pr._EPS_MIN, 0.499, 600)
    admissible = grid[_cross_bump_bound(s)(grid) + grid ** (2.0 * s * p) <= 0.0]
    if not admissible.size:
        raise NotFound(
            f"bump-train inequality fails for all eps >= 1e-6 at s={s}, p={p}")
    return max(0.9 * float(admissible[-1]), pr._EPS_MIN)


def verify_bump_train(s: float, p: float, eps: Optional[float] = None, k: int = 1, N: int = 2,
                      tol: Tolerance = Tolerance()) -> VerificationReport:
    """Certify the bump-train supersolution one bump at a time.

    Case-1 points lie inside bump supports: the e_N directional value plus
    u^p must be nonpositive, and the directional value must respect the
    explicit cross-bump bound.  Case-2 points lie in the gaps: u vanishes,
    the e_N directional value is nonnegative, and the frame sum over
    {e_1..e_k} (k < N, all orthogonal to e_N) is exactly 0 with no
    quadrature: the train reads x_N alone, so every section orthogonal to
    e_N is constant.  The e_N rows of all six points are one engine call.
    """
    if not 1 <= k < N:
        raise ValueError("the construction requires k < N")
    if not 0.0 < p < math.inf:
        raise ValueError("p must be finite and positive")
    if eps is None:
        eps = epsilon_threshold(s, p)
    u = pr.BumpTrain(eps, s)
    bound = _cross_bump_bound(s)(eps)

    inside = (eps, 1.0 + eps, 3.0 + eps / 2.0, 5.0 + 1.5 * eps)
    # gap midpoints n + eps + 1/2: bump n covers [n, n + 2*eps]
    gaps = (eps + 0.5, 4.0 + eps + 0.5)
    along_n = op.row_sums(u, _axis_rows(inside + gaps), s, tol)

    claims: list[ClaimResult] = []
    for t, r in zip(inside, along_n):
        uval = u(_on_axis(N, t))
        claims.append(ClaimResult([t], "case1_supersolution",
                                  r.value + uval**p, r.abs_error_estimate, "le"))
        claims.append(ClaimResult([t], "case1_cross_bump_bound",
                                  r.value - bound, r.abs_error_estimate, "le"))
    for t, rn in zip(gaps, along_n[len(inside):]):
        uval = u(_on_axis(N, t))
        claims.append(ClaimResult([t], "case2_u_vanishes", uval, 0.0, "eq"))
        # sections along e_1..e_k are constant, so the value is exactly 0
        claims.append(ClaimResult([t], "case2_frame_sum_zero", 0.0, 0.0, "eq"))
        # along e_N the second difference of a zero-valued center is >= 0
        claims.append(ClaimResult([t], "case2_directional_nonnegative",
                                  -rn.value, rn.abs_error_estimate, "le"))
    params = {"s": s, "p": p, "eps": eps, "k": k, "N": N, "cross_bump_bound": bound}
    return _finish("bump_train", params, claims)


def verify_T49_2(N: int, s: float, gamma: Optional[float] = None,
                 tol: Tolerance = Tolerance()) -> VerificationReport:
    """Frame bound for the half-space power tail outside the critical ball.

    The frame has every vector at angle arccos(1/sqrt(N)) to the radial
    direction; the frame sum certifies the upper bound
    C_s c_N^+(gamma) |x|^{-gamma-2s} for the full minimal operator.  Default
    gamma: 2s/(p-1) for p = 1 + 2s/gamma_plus + 0.2.
    """
    if N > _MAX_N:
        raise cn.DomainError(f"N = {N} is too large: the t49-2 suite takes N <= {_MAX_N}, "
                             "whose sections fit in memory")
    gamma_plus = cn.find_gamma_plus(N, s).root
    if gamma is None:
        p = 1.0 + 2.0 * s / gamma_plus + 0.2
        gamma = 2.0 * s / (p - 1.0)
    R = math.sqrt(N / (N - 1.0))
    Cs = cn.normalizing_constant(s)
    rhs_const = Cs * cn.c_n_plus(gamma, s, N)  # first: it rejects a gamma out of range
    u = pr.HalfSpacePowerTail(gamma)
    points = np.array([_on_axis(N, 2.0 * math.sqrt(N))]
                      + _upper_points(N, np.geomspace(1.05 * R, 20.0 * R, 5), 7))
    rows = op.householder_rows(points)
    sums = op.row_sums(u, rows, s, tol)

    claims: list[ClaimResult] = []
    for x, d2, fs in zip(points, rows.d2, sums):
        nx = float(np.linalg.norm(x))
        # avoidance bound: the nearest section stays at radius >= |x|/sqrt(2)
        claims.append(ClaimResult(x, "avoidance_radius", nx * nx / 2.0 - float(np.min(d2)),
                                  0.0, "le", nx * nx))
        rhs = rhs_const * nx ** (-gamma - 2.0 * s)
        claims.append(ClaimResult(x, "frame_bound", fs.value - rhs,
                                  fs.abs_error_estimate, "le", abs(rhs)))
        if gamma < gamma_plus:
            claims.append(ClaimResult(x, "rhs_negative", rhs, 0.0, "le"))
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


_PSI_REL_TOL = 1e-11  # psi's relative request, whatever the CLI flags say
_TINY = float(np.finfo(float).tiny)


def verify_psi_subsolution(kind: str, k: int, s: float,
                           radii: Optional[Sequence[float]] = None) -> VerificationReport:
    """Frame lower bound for the subsolution candidate, with empirical onset radius.

    At each radius r (default: 10 from 2 to 3000) and angle a in
    {0.25, 0.85, 1.45} the claim is that the frame sum over
    {xhat, k - 1 vectors orthogonal to xhat} at x = r(cos a e_1 + sin a e_N)
    is at least constant * x_N / |x|^{..}.  psi = y_N phi(|y|^2) (see
    ``profiles.PsiField``), so the frame sum is sin a F(r) + (k - 1) O(x):
    F(r) is the e_N section through r e_N, one quadrature row per radius
    for every angle, and O(x) the orthogonal section in closed form.  A
    radius below psi's cap radius, 1, raises ``DomainError``, since the
    orthogonal lines would cross the cap.

    The claim holds for all radii beyond some onset; the verifier reports
    the smallest sampled radius from which every sampled angle passes, and
    the verdict reflects only radii at or beyond that onset.
    """
    psi = pr.make_psi(kind, k, s)
    gb, g2 = psi.gamma_lead, psi.gamma_second
    const = _psi_bound_constant(kind, k, s, psi)
    exponent = 2.0 * s + 2.0 - g2 if kind == "growth" else g2 + 2.0 * s + 2.0
    N = max(k + 1, 2)
    radii = np.sort(np.geomspace(2.0, 3000.0, 10) if radii is None
                    else np.asarray(radii, float))
    if not np.all(radii >= psi.cap_radius):  # NaN too
        raise cn.DomainError(f"every radius must be >= {psi.cap_radius:g}, psi's cap "
                             "radius: closer in, orthogonal sections cross the cap")
    angles = np.linspace(0.25, 1.45, 3)
    sines, n = np.sin(angles), len(angles)

    # the points radius by radius, every angle at each
    xs = np.zeros((len(radii) * n, N))
    xs[:, 0] = np.outer(radii, np.cos(angles)).ravel()
    xs[:, -1] = np.outer(radii, sines).ravel()
    bounds = const * xs[:, -1] * np.repeat(radii, n) ** -exponent
    # each claim asks for 1e-4 of its bound, with no fixed floor, so the
    # request shrinks with the bound at far radii; the angle a reads sin a
    # times the radius's row, so the row asks for the tightest of its angles'
    # requests, each divided by sin a (and above 0, which a request must be)
    asks = (np.abs(bounds) * 1e-4).reshape(len(radii), n) / sines
    tols = [Tolerance(max(a, _TINY), _PSI_REL_TOL) for a in asks.min(axis=1).tolist()]
    radial = op.row_sums(psi, _axis_rows(radii), s, tols)
    orth, orth_bar = psi.orthogonal_section(xs, s)

    claims = []
    for i, (x, bound) in enumerate(zip(xs, bounds.tolist())):
        row, sin_a = radial[i // n], float(sines[i % n])
        value = sin_a * row.value + (k - 1) * float(orth[i])
        bar = sin_a * row.abs_error_estimate + (k - 1) * float(orth_bar[i])
        claims.append(ClaimResult(x, "frame_lower_bound", bound - value, bar, "le"))

    # the onset is the first radius from which every claim (one per angle)
    # passes; the verdict and max_violation read the claims from it on.  The
    # bound constant and x_N are positive, so those passing claims also show
    # a positive frame sum at every radius from the onset on.
    start = next((i for i in range(len(radii)) if _verdict(claims[i * n:]) == "pass"), None)
    if start is None:
        # no sampled radius starts a passing run: the onset, if there is one,
        # lies beyond the samples, where nothing was checked, so the claim is
        # undecided, not violated
        onset, counted, verdict = None, claims, "inconclusive"
    else:
        onset, counted, verdict = float(radii[start]), claims[start * n:], "pass"
    return _finish("psi_subsolution",
                   {"kind": kind, "k": k, "s": s, "gamma_lead": gb,
                    "gamma_second": g2, "bound_constant": const},
                   claims, extra={"empirical_R0": onset,
                                  "radii": [float(r) for r in radii]},
                   verdict=verdict, counted=counted)


def verify_singular_supersolution(s: float, p: float, op_kind: str, N: int,
                                  seed: int = 42,
                                  tol: Tolerance = Tolerance()) -> VerificationReport:
    """Supersolution M (x_N)_+^mu for p < -1, at x = t*e_N for t in {0.5, 1, 2}.

    A direction xi sees |xi.e_N|^{2s} V(t), V(t) = M C_s c_{s,mu} t^{mu-2s} < 0
    the e_N value, so a frame sums fs V(t) with fs = sum_i |xi_i.e_N|^{2s}.
    Both kinds read one quadrature of the e_N row per point.  ``ik_minus``
    (V + u^p = 0): |I_{e_N} u + u^p| below 1e-6; as fs <= k^{1-s} on a
    k-frame, I_k^- u + u^p = V (k^{1-s} - 1) <= 0 for every k.  ``in_plus``
    (N^{-s} V + u^p = 0): fs >= sum_i (xi_i.e_N)^2 = 1, with equality on any
    frame containing e_N, so I_N^+ u = V; claims V + u^p <= 0, the pigeonhole
    fs = N^{-s} cancelling, and the e_N quadrature plus u^p <= 0.  ``seed``
    is not read, as no claim is sampled; callers passing it keep working.
    """
    if N < 2:
        raise cn.DomainError("N must be >= 2")
    u, M, mu = pr.build_singular_supersolution(s, p, op_kind, N)
    points = (0.5, 1.0, 2.0)
    sums = op.row_sums(u, _axis_rows(points), s, tol)
    # u(t e_N)^p = M^p t^{mu p} in closed form, with M^{1-p} = scale/|C_s c_{s,mu}|:
    # u(x) ** p would multiply the rounding of M t^mu by |p|
    big_c = cn.normalizing_constant(s) * cn.c_s_mu(mu, s)
    m_p = M * abs(big_c) / (1.0 if op_kind == "ik_minus" else N ** s)
    u_p = [m_p * t ** (2.0 * s * p / (1.0 - p)) for t in points]
    claims: list[ClaimResult] = []
    if op_kind == "ik_minus":
        covers = f"I_k^- for every k = 1..{N}"
        for t, r, up in zip(points, sums, u_p):
            raw = r.value + up
            claims.append(ClaimResult(t, "exact_cancellation", abs(raw) - 1e-6,
                                      r.abs_error_estimate, "le"))
    else:
        covers = "I_N^+ over every orthonormal frame"
        c_val = M * big_c
        for t, r, up in zip(points, sums, u_p):
            v = c_val * t ** (mu - 2.0 * s)  # V(t), the e_N value in closed form
            claims += [
                ClaimResult(t, "sup_frame_supersolution", v + up, 0.0, "le", abs(v)),
                ClaimResult(t, "pigeonhole_cancellation", N ** -s * v + up, 0.0, "eq", abs(v)),
                ClaimResult(t, "frame_supersolution_quadrature", r.value + up,
                            r.abs_error_estimate, "le")]
    params = {"s": s, "p": p, "op_kind": op_kind, "N": N, "M": M, "mu": mu}
    return _finish("singular_supersolution", params, claims, extra={"covers": covers})


_AVOIDANCE_SIZE = 1e150  # the largest r and |y| the avoidance suite takes


def verify_avoidance_example(N: int, s: float, r: float, y: np.ndarray,
                             tol: Tolerance = Tolerance()) -> VerificationReport:
    """Ball-avoiding frame: every section of the ball bump vanishes identically.

    The bump (r^2 - |x - y|^2)_+^s is supported in the ball B_r(y).  The
    frame makes each vector see the line at distance >= |x-y|/sqrt(2) from
    the ball center, which exceeds the radius whenever y_N <= -sqrt(2)r, so
    the frame sum is exactly zero and the minimal operator is nonpositive.
    The Householder rows through x - y share b and d^2, so one row a point
    decides every claim, and none is integrated: ``frame_sum_zero`` is 0
    wherever that line misses the ball and fails wherever it meets it.
    ``tol`` is not read, as no claim runs a quadrature; callers passing it
    keep working.
    """
    if N < 2:
        raise cn.DomainError("N must be >= 2")
    if not 0.0 < r < math.inf:
        raise cn.DomainError("r must be finite and positive")
    y = np.asarray(y, float)
    if not np.all(np.isfinite(y)):
        raise cn.DomainError("y must be finite")
    # the suite squares r and distances from y, and math.hypot cannot overflow
    if max(r, math.hypot(*y)) > _AVOIDANCE_SIZE:
        raise cn.DomainError(f"r and |y| must be at most {_AVOIDANCE_SIZE:g}, "
                             "or their squares overflow")
    if y[-1] > -math.sqrt(2.0) * r:
        raise GeometryViolation("ball center must satisfy y_N <= -sqrt(2) r")
    cn._check_s(s)
    points = np.array(_upper_points(N, (1.0, 2.0, 5.0), 3))
    d2s = op.householder_rows(points - y).d2[:, 0].tolist()
    claims: list[ClaimResult] = []
    for x, d2 in zip(points, d2s):
        nd = float(np.linalg.norm(x - y))
        claims.append(ClaimResult(x, "distance_exceeds", math.sqrt(2.0) * r - nd, 0.0, "le"))
        claims.append(ClaimResult(x, "line_avoids_ball", r * r - d2, 0.0, "le"))
        # a line that misses the ball sees the bump as 0, so the sum is exactly 0
        claims.append(ClaimResult(x, "frame_sum_zero", max(r * r - d2, 0.0), 0.0, "eq"))
    return _finish("avoidance_example", {"N": N, "s": s, "r": r, "y": list(y)},
                   claims)


def verify_transform(s: float, p: float, q: float, seed: int = 42,
                     tol: Tolerance = Tolerance()) -> VerificationReport:
    """Power-transform machinery: scalar inequality, operator inequality, closure.

    The scalar bound b^beta - a^beta <= beta a^{beta-1} (b - a) for a, b > 0
    is the tangent line of x^beta at a lying above its graph, which holds
    when x^beta is concave, that is for the suite's own beta in (0, 1]: one
    exact claim, beta - 1 <= 0.  The suite also checks the induced
    directional-operator inequality for the transformed ``ik_minus``
    singular supersolution, and that the transformed family is again a
    supersolution of the target exponent: one-sided, since the transform
    degrades the cancellation to an inequality.  ``seed`` is not read, as no
    claim is sampled; callers passing it keep working.
    """
    tp = pr.TransformParams(p, q)
    tp.validate()
    beta = tp.beta_exp
    # rounding is monotone, so fl(beta - 1) <= 0 exactly when beta <= 1
    claims = [ClaimResult(0.0, "scalar_inequality_concavity", beta - 1.0, 0.0, "le")]

    base, _, _ = pr.build_singular_supersolution(s, p, "ik_minus", 2)
    v = pr.power_transform(base, p, q)
    ts = (0.5, 1.0, 2.0)
    xs = [_on_axis(2, t) for t in ts]
    # operator inequality: I v <= beta v^{(beta-1)/beta} I (v^{1/beta}),
    # with v^{1/beta} = alpha^{1/beta} * base
    rows = _axis_rows(ts)
    lhs_all, rhs_all = op.row_sums(v, rows, s, tol), op.row_sums(base, rows, s, tol)
    for t, x, lhs_q, rhs_dir in zip(ts, xs, lhs_all, rhs_all):
        vx = v(x)
        factor = beta * vx ** ((beta - 1.0) / beta) * tp.alpha_coef ** (1.0 / beta)
        rhs_q = factor * rhs_dir.value
        claims.append(ClaimResult(t, "operator_inequality",
                                  lhs_q.value - rhs_q,
                                  lhs_q.abs_error_estimate
                                  + abs(factor) * rhs_dir.abs_error_estimate,
                                  "le"))
        # closure: alpha * base^beta, pointwise, matches the closed-form power family
        pointwise = float(tp.alpha_coef * np.asarray(base(x)) ** beta)
        claims.append(ClaimResult(t, "family_closure_pointwise", pointwise - vx, 0.0, "eq",
                                  abs(vx)))
        # transformed family stays a supersolution of the target exponent
        res = lhs_q.value + v(x) ** q
        claims.append(ClaimResult(t, "target_supersolution",
                                  res, lhs_q.abs_error_estimate, "le"))
    params = {"s": s, "p": p, "q": q, "beta": beta, "alpha": tp.alpha_coef}
    return _finish("transform", params, claims)
