"""Pointwise evaluation of the directional and extremal nonlocal operators.

The directional operator along a unit vector ``xi`` is

    I_xi u(x) = C_s * integral_0^inf (u(x+t*xi) + u(x-t*xi) - 2u(x)) / t^{1+2s} dt,

and the extremal operators of order ``k`` are the inf/sup of frame sums
``sum_i I_{xi_i} u(x)`` over orthonormal families of ``k`` vectors.  This
module evaluates the directional operator on one-dimensional line sections,
assembles frame sums, provides exact closed-form frames for radial profiles,
and runs a heuristic (explicitly one-sided) frame search.

The directional integral goes through ``quad.integrate_batch``, the batched
adaptive G10/K21 engine: the sections are array-valued, so each round of
bisection evaluates every open panel of every piece in one call.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .constants import normalizing_constant
from .quad import QuadResult, Tolerance, integrate_batch

__all__ = [
    "LineSection",
    "Frame",
    "OperatorSpec",
    "GrowthViolation",
    "HypothesisViolation",
    "directional",
    "directional_at",
    "frame_sum",
    "extremal_radial",
    "extremal_search",
    "derivative_commutation_residual",
    "canonical_frame",
    "completion_frame",
    "householder_frame",
    "random_frame",
]

_EPS = np.finfo(float).eps
_DEFAULT_TOL = Tolerance(abs_tol=1e-10, rel_tol=1e-9)


class GrowthViolation(ValueError):
    """Section growth exponent >= 2s; the defining integral diverges."""


class HypothesisViolation(ValueError):
    """A closed-form representation's hypotheses fail numerically."""


@dataclass
class LineSection:
    """One-dimensional restriction ``tau -> u(x + tau*xi)`` with metadata.

    ``eval`` maps an ndarray of tau elementwise to the section's values.
    ``c2_delta0`` is a radius within which the section is twice continuously
    differentiable and ``d2`` its second derivative at 0.  ``discontinuities``
    lists every tau where the section is not C^2 (jumps and kinks alike);
    they become quadrature panel boundaries.  ``growth_alpha`` bounds
    ``|section(tau)| <= growth_const * (1+|tau|)^growth_alpha``.
    ``extra_abs_error`` carries any approximation error already present in
    the evaluations (e.g. a truncated bump window) into the result.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    c2_delta0: float
    d2: float
    discontinuities: list[float] = field(default_factory=list)
    growth_alpha: float = 0.0
    growth_const: Optional[float] = None
    extra_abs_error: float = 0.0

    def __post_init__(self) -> None:
        if self.c2_delta0 <= 0.0:
            raise ValueError("c2_delta0 must be positive")
        inside = [t for t in self.discontinuities if abs(t) < self.c2_delta0]
        if inside:
            raise ValueError(f"discontinuities {inside} inside the C2 window")


@dataclass(frozen=True)
class Frame:
    """An orthonormal family of k row vectors in R^N."""

    vectors: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "vectors", np.atleast_2d(np.asarray(self.vectors, float)))
        if self.orthonormality_defect > 1e-12:
            raise ValueError(
                f"orthonormality defect {self.orthonormality_defect:.2e} exceeds 1e-12"
            )

    @property
    def k(self) -> int:
        return self.vectors.shape[0]

    @property
    def N(self) -> int:
        return self.vectors.shape[1]

    @property
    def orthonormality_defect(self) -> float:
        g = self.vectors @ self.vectors.T
        return float(np.max(np.abs(g - np.eye(self.k))))


@dataclass(frozen=True)
class OperatorSpec:
    """Which operator to evaluate: a fixed direction or an extremal one."""

    kind: str  # "directional" | "ik_plus" | "ik_minus"
    s: float
    N: int
    k: int = 1
    xi: Optional[np.ndarray] = None
    include_Cs: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("directional", "ik_plus", "ik_minus"):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if not 1 <= self.k <= self.N:
            raise ValueError("k must lie in 1..N")


# ---------------------------------------------------------------------------
# directional operator on a line section
# ---------------------------------------------------------------------------

def directional(section: LineSection, s: float, tol: Tolerance = _DEFAULT_TOL,
                include_Cs: bool = True) -> QuadResult:
    """Evaluate the directional operator integral on a prepared line section.

    Splits the kernel integral into (i) an analytic Taylor piece on
    ``(0, delta)`` using the section's second derivative, with the remainder
    self-estimated by comparing against the half-radius evaluation, (ii)
    panels between discontinuities, (iii) a log-substituted far panel, and
    (iv) an analytic tail remainder from the declared growth bound.  The
    quadrature in (i) and in (ii) with (iii) is one ``integrate_batch`` call
    each (rungs of (i) four at a time).
    """
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0,1)")
    alpha = section.growth_alpha
    if alpha >= 2.0 * s:
        raise GrowthViolation(f"growth exponent {alpha} >= 2s = {2*s}")

    ev = section.eval
    u0 = float(ev(0.0))
    n_evals = 1
    p = 1.0 + 2.0 * s

    def pair(t: np.ndarray) -> np.ndarray:
        both = ev(np.stack((t, -t)))
        return both[0] + both[1] - 2.0 * u0

    def kernel(t: np.ndarray, _group: np.ndarray) -> np.ndarray:
        return pair(t) / t**p

    m = 2.0 - 2.0 * s
    d2 = section.d2
    # Below delta_cancel the pair loses all significant digits to rounding.
    delta_cancel = 32.0 * math.sqrt(_EPS * (abs(u0) + 1.0) / (abs(d2) + 1e-3))
    delta = min(section.c2_delta0 / 2.0, 1.0)

    def taylor(dl: float) -> float:
        return d2 * dl**m / m

    # The Taylor ladder: rung k compares the analytic piece on (0, delta_k)
    # with the one on (0, delta_k/2) plus quadrature over (delta_k/2, delta_k),
    # delta_k = delta/2^k, down to delta_cancel.  It stops at the first rung
    # whose self-estimate is within budget or below the rung's own quadrature
    # error: deeper rungs only trade Taylor remainder for rounding noise.
    # Rungs are integrated four to a batched call, since rungs past the stop
    # are wasted work and the deep ones are the noisy, expensive ones.
    rungs = [delta]
    while len(rungs) < 60 and rungs[-1] / 2.0 > delta_cancel:
        rungs.append(rungs[-1] / 2.0)
    vq: list[float] = []
    eq: list[float] = []
    for k, delta in enumerate(rungs):
        if k == len(vq):
            tops = np.array(rungs[k:k + 4])
            v, e, n = integrate_batch(kernel, tops / 2.0, tops, tol.abs_tol / 8.0,
                                      tol.rel_tol)
            vq += v.tolist()
            eq += e.tolist()
            n_evals += 3 * int(n.sum())  # pair makes two section evals per kernel eval
        small_val = taylor(delta / 2.0) + vq[k]
        taylor_err = abs(taylor(delta) - small_val)
        if taylor_err <= tol.abs_tol / 4.0 or taylor_err <= eq[k]:
            break
    small_err = taylor_err + eq[k]

    # pieces between discontinuity radii, each on a quintic smoothstep map of
    # (0, 1): algebraic kinks |t - endpoint|^kappa become C^2-or-better, so
    # the rule converges at full rate even for Hoelder-rough sections
    bps = sorted({abs(t) for t in section.discontinuities if abs(t) > delta})
    core_end = max(1.0, 2.0 * delta, (bps[-1] + 1.0) if bps else 1.0)
    cuts = [delta] + [b for b in bps if b < core_end] + [core_end]
    n_pieces = len(cuts)
    starts = np.array(cuts[:-1])
    lengths = np.diff(cuts)
    n_core = starts.size

    # growth coefficient estimate for tail truncation
    if section.growth_const is not None:
        c_grow = section.growth_const
    else:
        probes = np.array([core_end, 3.0 * core_end, 9.0 * core_end])
        c_grow = float(np.max(np.max(np.abs(ev(np.stack((probes, -probes)))), axis=0)
                              / (1.0 + probes) ** alpha))
        n_evals += 6

    # Beyond T the -2*u0 part of the pair integrates exactly to
    # -u0 * T^{-2s} / s; only the growth-bounded part of the sections
    # remains unknown and lands in the error estimate.
    def growth_remainder(T: float) -> float:
        if c_grow <= 0.0:
            return 0.0
        return 2.0 ** (1.0 + alpha) * c_grow * T ** (alpha - 2.0 * s) / (2.0 * s - alpha)

    target = tol.abs_tol / 4.0
    T = core_end
    while growth_remainder(T) > target and math.log(T) < 550.0:
        T *= 8.0

    # Integral g < n_core is core piece g in the smoothstep variable z; the
    # last one, if T > core_end, is the far panel in w = log t.
    def pieces(z: np.ndarray, group: np.ndarray) -> np.ndarray:
        core = group < n_core
        g = np.minimum(group, n_core - 1)
        w = z * z * z * (10.0 + z * (-15.0 + 6.0 * z))
        dw = 30.0 * z * z * (1.0 - z) * (1.0 - z)
        t = np.where(core, starts[g] + lengths[g] * w, np.exp(z))
        # far out (|t| > 1e154) squared norms overflow to inf, where the
        # sections take their limits
        with np.errstate(over="ignore"):
            k = pair(t)
        # t**p overflows on the far panel; there each branch gets safe input
        return np.where(core, k / np.where(core, t, 1.0) ** p * lengths[g] * dw,
                        k * t ** (-2.0 * s))

    lo, hi = np.zeros(n_core), np.ones(n_core)
    abs_tols = np.full(n_core, tol.abs_tol / (4.0 * n_pieces))
    if T > core_end:
        lo = np.append(lo, math.log(core_end))
        hi = np.append(hi, math.log(T))
        abs_tols = np.append(abs_tols, tol.abs_tol / 4.0)
    v, e, n = integrate_batch(pieces, lo, hi, abs_tols, tol.rel_tol)
    n_evals += 3 * int(n.sum())
    core_val = sum(v[:n_core].tolist())
    core_err = sum(e[:n_core].tolist())
    tail_val = -u0 * T ** (-2.0 * s) / s + sum(v[n_core:].tolist())
    tail_err = growth_remainder(T) + sum(e[n_core:].tolist())

    value = small_val + core_val + tail_val
    err = small_err + core_err + tail_err + section.extra_abs_error
    result = QuadResult(value, err, n_evals)
    if include_Cs:
        result = result.scale(normalizing_constant(s))
    return result


# ---------------------------------------------------------------------------
# building sections from evaluable fields
# ---------------------------------------------------------------------------
#
# A *field* is any object with:
#   __call__(y: ndarray) -> float
#   c2_radius(x: ndarray) -> float          radius of C^2 ball around x
#   breakpoints(x, xi) -> list[float]       tau of every non-C^2 crossing
#   growth_alpha: float                     (H2)-type growth exponent
# optional:
#   line(x, xi) -> Callable[[ndarray], ndarray]
#                                           the section tau -> u(x + tau*xi),
#                                           elementwise on an array of tau
#   growth_const: float
#   extra_abs_error(x) -> float             evaluation-truncation error
#   d2_along(x, xi) -> float                analytic second derivative
#
# ``line`` exists because the quadrature evaluates the section at millions of
# nodes per verification: a field that has it does its vector work once per
# direction and evaluates a whole batch of nodes in one numpy pass.  Without
# it each node builds ``x + tau*xi`` as a new array for __call__.

def make_section(u, x: np.ndarray, xi: np.ndarray) -> LineSection:
    """Build the line section of a field through ``x`` along unit ``xi``."""
    x = np.asarray(x, float)
    xi = np.asarray(xi, float)
    nrm = float(np.linalg.norm(xi))
    if abs(nrm - 1.0) > 1e-12:
        xi = xi / nrm

    line = getattr(u, "line", None)
    if line is not None:
        ev = line(x, xi)
    else:
        def ev(t: np.ndarray) -> np.ndarray:
            t = np.asarray(t, float)
            return np.array([float(u(x + ti * xi)) for ti in t.ravel()]).reshape(t.shape)

    bps = sorted(float(t) for t in u.breakpoints(x, xi))
    delta0 = float(u.c2_radius(x))
    if bps:
        nearest = min(abs(t) for t in bps)
        delta0 = min(delta0, nearest)

    d2_fn = getattr(u, "d2_along", None)
    if d2_fn is not None:
        d2 = float(d2_fn(x, xi))
    else:
        h = delta0 / 8.0
        h2 = h / 2.0
        u0, up, um, up2, um2 = ev(np.array([0.0, h, -h, h2, -h2])).tolist()
        coarse = (up + um - 2.0 * u0) / (h * h)
        fine = (up2 + um2 - 2.0 * u0) / (h2 * h2)
        d2 = (4.0 * fine - coarse) / 3.0

    extra_fn = getattr(u, "extra_abs_error", None)
    extra = float(extra_fn(x)) if extra_fn is not None else 0.0
    return LineSection(
        eval=ev,
        c2_delta0=delta0,
        d2=d2,
        discontinuities=bps,
        growth_alpha=float(u.growth_alpha),
        growth_const=getattr(u, "growth_const", None),
        extra_abs_error=extra,
    )


def directional_at(u, x: np.ndarray, xi: np.ndarray, s: float,
                   tol: Tolerance = _DEFAULT_TOL,
                   include_Cs: bool = True) -> QuadResult:
    """Directional operator of a field at a point along a unit vector."""
    return directional(make_section(u, x, xi), s, tol, include_Cs)


def frame_sum(u, x: np.ndarray, frame: Frame, s: float,
              tol: Tolerance = _DEFAULT_TOL,
              include_Cs: bool = True) -> QuadResult:
    """Sum of directional operators over the vectors of a frame."""
    total = QuadResult(0.0, 0.0, 0)
    for xi in frame.vectors:
        total = total + directional_at(u, x, xi, s, tol, include_Cs)
    return total


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def canonical_frame(N: int, k: int) -> Frame:
    """The frame {e_1, ..., e_k}."""
    return Frame(np.eye(N)[:k])


def completion_frame(xhat: np.ndarray, k: int) -> Frame:
    """Frame {xhat, k-1 vectors orthogonal to xhat} via QR completion."""
    xhat = np.asarray(xhat, float)
    xhat = xhat / np.linalg.norm(xhat)
    N = xhat.size
    basis = np.eye(N)
    # columns: xhat first, then the identity; QR orthonormalizes the rest
    mat = np.column_stack([xhat, basis])
    q, _ = np.linalg.qr(mat)
    vecs = q[:, :k].T.copy()
    vecs[0] = xhat  # exact first vector
    return Frame(vecs)


def householder_frame(xhat: np.ndarray) -> Frame:
    """Full orthonormal basis {xi_i} with <xhat, xi_i> = 1/sqrt(N) for every i.

    The reflection taking the normalized all-ones vector onto ``xhat`` is
    applied to the canonical basis; inner products with ``xhat`` then equal
    the components of the all-ones direction, 1/sqrt(N) each.
    """
    xhat = np.asarray(xhat, float)
    xhat = xhat / np.linalg.norm(xhat)
    N = xhat.size
    ones = np.full(N, 1.0 / math.sqrt(N))
    w = xhat - ones
    wn = np.linalg.norm(w)
    if wn < 1e-14:
        return Frame(np.eye(N))
    w = w / wn
    H = np.eye(N) - 2.0 * np.outer(w, w)  # maps ones -> xhat
    return Frame(H.T)  # rows xi_i = H e_i, so <xhat, xi_i> = (H^T xhat)_i = 1/sqrt(N)


def random_frame(N: int, k: int, rng: np.random.Generator) -> Frame:
    """Orthonormalized Gaussian sample (Haar-distributed k-frame)."""
    g = rng.standard_normal((N, k))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    return Frame(q.T)


# ---------------------------------------------------------------------------
# closed-form radial representations
# ---------------------------------------------------------------------------

def extremal_radial(profile, x: np.ndarray, s: float, k: int,
                    variant: str, tol: Tolerance = _DEFAULT_TOL,
                    include_Cs: bool = True) -> QuadResult:
    """Closed-form extremal value for a radial profile.

    ``plus``: the maximizing frame is {xhat} plus k-1 orthogonal directions.
    ``minus_full`` (k = N only): the minimizing frame makes every vector see
    the same section, N times the directional value along any xi* with
    <xhat, xi*> = 1/sqrt(N).
    """
    x = np.asarray(x, float)
    N = x.size
    if not getattr(profile, "is_radial", False):
        raise HypothesisViolation("extremal_radial requires a radial profile")
    check = getattr(profile, "check_representation_hypotheses", None)
    if check is not None:
        check()
    xhat = x / np.linalg.norm(x)
    if variant == "plus":
        fr = completion_frame(xhat, k)
        radial = directional_at(profile, x, fr.vectors[0], s, tol, include_Cs)
        if k == 1:
            return radial
        perp = directional_at(profile, x, fr.vectors[1], s, tol, include_Cs)
        return radial + perp.scale(float(k - 1))
    if variant == "minus_full":
        if k != N:
            raise HypothesisViolation("variant minus_full requires k = N")
        xi_star = householder_frame(xhat).vectors[0]
        return directional_at(profile, x, xi_star, s, tol, include_Cs).scale(float(N))
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# heuristic frame search (one-sided)
# ---------------------------------------------------------------------------

def _radial_spline(u, x: np.ndarray, s: float, include_Cs: bool, tol: Tolerance):
    """Cubic spline of the directional value in |<xhat, xi>| on [0, 1].

    For radial fields the section through x along xi depends only on |x| and
    the absolute cosine with the radial direction, so one 1-D table serves
    every frame during the search.
    """
    from scipy.interpolate import CubicSpline

    x = np.asarray(x, float)
    N = x.size
    xhat = x / np.linalg.norm(x)
    # any unit vector orthogonal to xhat
    perp = completion_frame(xhat, min(2, N)).vectors[-1] if N > 1 else xhat
    thetas = np.linspace(0.0, 1.0, 65)
    vals = []
    for th in thetas:
        xi = th * xhat + math.sqrt(max(0.0, 1.0 - th * th)) * perp
        xi = xi / np.linalg.norm(xi)
        vals.append(directional_at(u, x, xi, s, tol, include_Cs).value)
    return CubicSpline(thetas, np.asarray(vals))


def _spline_at(spline) -> Callable[[float], float]:
    """theta -> spline(min(|theta|, 1)) in plain floats.

    The interval's power-form coefficients are summed in scipy's order,
    ``c3 + c2*dx + c1*dx^2 + c0*dx^3`` with the powers built by successive
    multiplication, so the value equals ``spline(theta)`` bit for bit
    (Horner's order would not) without a scipy call per angle.
    """
    knots = spline.x.tolist()
    coeffs = spline.c.T.tolist()
    last = len(coeffs) - 1

    def at(theta: float) -> float:
        th = min(abs(theta), 1.0)
        i = min(max(bisect.bisect_right(knots, th) - 1, 0), last)
        c0, c1, c2, c3 = coeffs[i]
        dx = th - knots[i]
        dx2 = dx * dx
        return c3 + c2 * dx + c1 * dx2 + c0 * (dx2 * dx)

    return at


def extremal_search(u, x: np.ndarray, s: float, k: int, variant: str,
                    budget: int = 10, seed: int = 42,
                    tol: Tolerance = _DEFAULT_TOL,
                    include_Cs: bool = True,
                    sweeps: int = 3, angle_grid: int = 32) -> tuple[QuadResult, Frame]:
    """Heuristic frame optimization for the extremal operators.

    Random orthonormal restarts followed by coordinate descent over Givens
    rotation angles (within the frame's span and against its orthogonal
    complement).  The result is one-sided by construction: an upper bound
    for the inf (``minus``) and a lower bound for the sup (``plus``).
    """
    if variant not in ("plus", "minus"):
        raise ValueError(f"unknown variant {variant!r}")
    x = np.asarray(x, float)
    N = x.size
    sign = 1.0 if variant == "plus" else -1.0
    rng = np.random.default_rng(seed)
    search_tol = Tolerance(max(tol.abs_tol, 1e-7), max(tol.rel_tol, 1e-6))

    is_radial = getattr(u, "is_radial", False)
    if is_radial:
        xhat = x / np.linalg.norm(x)
        cache = _spline_at(_radial_spline(u, x, s, include_Cs, search_tol))

        def objective(vectors: np.ndarray) -> float:
            return sum(cache(float(vectors[i] @ xhat)) for i in range(vectors.shape[0]))
    else:
        def objective(vectors: np.ndarray) -> float:
            total = 0.0
            for xi in vectors:
                total += directional_at(u, x, xi, s, search_tol, include_Cs).value
            return total

    angles = np.linspace(0.0, math.pi, angle_grid, endpoint=False)

    def descend(vectors: np.ndarray) -> tuple[float, np.ndarray]:
        # full basis: frame rows first, complement after
        qfull, _ = np.linalg.qr(np.column_stack([vectors.T, np.eye(N)]))
        basis = qfull.T.copy()
        for i in range(k):
            basis[i] = vectors[i]
        best = objective(basis[:k])
        for _ in range(sweeps):
            improved = False
            pairs = [(i, j) for i in range(k) for j in range(i + 1, N)]
            for i, j in pairs:
                vi, vj = basis[i].copy(), basis[j].copy()

                def rotated_value(ang: float) -> float:
                    c, sn = math.cos(ang), math.sin(ang)
                    basis[i] = c * vi + sn * vj
                    basis[j] = -sn * vi + c * vj
                    return objective(basis[:k])

                best_angle = 0.0
                for ang in angles[1:]:
                    val = rotated_value(ang)
                    if sign * (val - best) > 1e-14:
                        best = val
                        best_angle = ang
                        improved = True
                # golden-section refinement around the best grid angle
                step = angles[1]
                lo, hi = best_angle - step, best_angle + step
                phi = (math.sqrt(5.0) - 1.0) / 2.0
                a1, b1 = hi - phi * (hi - lo), lo + phi * (hi - lo)
                f1, f2 = sign * rotated_value(a1), sign * rotated_value(b1)
                for _ in range(24):
                    if f1 > f2:
                        hi, b1, f2 = b1, a1, f1
                        a1 = hi - phi * (hi - lo)
                        f1 = sign * rotated_value(a1)
                    else:
                        lo, a1, f1 = a1, b1, f2
                        b1 = lo + phi * (hi - lo)
                        f2 = sign * rotated_value(b1)
                cand = 0.5 * (lo + hi)
                val = rotated_value(cand)
                if sign * (val - best) > 0.0:
                    best = val
                    best_angle = cand
                    improved = True
                c, sn = math.cos(best_angle), math.sin(best_angle)
                basis[i] = c * vi + sn * vj
                basis[j] = -sn * vi + c * vj
            if not improved:
                break
        return best, basis[:k]

    best_val = -sign * math.inf
    best_vecs: Optional[np.ndarray] = None
    for restart in range(budget):
        start = random_frame(N, k, rng).vectors
        val, vecs = descend(start)
        if sign * (val - best_val) > 0.0:
            best_val, best_vecs = val, vecs

    # re-orthonormalize (Givens updates are orthogonal, this scrubs roundoff)
    q, r = np.linalg.qr(best_vecs.T)
    q = q * np.sign(np.diag(r))
    best_frame = Frame(q.T)
    final = frame_sum(u, x, best_frame, s, tol, include_Cs)
    return final, best_frame


# ---------------------------------------------------------------------------
# derivative commutation check
# ---------------------------------------------------------------------------

def derivative_commutation_residual(profile, x: np.ndarray, xi: np.ndarray,
                                    s: float, h: float = 1e-4,
                                    direction: Optional[np.ndarray] = None,
                                    tol: Tolerance = _DEFAULT_TOL) -> float:
    """|central difference of y -> I_xi profile(y) minus I_xi (D profile)(x)|.

    ``direction`` is the differentiation direction (default e_N).  The
    derivative field comes from the profile's analytic ``partial`` method.
    """
    x = np.asarray(x, float)
    N = x.size
    e = np.zeros(N)
    e[-1] = 1.0
    if direction is not None:
        e = np.asarray(direction, float)
        e = e / np.linalg.norm(e)
    plus = directional_at(profile, x + h * e, xi, s, tol).value
    minus = directional_at(profile, x - h * e, xi, s, tol).value
    fd = (plus - minus) / (2.0 * h)
    dprofile = profile.partial(e)
    direct = directional_at(dprofile, x, xi, s, tol).value
    return abs(fd - direct)
