"""Pointwise evaluation of the directional and extremal nonlocal operators.

The directional operator along a unit vector ``xi`` is

    I_xi u(x) = C_s * integral_0^inf (u(x+t*xi) + u(x-t*xi) - 2u(x)) / t^{1+2s} dt,

and the extremal operators of order ``k`` are the inf/sup of frame sums
``sum_i I_{xi_i} u(x)`` over orthonormal families of ``k`` vectors.  This
module evaluates the directional operator on one-dimensional line sections,
assembles frame sums, provides exact closed-form frames for radial profiles,
and runs a heuristic (explicitly one-sided) frame search.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning
from scipy.integrate import quad as _scipy_quad

from .constants import normalizing_constant
from .quad import QuadResult, Tolerance

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

    ``c2_delta0`` is a radius within which the section is twice continuously
    differentiable and ``d2`` its second derivative at 0.  ``discontinuities``
    lists every tau where the section is not C^2 (jumps and kinks alike);
    they become quadrature panel boundaries.  ``growth_alpha`` bounds
    ``|section(tau)| <= growth_const * (1+|tau|)^growth_alpha``.
    ``extra_abs_error`` carries any approximation error already present in
    the evaluations (e.g. a truncated bump window) into the result.
    """

    eval: Callable[[float], float]
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


def _qpanel(f: Callable[[float], float], a: float, b: float, abs_tol: float,
            rel_tol: float) -> tuple[float, float, int]:
    if b <= a:
        return 0.0, 0.0, 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, err, info = _scipy_quad(f, a, b, epsabs=abs_tol, epsrel=rel_tol,
                                       limit=250, full_output=True)[:3]
    return value, err, int(info["neval"])


def _smooth_panel(f: Callable[[float], float], a: float, b: float,
                  abs_tol: float, rel_tol: float) -> tuple[float, float, int]:
    """Panel with a quintic smoothstep map regularizing both endpoints.

    Algebraic kinks |t - endpoint|^kappa become C^2-or-better after the
    substitution, so adaptive quadrature converges at full rate even for
    small kappa (Hoelder-rough sections at their breakpoints).
    """
    if b <= a:
        return 0.0, 0.0, 0
    L = b - a

    def g(z: float) -> float:
        w = z * z * z * (10.0 + z * (-15.0 + 6.0 * z))
        dw = 30.0 * z * z * (1.0 - z) * (1.0 - z)
        if dw == 0.0:
            return 0.0
        return f(a + L * w) * L * dw

    return _qpanel(g, 0.0, 1.0, abs_tol, rel_tol)


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
    (iv) an analytic tail remainder from the declared growth bound.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0,1)")
    alpha = section.growth_alpha
    if alpha >= 2.0 * s:
        raise GrowthViolation(f"growth exponent {alpha} >= 2s = {2*s}")

    u0 = section.eval(0.0)
    n_evals = 1

    def pair(t: float) -> float:
        return section.eval(t) + section.eval(-t) - 2.0 * u0

    m = 2.0 - 2.0 * s
    d2 = section.d2
    # Below delta_cancel the pair loses all significant digits to rounding.
    delta_cancel = 32.0 * math.sqrt(_EPS * (abs(u0) + 1.0) / (abs(d2) + 1e-3))
    delta = min(section.c2_delta0 / 2.0, 1.0)

    def taylor(dl: float) -> float:
        return d2 * dl**m / m

    # Shrink delta until the self-estimated Taylor remainder is in budget.
    taylor_err = math.inf
    small_val = 0.0
    for _ in range(60):
        half = delta / 2.0
        vq, eq, nq = _qpanel(lambda t: pair(t) / t ** (1.0 + 2.0 * s), half, delta,
                             tol.abs_tol / 8.0, tol.rel_tol)
        n_evals += nq + 2 * nq  # pair makes two section evals per kernel eval
        taylor_err = abs(taylor(delta) - (taylor(half) + vq))
        small_val = taylor(half) + vq
        if taylor_err <= tol.abs_tol / 4.0 or half <= delta_cancel:
            break
        delta = half
    small_err = taylor_err + eq

    # panels between discontinuity radii
    bps = sorted({abs(t) for t in section.discontinuities if abs(t) > delta})
    core_end = max(1.0, 2.0 * delta, (bps[-1] + 1.0) if bps else 1.0)
    cuts = [delta] + [b for b in bps if b < core_end] + [core_end]
    core_val = 0.0
    core_err = 0.0
    n_pieces = len(cuts)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        v, e, n = _smooth_panel(lambda t: pair(t) / t ** (1.0 + 2.0 * s), lo, hi,
                                tol.abs_tol / (4.0 * n_pieces), tol.rel_tol)
        core_val += v
        core_err += e
        n_evals += 3 * n

    # growth coefficient estimate for tail truncation
    if section.growth_const is not None:
        c_grow = section.growth_const
    else:
        probes = [core_end, 3.0 * core_end, 9.0 * core_end]
        c_grow = max(
            max(abs(section.eval(t)), abs(section.eval(-t))) / (1.0 + t) ** alpha
            for t in probes
        )
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

    tail_val = -u0 * T ** (-2.0 * s) / s
    tail_err = growth_remainder(T)
    if T > core_end:
        def g(w: float) -> float:
            t = math.exp(w)
            return pair(t) * t ** (-2.0 * s)

        v, e, n = _qpanel(g, math.log(core_end), math.log(T),
                          tol.abs_tol / 4.0, tol.rel_tol)
        tail_val += v
        tail_err += e
        n_evals += 3 * n

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
#   line(x, xi) -> Callable[[float], float] the section tau -> u(x + tau*xi)
#   growth_const: float
#   extra_abs_error(x) -> float             evaluation-truncation error
#   d2_along(x, xi) -> float                analytic second derivative
#
# ``line`` exists because the quadrature calls the section once per node,
# millions of times per verification: a field that has it does its vector
# work once per direction and evaluates each node in float arithmetic.
# Without it each node builds ``x + tau*xi`` as a new array for __call__.

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
        def ev(t: float) -> float:
            return float(u(x + t * xi))

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
        u0 = ev(0.0)
        coarse = (ev(h) + ev(-h) - 2.0 * u0) / (h * h)
        h2 = h / 2.0
        fine = (ev(h2) + ev(-h2) - 2.0 * u0) / (h2 * h2)
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

def _radial_cache(u, x: np.ndarray, s: float, include_Cs: bool,
                  tol: Tolerance) -> Callable[[float], float]:
    """Interpolated directional value as a function of |<xhat, xi>|.

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
    spline = CubicSpline(thetas, np.asarray(vals))

    def cached(theta: float) -> float:
        return float(spline(min(abs(theta), 1.0)))

    return cached


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
        cache = _radial_cache(u, x, s, include_Cs, search_tol)

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
