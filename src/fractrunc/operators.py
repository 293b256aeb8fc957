"""Pointwise evaluation of the directional and extremal nonlocal operators.

The directional operator along a unit vector ``xi`` is

    I_xi u(x) = C_s * integral_0^inf (u(x+t*xi) + u(x-t*xi) - 2u(x)) / t^{1+2s} dt,

and the extremal operators of order ``k`` are the inf/sup of frame sums
``sum_i I_{xi_i} u(x)`` over orthonormal families of ``k`` vectors.  This
module evaluates the directional operator on one-dimensional line sections,
assembles frame sums, provides exact closed-form frames for radial profiles,
and runs a heuristic (explicitly one-sided) frame search.

The unit of work is a *fan*: the line sections of one field through one
point along many directions.  One engine integrates a whole fan through
``quad.integrate_batch``, the batched adaptive G10/K21 engine: field lines
accept a stack of directions, so each round of bisection evaluates every
open panel of every piece of every section in one field call.
It is the only path: ``directional`` along one direction is the fan of
one, and ``directional_fan``, ``frame_sum``, the ``plus`` closed form and
the search's objective evaluate their directions as one fan each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import normalizing_constant
from .quad import QuadResult, Tolerance, integrate_batch

__all__ = [
    "Frame",
    "GrowthViolation",
    "HypothesisViolation",
    "directional",
    "directional_fan",
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
_LOG8 = math.log(8.0)
# finite-difference nodes 0, +-h, +-h/2 with h = window/8, in units of the C^2 window
_FD_NODES = np.array([0.0, 0.125, -0.125, 0.0625, -0.0625])


class GrowthViolation(ValueError):
    """Field growth exponent >= 2s; the defining integral diverges."""


class HypothesisViolation(ValueError):
    """A closed-form representation's hypotheses fail numerically."""


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


# ---------------------------------------------------------------------------
# the directional operator on a fan of directions
# ---------------------------------------------------------------------------
#
# A *field* is any object with:
#   line(x, xi) -> Callable[[ndarray], ndarray]
#                                           the section tau -> u(x + tau*xi),
#                                           elementwise on an array of tau;
#                                           xi of shape (..., N) is a fan of
#                                           directions, broadcasting against tau
#   c2_radius(x: ndarray) -> float          radius of C^2 ball around x
#   breakpoints(x, xi) -> list[float]       tau of every non-C^2 crossing
#   growth_alpha: float                     (H2)-type growth exponent: every
#                                           section is bounded by
#                                           growth_const * (1+|tau|)^growth_alpha
# optional:
#   growth_const: float                     probed along each section if absent
#   extra_abs_error(x) -> float             evaluation-truncation error
#   d2_along(x, xi) -> float                analytic second derivative
#
# ``breakpoints`` and ``d2_along`` take one direction of shape (N,).
# ``line`` does the field's vector work once per call, so the quadrature
# evaluates a whole batch of nodes, of one section or of a whole fan, in
# one numpy pass.

def _unit(xi: np.ndarray) -> np.ndarray:
    """``xi`` scaled to unit length, unchanged when it already is unit."""
    xi = np.asarray(xi, float)
    nrm = float(np.linalg.norm(xi))
    return xi / nrm if abs(nrm - 1.0) > 1e-12 else xi


def _integrate_fan(u, x: np.ndarray, dirs: np.ndarray, s: float,
                   tol: Tolerance) -> list[QuadResult]:
    """The directional operator integral of a field at ``x`` along each unit row of ``dirs``.

    A fan is the line sections of one field through one point.  Every field
    evaluation is ``u.line(x, dirs[rows])`` at nodes ``t``, the two
    broadcasting against each other, so one call serves nodes of many
    sections.  The sections share their value at 0.  Each integral splits
    into (i) an analytic Taylor piece on ``(0, delta)`` using the section's
    second derivative, with the remainder self-estimated by comparing against
    the half-radius evaluation, (ii) panels between breakpoints, (iii) a
    log-substituted far panel, and (iv) an analytic tail remainder from the
    growth bound.  The Taylor ladders of all sections run in lockstep, four
    rungs per open section to an ``integrate_batch`` call; then every piece
    of (ii) and (iii) of every section goes into one call.

    The field's metadata is read once per fan.  A direction's C^2 window is
    the C^2 radius capped at its nearest breakpoint; without ``d2_along`` the
    second derivatives of all directions come from one call of finite
    differences inside their windows.

    ``n_evals`` of each result counts the section's field evaluations: u(0),
    two per kernel node (at t and -t), the growth probes and the finite
    differences.  Field metadata (breakpoints, C^2 radius) is not counted.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0,1)")
    growth_alpha = float(u.growth_alpha)
    if growth_alpha >= 2.0 * s:
        raise GrowthViolation(f"growth exponent {growth_alpha} >= 2s = {2*s}")

    m = len(dirs)
    all_rows = np.arange(m)

    def ev(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return u.line(x, dirs[rows])(t)

    c2 = float(u.c2_radius(x))
    radii = [[abs(float(t)) for t in u.breakpoints(x, xi)] for xi in dirs]
    window = np.array([min([c2] + r) for r in radii])
    if np.any(window <= 0.0):
        raise ValueError("the C^2 window of every direction must be positive")
    extra_fn = getattr(u, "extra_abs_error", None)
    extra = float(extra_fn(x)) if extra_fn is not None else 0.0

    u0 = float(ev(0.0, 0))
    n_evals = np.ones(m, int)
    d2_fn = getattr(u, "d2_along", None)
    if d2_fn is not None:
        d2 = np.array([float(d2_fn(x, xi)) for xi in dirs])
    else:
        # central differences at h = window/8 and h/2, Richardson-extrapolated
        nodes = np.multiply.outer(window, _FD_NODES)
        v = ev(nodes, all_rows[:, None])
        h, h2 = nodes[:, 1], nodes[:, 3]
        coarse = (v[:, 1] + v[:, 2] - 2.0 * v[:, 0]) / (h * h)
        fine = (v[:, 3] + v[:, 4] - 2.0 * v[:, 0]) / (h2 * h2)
        d2 = (4.0 * fine - coarse) / 3.0
        n_evals += _FD_NODES.size
    p = 1.0 + 2.0 * s
    expo = 2.0 - 2.0 * s

    def pair(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
        both = ev(np.stack((t, -t)), rows)
        return both[0] + both[1] - 2.0 * u0

    def count_evals(rows: np.ndarray, n: np.ndarray) -> None:
        # pair makes two section evals per kernel eval
        n_evals[:] += 2 * np.bincount(rows, n, m).astype(int)

    # The Taylor ladder: rung k compares the analytic piece on (0, delta_k)
    # with the one on (0, delta_k/2) plus quadrature over (delta_k/2, delta_k),
    # delta_k = delta/2^k, down to delta_cancel.  It stops at the first rung
    # whose self-estimate is within budget or below the rung's own quadrature
    # error: deeper rungs only trade Taylor remainder for rounding noise.
    # Rungs are integrated four to a batched call, since rungs past the stop
    # are wasted work and the deep ones are the noisy, expensive ones.
    # Below delta_cancel the pair loses all significant digits to rounding.
    delta_cancel = 32.0 * np.sqrt(_EPS * (abs(u0) + 1.0) / (np.abs(d2) + 1e-3))
    top = np.minimum(window / 2.0, 1.0)
    n_rungs = 1 + np.count_nonzero(
        np.ldexp(top[:, None], -np.arange(1, 60)) > delta_cancel[:, None], axis=1)
    next_rung = np.zeros(m, int)
    delta, small_val, small_err = np.empty(m), np.empty(m), np.empty(m)
    ladder_open = all_rows
    while ladder_open.size:
        count = np.minimum(n_rungs[ladder_open] - next_rung[ladder_open], 4)
        rows = np.repeat(ladder_open, count)
        offsets = np.cumsum(count) - count  # each open section's first rung in the batch
        k = next_rung[rows] + np.arange(rows.size) - np.repeat(offsets, count)
        tops = np.ldexp(top[rows], -k)
        v, e, n = integrate_batch(lambda t, g: pair(t, rows[g]) / t**p, tops / 2.0, tops,
                                  tol.abs_tol / 8.0, tol.rel_tol)
        count_evals(rows, n)
        val = d2[rows] * (tops / 2.0) ** expo / expo + v
        err = np.abs(d2[rows] * tops**expo / expo - val)
        stop = (err <= tol.abs_tol / 4.0) | (err <= e) | (k == n_rungs[rows] - 1)
        first = np.minimum.reduceat(np.where(stop, np.arange(rows.size), rows.size), offsets)
        done = first < rows.size
        pick = first[done]
        rung_done = ladder_open[done]
        delta[rung_done], small_val[rung_done] = tops[pick], val[pick]
        small_err[rung_done] = err[pick] + e[pick]
        next_rung[ladder_open] += count
        ladder_open = ladder_open[~done]

    # pieces between breakpoint radii, each on a quintic smoothstep map of
    # (0, 1): algebraic kinks |t - endpoint|^kappa become C^2-or-better, so
    # the rule converges at full rate even for Hoelder-rough sections
    cuts = []
    for r, dl in zip(radii, delta.tolist()):
        outer = sorted({b for b in r if b > dl})
        end = max(1.0, 2.0 * dl, (outer[-1] + 1.0) if outer else 1.0)
        cuts.append([dl] + [b for b in outer if b < end] + [end])
    sizes = np.array([len(c) for c in cuts])
    flat = np.array([c for cut in cuts for c in cut])
    last = np.cumsum(sizes) - 1
    core_end = flat[last]
    firsts = np.delete(np.arange(flat.size), last)
    core_rows = np.repeat(all_rows, sizes - 1)

    # growth coefficients for tail truncation: declared, or probed in one call.
    # The exponent stays an array: numpy's power takes a different path for a
    # scalar exponent, which can move the last bit of the tail bound.
    alpha = np.full(m, growth_alpha)
    growth_const = getattr(u, "growth_const", None)
    if growth_const is None:
        probes = core_end[:, None] * np.array([1.0, 3.0, 9.0])
        vals = np.abs(ev(np.stack((probes, -probes)), all_rows[:, None]))
        c_grow = np.max(np.max(vals, axis=0) / (1.0 + probes) ** alpha[:, None], axis=1)
        n_evals += 6
    else:
        c_grow = np.full(m, float(growth_const))

    # Beyond T the -2*u0 part of the pair integrates exactly to
    # -u0 * T^{-2s} / s; only the growth-bounded part of the sections
    # remains unknown and lands in the error estimate: at most
    # coeff * T^-decay.  T = core_end * 8^n for the least n that brings it
    # within budget, or that reaches log T >= 550.
    decay = 2.0 * s - alpha
    coeff = np.where(c_grow > 0.0, 2.0 ** (1.0 + alpha) * c_grow / decay, 0.0)
    with np.errstate(divide="ignore"):
        n_budget = np.log(coeff * core_end**-decay / (tol.abs_tol / 4.0)) / (decay * _LOG8)
    n_range = (550.0 - np.log(core_end)) / _LOG8
    T = core_end * 8.0 ** np.maximum(np.ceil(np.minimum(n_budget, n_range)), 0.0)
    far = np.flatnonzero(T > core_end)

    # Integral g < n_core is a core piece of section rows[g] in the
    # smoothstep variable z; the rest are far panels in w = log t.
    n_core = core_rows.size
    rows = np.concatenate((core_rows, far))
    start = flat[firsts]
    length = flat[firsts + 1] - start

    def pieces(z: np.ndarray, group: np.ndarray) -> np.ndarray:
        core = group < n_core
        g = np.minimum(group, n_core - 1)
        w = z * z * z * (10.0 + z * (-15.0 + 6.0 * z))
        dw = 30.0 * z * z * (1.0 - z) * (1.0 - z)
        t = np.where(core, start[g] + length[g] * w, np.exp(z))
        # far out (|t| > 1e154) squared norms overflow to inf, where the
        # sections take their limits
        with np.errstate(over="ignore"):
            k = pair(t, rows[group])
        # t**p overflows on the far panel; there each branch gets safe input
        return np.where(core, k / np.where(core, t, 1.0) ** p * length[g] * dw,
                        k * t ** (-2.0 * s))

    abs_tols = np.concatenate((tol.abs_tol / (4.0 * sizes[core_rows]),
                               np.full(far.size, tol.abs_tol / 4.0)))
    v, e, n = integrate_batch(pieces, np.concatenate((np.zeros(n_core), np.log(core_end[far]))),
                              np.concatenate((np.ones(n_core), np.log(T[far]))), abs_tols,
                              tol.rel_tol)
    count_evals(rows, n)
    far_val, far_err = np.zeros(m), np.zeros(m)
    far_val[far], far_err[far] = v[n_core:], e[n_core:]
    # bincount adds up each section's core pieces in their order
    value = (small_val + np.bincount(core_rows, v[:n_core], m)
             + (-u0 * T ** (-2.0 * s) / s + far_val))
    err = (small_err + np.bincount(core_rows, e[:n_core], m)
           + (coeff * T**-decay + far_err) + extra)
    Cs = normalizing_constant(s)
    return [QuadResult(a, b, c).scale(Cs)
            for a, b, c in zip(value.tolist(), err.tolist(), n_evals.tolist())]


def directional_fan(u, x: np.ndarray, directions: np.ndarray, s: float,
                    tol: Tolerance = Tolerance()) -> list[QuadResult]:
    """Directional operator of a field at one point along each row of ``directions``.

    The whole fan is one batched quadrature: each round evaluates the nodes
    of every section in one field call.
    """
    x = np.asarray(x, float)
    dirs = np.array([_unit(xi) for xi in np.asarray(directions, float).reshape(-1, x.size)])
    return _integrate_fan(u, x, dirs, s, tol)


def directional(u, x: np.ndarray, xi: np.ndarray, s: float,
                tol: Tolerance = Tolerance()) -> QuadResult:
    """Directional operator of a field at a point along a unit vector: the fan of one."""
    return directional_fan(u, x, xi, s, tol)[0]


# the older name, still looked up by perfbench's tracer; the package calls ``directional``
directional_at = directional


def frame_sum(u, x: np.ndarray, frame: Frame, s: float,
              tol: Tolerance = Tolerance()) -> QuadResult:
    """Sum of directional operators over the vectors of a frame."""
    total = QuadResult(0.0, 0.0, 0)
    for r in directional_fan(u, x, frame.vectors, s, tol):
        total = total + r
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
                    variant: str, tol: Tolerance = Tolerance()) -> QuadResult:
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
        radial, *perp = directional_fan(profile, x, fr.vectors[:2], s, tol)
        return radial + perp[0].scale(float(k - 1)) if perp else radial
    if variant == "minus_full":
        if k != N:
            raise HypothesisViolation("variant minus_full requires k = N")
        xi_star = householder_frame(xhat).vectors[0]
        return directional(profile, x, xi_star, s, tol).scale(float(N))
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# heuristic frame search (one-sided)
# ---------------------------------------------------------------------------

def _radial_spline(u, x: np.ndarray, s: float, tol: Tolerance):
    """Cubic spline of the directional value in |<xhat, xi>| on [0, 1].

    For radial fields the section through x along xi depends only on |x| and
    the absolute cosine with the radial direction, so one 1-D table, built
    from one fan of 65 directions, serves every frame during the search.
    """
    from scipy.interpolate import CubicSpline

    x = np.asarray(x, float)
    N = x.size
    xhat = x / np.linalg.norm(x)
    # any unit vector orthogonal to xhat
    perp = completion_frame(xhat, min(2, N)).vectors[-1] if N > 1 else xhat
    thetas = np.linspace(0.0, 1.0, 65)
    xis = thetas[:, None] * xhat + np.sqrt(np.maximum(0.0, 1.0 - thetas**2))[:, None] * perp
    xis /= np.linalg.norm(xis, axis=1, keepdims=True)
    return CubicSpline(thetas, [r.value for r in directional_fan(u, x, xis, s, tol)])


def _search_objective(u, x: np.ndarray, s: float, k: int,
                      tol: Tolerance) -> Callable[[np.ndarray], np.ndarray]:
    """The search objective: a stack of frames ``(m, k, N)`` -> their frame sums ``(m,)``.

    Radial fields read the sums off the ``_radial_spline`` table; other
    fields evaluate all ``m*k`` directions as one fan.
    """
    N = x.size
    if getattr(u, "is_radial", False):
        xhat = x / np.linalg.norm(x)
        spline = _radial_spline(u, x, s, tol)
        return lambda frames: spline(np.minimum(np.abs(frames @ xhat), 1.0)).sum(axis=1)

    def objective(frames: np.ndarray) -> np.ndarray:
        fan = directional_fan(u, x, frames.reshape(-1, N), s, tol)
        return np.array([r.value for r in fan]).reshape(-1, k).sum(axis=1)
    return objective


# Each rotation first scores _ANGLE_GRID equispaced angles over [0, pi).
# Each zoom level evaluates _ZOOM_POINTS points across its bracket and keeps
# two spacings around the best.  The last level's bracket is at most
# 2*step*_ZOOM_WIDTH wide, the final bracket of 24 golden-section steps from a
# bracket of two grid steps, so the angle is found at least that precisely.
_ANGLE_GRID = 32
_ZOOM_POINTS = 9
_ZOOM_WIDTH = ((math.sqrt(5.0) - 1.0) / 2.0) ** 24


def extremal_search(u, x: np.ndarray, s: float, k: int, variant: str,
                    budget: int = 10, seed: int = 42,
                    tol: Tolerance = Tolerance(),
                    sweeps: int = 3) -> tuple[QuadResult, Frame]:
    """Heuristic frame optimization for the extremal operators.

    Random orthonormal restarts followed by coordinate descent over Givens
    rotation angles (within the frame's span and against its orthogonal
    complement).  Each rotation first tries 32 equispaced angles over
    [0, pi), then zooms in on the best: every level evaluates a grid across
    the bracket and keeps two spacings around its best point.  The restarts
    descend in lockstep, so each grid of all of them is one batched
    objective call over a stack of frames.  The result is one-sided by
    construction: an upper bound for the inf (``minus``) and a lower bound
    for the sup (``plus``).
    """
    if variant not in ("plus", "minus"):
        raise ValueError(f"unknown variant {variant!r}")
    x = np.asarray(x, float)
    N = x.size
    if not 1 <= k <= N:
        raise ValueError(f"k must lie in 1..N = {N}")
    if budget < 1 or sweeps < 1:
        raise ValueError("budget and sweeps must be >= 1")
    sign = 1.0 if variant == "plus" else -1.0
    rng = np.random.default_rng(seed)
    search_tol = Tolerance(max(tol.abs_tol, 1e-7), max(tol.rel_tol, 1e-6))

    objective = _search_objective(u, x, s, k, search_tol)
    angles = np.linspace(0.0, math.pi, _ANGLE_GRID, endpoint=False)
    step = float(angles[1])
    # the zoom grid without its center, whose value is known
    offsets = np.delete(np.linspace(-0.5, 0.5, _ZOOM_POINTS), _ZOOM_POINTS // 2)

    def score(frames: np.ndarray) -> np.ndarray:
        return sign * objective(frames)

    # Every restart descends at once, so one objective call serves the grid
    # of all restarts still improving.  Full bases: frame rows first, then
    # the complement.
    bases = np.empty((budget, N, N))
    for r in range(budget):
        vectors = random_frame(N, k, rng).vectors
        qfull, _ = np.linalg.qr(np.column_stack([vectors.T, np.eye(N)]))
        bases[r] = qfull.T
        bases[r, :k] = vectors
    best = score(bases[:, :k])
    live = np.arange(budget)
    for _ in range(sweeps):
        improved = np.zeros(live.size, bool)
        for i, j in [(i, j) for i in range(k) for j in range(i + 1, N)]:
            vi, vj = bases[live, i], bases[live, j]
            cur = best[live]

            def rotated(angs: np.ndarray) -> np.ndarray:
                """Scores of the live frames with rows i and j turned by angs[r]."""
                c, sn = np.cos(angs)[..., None], np.sin(angs)[..., None]
                frames = np.repeat(bases[live, None, :k], angs.shape[1], axis=1)
                frames[:, :, i] = c * vi[:, None] + sn * vj[:, None]
                if j < k:
                    frames[:, :, j] = -sn * vi[:, None] + c * vj[:, None]
                return score(frames.reshape(-1, k, N)).reshape(angs.shape)

            best_angle = np.zeros(live.size)
            grid_vals = rotated(np.broadcast_to(angles[1:], (live.size, angles.size - 1)))
            for r, row in enumerate(grid_vals.tolist()):
                for ang, val in zip(angles[1:].tolist(), row):
                    if val - cur[r] > 1e-14:
                        cur[r], best_angle[r], improved[r] = val, ang, True
            # zoom around the best grid angle
            center, center_val, width = best_angle.copy(), cur.copy(), 2.0 * step
            every = np.arange(live.size)
            while True:
                grid = center[:, None] + width * offsets
                vals = rotated(grid)
                b = np.argmax(vals, axis=1)
                better = vals[every, b] > center_val
                center[better], center_val[better] = grid[every, b][better], vals[every, b][better]
                if width <= 2.0 * step * _ZOOM_WIDTH:
                    break
                width *= 2.0 / (_ZOOM_POINTS - 1)
            better = center_val - cur > 0.0
            cur[better], best_angle[better] = center_val[better], center[better]
            improved |= better
            c, sn = np.cos(best_angle)[:, None], np.sin(best_angle)[:, None]
            bases[live, i] = c * vi + sn * vj
            bases[live, j] = -sn * vi + c * vj
            best[live] = cur
        live = live[improved]
        if not live.size:
            break
    best_vecs = bases[int(np.argmax(best)), :k]

    # re-orthonormalize (Givens updates are orthogonal, this scrubs roundoff)
    q, r = np.linalg.qr(best_vecs.T)
    q = q * np.sign(np.diag(r))
    best_frame = Frame(q.T)
    final = frame_sum(u, x, best_frame, s, tol)
    return final, best_frame


# ---------------------------------------------------------------------------
# derivative commutation check
# ---------------------------------------------------------------------------

def derivative_commutation_residual(profile, x: np.ndarray, xi: np.ndarray,
                                    s: float,
                                    tol: Tolerance = Tolerance()) -> float:
    """|central difference of y -> I_xi profile(y) minus I_xi (D_N profile)(x)|.

    The difference is taken along e_N with step h = 1e-4.  The derivative
    field comes from the profile's analytic ``partial`` method.
    """
    x = np.asarray(x, float)
    h = 1e-4
    e = np.zeros(x.size)
    e[-1] = 1.0
    plus = directional(profile, x + h * e, xi, s, tol).value
    minus = directional(profile, x - h * e, xi, s, tol).value
    fd = (plus - minus) / (2.0 * h)
    dprofile = profile.partial()
    direct = directional(dprofile, x, xi, s, tol).value
    return abs(fd - direct)
