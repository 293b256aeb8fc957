"""Pointwise evaluation of the directional and extremal nonlocal operators.

The directional operator along a unit vector ``xi`` is

    I_xi u(x) = C_s * integral_0^inf (u(x+t*xi) + u(x-t*xi) - 2u(x)) / t^{1+2s} dt,

and the extremal operators of order ``k`` are the inf/sup of frame sums
``sum_i I_{xi_i} u(x)`` over orthonormal families of ``k`` vectors.  This
module evaluates the directional operator on one-dimensional line sections,
assembles frame sums, provides exact closed-form frames for radial profiles,
and runs a heuristic (explicitly one-sided) frame search: a sweep of Givens
rotations, each a ring of angles, then a bracket zoom on the one angle
(N = 2) or trust-region steps on a quadratic model of the score in all the
rotation angles at once.

The unit of work is a batch of *rows*, each a (point, direction) pair:
the line section of one field through the point along the direction.
One engine integrates all rows through ``quad.integrate_batch``, the
batched adaptive G10/K21 engine: field lines accept a stack of directions
and a stack of points, so each round of bisection evaluates every open
panel of every piece of every section in one field call.  It is the only
path: ``directional`` along one direction is the batch of one row;
``directional_fan``, the ``plus`` closed form and the search's objective
evaluate the directions through one point as one batch (a *fan*); and
``frame_sums`` integrates every section of the frames at many points as one
batch, which is how each verify suite calls it, one batch per field, and
``frame_sum`` is its case of one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .constants import _check_s, normalizing_constant
from .quad import QuadResult, Tolerance, integrate_batch

__all__ = [
    "Frame",
    "GrowthViolation",
    "HypothesisViolation",
    "directional",
    "directional_fan",
    "frame_sum",
    "frame_sums",
    "extremal_radial",
    "extremal_search",
    "derivative_commutation_residual",
    "canonical_frame",
    "completion_frame",
    "completion_frames",
    "householder_frame",
    "random_frames",
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
        _check_orthonormal(self.vectors)

    @property
    def k(self) -> int:
        return self.vectors.shape[0]

    @property
    def N(self) -> int:
        return self.vectors.shape[1]


def _orthonormality_defects(vectors: np.ndarray) -> np.ndarray:
    """max |V V^T - I| of each family V of k rows in a stack of shape (..., k, N)."""
    g = vectors @ np.swapaxes(vectors, -1, -2)
    return np.max(np.abs(g - np.eye(vectors.shape[-2])), axis=(-2, -1))


def _check_orthonormal(vectors: np.ndarray) -> None:
    worst = float(np.max(_orthonormality_defects(vectors)))
    if not worst <= 1e-12:  # false for NaN too: a family with a NaN entry is no frame
        raise ValueError(f"orthonormality defect {worst:.2e} exceeds 1e-12")


# ---------------------------------------------------------------------------
# the directional operator on rows of (point, direction)
# ---------------------------------------------------------------------------
#
# A *field* follows the stacked protocol that ``profiles.Field`` states:
# ``line``, ``c2_radius``, ``breakpoints``, ``growth_alpha`` and, optionally,
# ``growth_const``, ``d2_along`` and ``far_part``, every hook on all rows at
# once, so the quadrature evaluates a whole batch of nodes, of one section or
# of many, in one numpy pass.

def _integrate_fan(u, x: np.ndarray, directions: np.ndarray, s: float,
                   abs_tol, rel_tol: float) -> list[QuadResult]:
    """The directional operator integral of a field along each row of ``directions``.

    Row i is the line section through ``x`` (shape ``(N,)``), or through its
    own point ``x[i]`` for a stack of shape ``(m, N)``, along the unit vector
    of ``directions[i]``; ``abs_tol`` is one absolute tolerance, or one per
    row.  Every field evaluation is ``u.line`` on the rows' points and
    directions at nodes ``t``, all broadcasting against each other, so one
    call serves nodes of many sections.  Each integral splits into (i) an
    analytic Taylor piece on ``(0, delta)`` using the section's second
    derivative, with the remainder self-estimated by comparing against the
    half-radius evaluation, (ii) panels between breakpoint radii, out to
    2b + 1 for the largest radius b (or to 1 or 2*delta, if larger), (iii) a
    log-substituted far panel from there, which then starts clear of the
    kink at b instead of bisecting next to it, and (iv) an analytic tail
    remainder from the growth bound.  The Taylor ladders of all sections run
    in lockstep, four rungs per open section to an ``integrate_batch`` call;
    then every piece of (ii) and (iii) of every section goes into one call.

    A field with ``far_part`` shows in ``line`` only the part of each
    section near its point; ``u.far_part`` of all rows adds the rest in
    closed form, value to value and error to bar.  u(x), the C^2 radius, the
    breakpoints and ``d2_along`` each come from one call on all rows.  A
    row's C^2 window is its point's C^2 radius capped at its nearest
    breakpoint; without ``d2_along`` the second derivatives of all rows come
    from one call of finite differences inside their windows.  The rows'
    breakpoint radii are sorted and their repeats dropped here, for every
    field.  ``rel_tol``, like ``abs_tol``, is one tolerance or one per row.

    ``n_evals`` of each result counts the section's field evaluations: u(0),
    two per kernel node (at t and -t), the growth probes and the finite
    differences.  Field metadata (breakpoints, C^2 radius) and ``far_part``
    are not counted.
    """
    _check_s(s)
    growth_alpha = float(u.growth_alpha)
    if growth_alpha >= 2.0 * s:
        raise GrowthViolation(f"growth exponent {growth_alpha} >= 2s = {2*s}")

    x = np.asarray(x, float)
    dirs = np.asarray(directions, float).reshape(-1, x.shape[-1])
    # rows scaled to unit length; a row that already is unit stays as given
    nrm = np.linalg.norm(dirs, axis=1, keepdims=True)
    # comparisons are false for NaN, so a NaN direction is refused too
    if not (np.all((nrm > 0.0) & (nrm < np.inf)) and np.all(np.isfinite(x))):
        raise ValueError("every direction must be finite and nonzero, and every point finite")
    dirs = np.where(np.abs(nrm - 1.0) > 1e-12, dirs / nrm, dirs)
    m = len(dirs)
    all_rows = np.arange(m)
    abs_tol = np.full(m, abs_tol, float)
    rel_tol = np.full(m, rel_tol, float)
    points = np.broadcast_to(x, dirs.shape)  # one point of shape (N,) serves every row

    radii = np.abs(u.breakpoints(points, dirs))
    window = np.minimum(u.c2_radius(points), np.min(radii, axis=1, initial=np.inf))
    if np.any(window <= 0.0):
        raise ValueError("the C^2 window of every direction must be positive")
    closed, closed_err = u.far_part(points, dirs, s) if hasattr(u, "far_part") else (0.0, 0.0)
    u0 = u.line(points, dirs)(0.0)
    two_u0 = 2.0 * u0

    def ev(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return u.line(points[rows], dirs[rows])(t)

    def pair(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
        both = ev(np.stack((t, -t)), rows)
        return both[0] + both[1] - two_u0[rows]

    n_evals = np.ones(m, int)
    d2_fn = getattr(u, "d2_along", None)
    if d2_fn is not None:
        d2 = d2_fn(points, dirs)
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
    delta_cancel = 32.0 * np.sqrt(_EPS * (np.abs(u0) + 1.0) / (np.abs(d2) + 1e-3))
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
                                  abs_tol[rows] / 8.0, rel_tol[rows])
        count_evals(rows, n)
        val = d2[rows] * (tops / 2.0) ** expo / expo + v
        err = np.abs(d2[rows] * tops**expo / expo - val)
        stop = (err <= abs_tol[rows] / 4.0) | (err <= e) | (k == n_rungs[rows] - 1)
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
    # the rule converges at full rate even for Hoelder-rough sections.  A
    # row's cuts are delta, its breakpoint radii above delta, sorted and
    # without repeats, and the core's end.
    above = np.sort(np.where(radii > delta[:, None], radii, np.inf), axis=1)
    keep = np.isfinite(above)
    keep[:, 1:] &= above[:, 1:] != above[:, :-1]
    largest = np.max(above, axis=1, where=keep, initial=-np.inf)
    core_end = np.maximum(np.maximum(1.0, 2.0 * delta), 2.0 * largest + 1.0)
    keep = np.column_stack((np.ones(m, bool), keep, np.ones(m, bool)))
    flat = np.column_stack((delta, above, core_end))[keep]
    sizes = np.count_nonzero(keep, axis=1)
    firsts = np.delete(np.arange(flat.size), np.cumsum(sizes) - 1)
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
        n_budget = np.log(coeff * core_end**-decay / (abs_tol / 4.0)) / (decay * _LOG8)
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

    abs_tols = np.concatenate((abs_tol[core_rows] / (4.0 * sizes[core_rows]),
                               abs_tol[far] / 4.0))
    v, e, n = integrate_batch(pieces, np.concatenate((np.zeros(n_core), np.log(core_end[far]))),
                              np.concatenate((np.ones(n_core), np.log(T[far]))), abs_tols,
                              np.concatenate((rel_tol[core_rows], rel_tol[far])))
    count_evals(rows, n)
    far_val, far_err = np.zeros(m), np.zeros(m)
    far_val[far], far_err[far] = v[n_core:], e[n_core:]
    # bincount adds up each section's core pieces in their order
    value = (small_val + np.bincount(core_rows, v[:n_core], m)
             + (-u0 * T ** (-2.0 * s) / s + far_val) + closed)
    err = (small_err + np.bincount(core_rows, e[:n_core], m)
           + (coeff * T**-decay + far_err) + closed_err)
    Cs = normalizing_constant(s)
    return [QuadResult(a, b, c).scale(Cs)
            for a, b, c in zip(value.tolist(), err.tolist(), n_evals.tolist())]


def directional_fan(u, x: np.ndarray, directions: np.ndarray, s: float,
                    tol: Tolerance = Tolerance()) -> list[QuadResult]:
    """Directional operator of a field along each row of ``directions``.

    ``x`` is one point of shape ``(N,)``, or a stack of shape ``(m, N)`` with
    the point of each row.  All rows are one batched quadrature: each round
    evaluates the nodes of every section in one field call.
    """
    return _integrate_fan(u, x, directions, s, tol.abs_tol, tol.rel_tol)


def directional(u, x: np.ndarray, xi: np.ndarray, s: float,
                tol: Tolerance = Tolerance()) -> QuadResult:
    """Directional operator of a field at a point along a unit vector: the fan of one."""
    return directional_fan(u, x, xi, s, tol)[0]


# the older name, still looked up by perfbench's tracer; the package calls ``directional``
directional_at = directional


def frame_sums(u, points: Sequence[np.ndarray], frames: Sequence[np.ndarray], s: float,
               tol: Tolerance | Sequence[Tolerance] = Tolerance()) -> list[QuadResult]:
    """Sum of directional operators at each point over the rows of its frame.

    ``frames[i]``, of shape ``(k_i, N)``, holds the directions summed at
    ``points[i]``; a frame of one row gives the directional value.  ``tol``
    is one ``Tolerance``, or one per point.  Every section of every point is
    one batch of rows, so each round of bisection calls the field once.
    """
    sizes = [len(f) for f in frames]
    tols = [tol] * len(sizes) if isinstance(tol, Tolerance) else tol
    sections = _integrate_fan(u, np.repeat(np.asarray(points, float), sizes, axis=0),
                              np.vstack(frames), s,
                              np.repeat([t.abs_tol for t in tols], sizes),
                              np.repeat([t.rel_tol for t in tols], sizes))
    ends = np.cumsum(sizes).tolist()
    return [sum(sections[e - k:e], QuadResult(0.0, 0.0, 0)) for e, k in zip(ends, sizes)]


def frame_sum(u, x: np.ndarray, frame: Frame, s: float,
              tol: Tolerance = Tolerance()) -> QuadResult:
    """Sum of directional operators over the vectors of a frame: ``frame_sums`` at one point."""
    return frame_sums(u, [x], [frame.vectors], s, tol)[0]


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def canonical_frame(N: int, k: int) -> Frame:
    """The frame {e_1, ..., e_k}."""
    return Frame(np.eye(N)[:k])


def completion_frames(xhats: np.ndarray, k: int) -> np.ndarray:
    """Frames {xhat, k-1 vectors orthogonal to xhat} of a stack of directions
    ``(m, N)`` via QR completion, as a stack of rows ``(m, k, N)``.

    One QR of the whole stack, each matrix xhat followed by the identity's
    columns, and one orthonormality check; the first row is xhat exactly.
    """
    xhats = np.asarray(xhats, float)
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero xhat: NaN rows, refused below
        xhats = xhats / np.linalg.norm(xhats, axis=-1, keepdims=True)
    m, N = xhats.shape
    q, _ = np.linalg.qr(np.concatenate((xhats[:, :, None], np.broadcast_to(np.eye(N), (m, N, N))),
                                       axis=2))
    frames = np.swapaxes(q[:, :, :k], 1, 2).copy()
    frames[:, 0] = xhats
    _check_orthonormal(frames)
    return frames


def completion_frame(xhat: np.ndarray, k: int) -> Frame:
    """Frame {xhat, k-1 vectors orthogonal to xhat}: ``completion_frames`` of one direction."""
    return Frame(completion_frames(np.asarray(xhat, float)[None], k)[0])


def householder_frame(xhat: np.ndarray) -> Frame:
    """Full orthonormal basis {xi_i} with <xhat, xi_i> = 1/sqrt(N) for every i.

    The reflection taking the normalized all-ones vector onto ``xhat`` is
    applied to the canonical basis; inner products with ``xhat`` then equal
    the components of the all-ones direction, 1/sqrt(N) each.
    """
    xhat = np.asarray(xhat, float)
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero xhat: NaN, which Frame refuses
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


def random_frames(N: int, k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar-distributed k-frames as a stack of rows, shape ``(count, k, N)``.

    Orthonormalized Gaussian samples: one QR of the whole stack, signs fixed
    so that each R has a positive diagonal.  Every frame passes ``Frame``'s
    orthonormality check.  The draws, and so the frames, are those of
    ``count`` calls with ``count = 1`` in a row.
    """
    q, r = np.linalg.qr(rng.standard_normal((count, N, k)))
    frames = np.swapaxes(q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :], 1, 2)
    _check_orthonormal(frames)
    return frames


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
    with np.errstate(divide="ignore", invalid="ignore"):  # x = 0: NaN, which no frame takes
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

def _not_a_knot_spline(y: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The not-a-knot cubic spline through ``y`` on the uniform grid of [0, 1].

    The node slopes m solve one linear system: m[i-1] + 4 m[i] + m[i+1] =
    3 (y[i+1] - y[i-1]) / h inside, and equal third derivatives on the first
    two and on the last two intervals, m[0] - m[2] = 2 (d[0] - d[1]) with
    the divided differences d.  Each interval is then the cubic Hermite
    piece of its end values and slopes, evaluated by Horner's rule in the
    offset from its left node.  The interval of z is found by indexing.
    """
    n = y.size - 1
    h = 1.0 / n
    d = np.diff(y) / h
    a = np.zeros((n + 1, n + 1))
    rhs = np.empty(n + 1)
    rows = np.arange(1, n)
    a[rows, rows - 1], a[rows, rows], a[rows, rows + 1] = 1.0, 4.0, 1.0
    rhs[1:-1] = 3.0 * (d[:-1] + d[1:])
    a[0, [0, 2]] = 1.0, -1.0
    a[n, [n - 2, n]] = 1.0, -1.0
    rhs[0], rhs[n] = 2.0 * (d[0] - d[1]), 2.0 * (d[n - 2] - d[n - 1])
    m = np.linalg.solve(a, rhs)
    c2 = (3.0 * d - 2.0 * m[:-1] - m[1:]) / h
    c3 = (m[:-1] + m[1:] - 2.0 * d) / (h * h)
    c0, c1 = y[:-1], m[:-1]

    def spline(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, float)
        i = np.minimum((z * n).astype(int), n - 1)
        dz = z - i * h
        return c0[i] + dz * (c1[i] + dz * (c2[i] + dz * c3[i]))
    return spline


def _radial_spline(u, x: np.ndarray, s: float, tol: Tolerance):
    """Cubic spline of the directional value in |<xhat, xi>| on [0, 1], and
    the largest error bar of its table.

    For radial fields the section through x along xi depends only on |x| and
    the absolute cosine with the radial direction, so one 1-D table, built
    from one fan of 65 directions, serves every frame during the search.
    """
    x = np.asarray(x, float)
    N = x.size
    with np.errstate(divide="ignore", invalid="ignore"):  # x = 0: NaN, which no frame takes
        xhat = x / np.linalg.norm(x)
    # any unit vector orthogonal to xhat
    perp = completion_frame(xhat, min(2, N)).vectors[-1] if N > 1 else xhat
    thetas = np.linspace(0.0, 1.0, 65)
    xis = thetas[:, None] * xhat + np.sqrt(np.maximum(0.0, 1.0 - thetas**2))[:, None] * perp
    xis /= np.linalg.norm(xis, axis=1, keepdims=True)
    table = directional_fan(u, x, xis, s, tol)
    return (_not_a_knot_spline(np.array([r.value for r in table])),
            max(r.abs_error_estimate for r in table))


def _search_objective(u, x: np.ndarray, s: float, k: int, tol: Tolerance
                      ) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The search objective: a stack of frames ``(m, k, N)`` -> their frame sums
    and error bars, each of shape ``(m,)``.

    Radial fields read the sums off the ``_radial_spline`` table, each
    vector with the table's largest bar; other fields evaluate all ``m*k``
    directions as one fan, and a frame's bar sums its rows' bars.
    """
    N = x.size
    if getattr(u, "is_radial", False):
        with np.errstate(divide="ignore", invalid="ignore"):  # x = 0: NaN, which no frame takes
            xhat = x / np.linalg.norm(x)
        spline, bar = _radial_spline(u, x, s, tol)
        return lambda frames: (spline(np.minimum(np.abs(frames @ xhat), 1.0)).sum(axis=1),
                               np.full(frames.shape[0], k * bar))

    def objective(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        fan = directional_fan(u, x, frames.reshape(-1, N), s, tol)
        rows = np.array([(r.value, r.abs_error_estimate) for r in fan]).reshape(-1, k, 2)
        return rows[..., 0].sum(axis=1), rows[..., 1].sum(axis=1)
    return objective


# Each Givens rotation scores _ANGLE_GRID equispaced angles over [0, pi), a
# ring: the objective is pi-periodic in the angle, since I_xi = I_{-xi}, and
# angle 0 is the frame's current score.  The rings only scan; one method then
# refines each search.  With one angle (N = 2) the zoom brackets it: each
# level scores _ZOOM_POINTS angles across the two spacings around the best
# angle so far, so each level is 8 times narrower, and a best angle on an
# edge recentres the grid at the same width.  It stops when the best angle's
# drop to the lower of its two neighbours is at most its score's error bar:
# the optimum of a unimodal objective lies between those neighbours, where
# the gain left is at most 1/4 of that drop on a smooth peak and 1/2 on a
# cusp.  Flat stretches end after _ZOOM_LEVELS.
_ANGLE_GRID = 32
_ZOOM_POINTS = 17
_ZOOM_LEVELS = 10
_ZOOM_OFFSETS = np.linspace(-1.0, 1.0, _ZOOM_POINTS)


# With two or more angles (N >= 3), the polish: a quadratic model of the
# score in the angles of the Givens planes, fitted from the frame, the turns
# by +-_POLISH_H in each angle and by _POLISH_H in each pair of them, every
# restart's model frames in one objective call.  _POLISH_H balances the
# fitted gradient's truncation error, h^2/6 times the score's third
# derivative, against the score's own error over h.  The trust radius starts
# at one angle step and stays below pi/4; the polish makes at most
# _POLISH_CALLS calls.
_POLISH_H = 4e-3
_POLISH_RADIUS = math.pi / _ANGLE_GRID
_POLISH_MAX_RADIUS = math.pi / 4.0
_POLISH_CALLS = 16


def _turned(bases: np.ndarray, planes: list[tuple[int, int]], angles: np.ndarray) -> np.ndarray:
    """The bases ``(m, N, N)`` with rows i and j of each turned by its angle for
    each plane (i, j), in order: a product of Givens turns, so exactly orthogonal."""
    out = bases.copy()
    for p, (i, j) in enumerate(planes):
        c, sn = np.cos(angles[:, p, None]), np.sin(angles[:, p, None])
        out[:, i], out[:, j] = c * out[:, i] + sn * out[:, j], -sn * out[:, i] + c * out[:, j]
    return out


def _quadratic_model(vals: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Gradient ``(m, d)`` and Hessian ``(m, d, d)`` of the quadratic through each
    row of ``vals``: the scores at 0, +h e_p, -h e_p, then h (e_p + e_q) for
    p < q, with h = _POLISH_H."""
    m = vals.shape[0]
    f0, fp, fm = vals[:, :1], vals[:, 1:1 + d], vals[:, 1 + d:1 + 2 * d]
    h2 = _POLISH_H * _POLISH_H
    hess = np.empty((m, d, d))
    p, q = np.triu_indices(d, 1)
    hess[:, p, q] = hess[:, q, p] = (vals[:, 1 + 2 * d:] - fp[:, p] - fp[:, q] + f0) / h2
    hess[:, np.arange(d), np.arange(d)] = (fp + fm - 2.0 * f0) / h2
    return (fp - fm) / (2.0 * _POLISH_H), hess


def _trust_step(grad: np.ndarray, hess: np.ndarray, radius: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Steihaug-Toint truncated conjugate gradients for each row: a step s with
    |s| <= radius that raises the model grad.s + s.hess.s/2, and that rise.

    On a concave model it is the model's maximiser, or the boundary point where
    the CG path leaves the trust region; along a direction of non-negative
    curvature, indefinite or singular models included, it runs out to the
    boundary.  No factorisation, so no model is ever ill-conditioned.
    """
    step = np.zeros_like(grad)
    resid = grad.copy()  # the model's gradient at the step
    path = resid.copy()
    rr = np.einsum("ri,ri->r", resid, resid)
    open_ = rr > 0.0
    for _ in range(grad.shape[1]):
        if not open_.any():
            break
        hp = np.einsum("rij,rj->ri", hess, path)
        curv = -np.einsum("ri,ri->r", path, hp)
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha = rr / curv
        trial = step + alpha[:, None] * path
        out = open_ & ((curv <= 0.0) | (np.einsum("ri,ri->r", trial, trial) >= radius**2))
        # the boundary point s + tau p, tau >= 0, of each row leaving the region
        sp, pp = np.einsum("ri,ri->r", step, path), np.einsum("ri,ri->r", path, path)
        ss = np.einsum("ri,ri->r", step, step)
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = (np.sqrt(sp * sp + pp * (radius**2 - ss)) - sp) / pp
        step[out] += tau[out, None] * path[out]
        inner = open_ & ~out
        step[inner] = trial[inner]
        resid[inner] += alpha[inner, None] * hp[inner]
        rr_new = np.einsum("ri,ri->r", resid, resid)
        with np.errstate(divide="ignore", invalid="ignore"):
            path[inner] = resid[inner] + (rr_new / rr)[inner, None] * path[inner]
        rr = rr_new
        open_ = inner & (rr > 0.0)
    rise = (np.einsum("ri,ri->r", grad, step)
            + 0.5 * np.einsum("ri,rij,rj->r", step, hess, step))
    return step, rise


def _polish(score, bases: np.ndarray, best: np.ndarray, live: np.ndarray, k: int) -> None:
    """Trust-region steps on the frames of the restarts ``live``, in place.

    Each call scores, for every open restart, its candidate frame and the
    model frames around it.  The candidate becomes the restart's centre only
    when its score is no worse than the centre's, so ``best`` can only rise;
    otherwise the old model takes a step in a quarter of the rejected one's
    radius.  A restart stops when its model's predicted rise is no more than
    its centre's error bar, or after _POLISH_CALLS calls.
    """
    N = bases.shape[1]
    planes = [(i, j) for i in range(k) for j in range(i + 1, N)]
    d = len(planes)
    if not live.size:
        return
    eye = np.eye(d)
    p, q = np.triu_indices(d, 1)
    design = _POLISH_H * np.vstack([np.zeros((1, d)), eye, -eye, eye[p] + eye[q]])
    m = live.size
    centre, cand = bases[live], bases[live]
    cur = np.full(m, -np.inf)
    grad, hess = np.zeros((m, d)), np.zeros((m, d, d))
    bar, rise = np.zeros(m), np.full(m, np.inf)
    radius, length = np.full(m, _POLISH_RADIUS), np.zeros(m)
    todo = np.arange(m)
    for call in range(_POLISH_CALLS):
        frames = _turned(np.repeat(cand[todo], design.shape[0], axis=0), planes,
                         np.tile(design, (todo.size, 1)))
        vals, bars = (a.reshape(todo.size, -1) for a in score(frames[:, :k]))
        ok = vals[:, 0] >= cur[todo]
        took, missed = todo[ok], todo[~ok]
        # a step whose rise came true at least 3/4 and reached the boundary doubles
        # the radius; one that fell short of a quarter halves it.  The first call
        # scores the sweeps' frames, with no step to judge: its ratio is nan.
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (vals[ok, 0] - cur[took]) / rise[took]
        full = length[took] >= 0.9 * radius[took]
        radius[took] = np.where((ratio >= 0.75) & full,
                                np.minimum(2.0 * radius[took], _POLISH_MAX_RADIUS),
                                np.where(ratio < 0.25, 0.5 * radius[took], radius[took]))
        radius[missed] = 0.25 * length[missed]
        centre[took], cur[took], bar[took] = cand[took], vals[ok, 0], bars[ok, 0]
        grad[took], hess[took] = _quadratic_model(vals[ok], d)
        if call == _POLISH_CALLS - 1:
            break
        step, rise[todo] = _trust_step(grad[todo], hess[todo], radius[todo])
        length[todo] = np.linalg.norm(step, axis=1)
        go = rise[todo] > bar[todo]
        todo = todo[go]
        if not todo.size:
            break
        cand[todo] = _turned(centre[todo], planes, step[go])
    bases[live], best[live] = centre, cur


def _zoom(score, bases: np.ndarray, best: np.ndarray, k: int) -> None:
    """The bracket zoom on the one angle of every restart's frame, in place."""
    m, mid = bases.shape[0], _ZOOM_POINTS // 2
    angle, half = np.zeros(m), np.full(m, math.pi / _ANGLE_GRID)
    todo = np.arange(m)
    for _ in range(_ZOOM_LEVELS):
        grid = angle[todo, None] + half[todo, None] * _ZOOM_OFFSETS
        frames = _turned(np.repeat(bases[todo], _ZOOM_POINTS, axis=0), [(0, 1)],
                         grid.reshape(-1, 1))
        vals, bars = (a.reshape(todo.size, -1) for a in score(frames[:, :k]))
        at = np.arange(todo.size)
        # the centre is the best angle so far: it moves only on a strict gain
        g = np.argmax(vals, axis=1)
        g[vals[at, g] <= np.maximum(best[todo], vals[:, mid])] = mid
        top = vals[at, g]
        best[todo], angle[todo] = np.maximum(best[todo], top), grid[at, g]
        edge = (g == 0) | (g == _ZOOM_POINTS - 1)
        half[todo[~edge]] *= 2.0 / (_ZOOM_POINTS - 1)
        drop = top - np.minimum(vals[at, g - 1], vals[at, (g + 1) % _ZOOM_POINTS])
        todo = todo[edge | (drop > bars[at, g])]
        if not todo.size:
            break
    bases[:] = _turned(bases, [(0, 1)], angle[:, None])


def extremal_search(u, x: np.ndarray, s: float, k: int, variant: str,
                    budget: int = 10, seed: int = 42,
                    tol: Tolerance = Tolerance(),
                    sweeps: int = 1) -> tuple[QuadResult, Frame]:
    """Heuristic frame optimization for the extremal operators.

    Random orthonormal restarts, then ``sweeps`` sweeps of Givens rotations
    over the d = k(N-k) + k(k-1)/2 planes within the frame's span and
    against its orthogonal complement: each rotation scores 32 equispaced
    angles over [0, pi) and keeps the best.  One method then refines each
    search.  With d = 1 (N = 2) a bracket zoom: each level scores 17 angles
    across the two spacings around the best angle so far, 8 times narrower
    per level.  With d >= 2 a trust-region polish: a quadratic model of the
    score in all d angles, fitted from 1 + 2d + d(d-1)/2 frames around the
    current one, and a truncated-CG step, a product of Givens turns, so
    every frame stays orthonormal; a step counts only when its score, read
    in the next call, is no worse.  Both stop by one rule, when the gain
    left is within the score's own error bar: the zoom when the best
    angle's drop to the lower of its neighbours is at most its bar, the
    polish when the model's predicted gain is.  The zoom makes at most ten
    levels, the polish sixteen calls.  The restarts run in lockstep, so each
    ring, grid or model of all of them is one batched objective call over a
    stack of frames.  The result is one-sided by construction: an upper
    bound for the inf (``minus``) and a lower bound for the sup (``plus``).
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

    def score(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values, bars = objective(frames)
        return sign * values, bars

    # Every restart scans at once, so one objective call serves the ring of
    # all restarts still improving.  Full bases: frame rows first, then the
    # complement.
    bases = np.empty((budget, N, N))
    for r, vectors in enumerate(random_frames(N, k, budget, rng)):
        qfull, _ = np.linalg.qr(np.column_stack([vectors.T, np.eye(N)]))
        bases[r] = qfull.T
        bases[r, :k] = vectors
    best = score(bases[:, :k])[0]
    planes = [(i, j) for i in range(k) for j in range(i + 1, N)]
    live = np.arange(budget)
    for _ in range(sweeps):
        improved = np.zeros(live.size, bool)
        for plane in planes:
            ring = _turned(np.repeat(bases[live], _ANGLE_GRID - 1, axis=0), [plane],
                           np.tile(angles[1:], live.size)[:, None])
            vals = np.column_stack([best[live], score(ring[:, :k])[0].reshape(live.size, -1)])
            b = np.argmax(vals, axis=1)
            improved |= b > 0
            bases[live] = _turned(bases[live], [plane], angles[b, None])
            best[live] = vals[np.arange(live.size), b]
        live = live[improved]
        if not live.size:
            break
    if len(planes) == 1:
        _zoom(score, bases, best, k)
    elif planes:
        _polish(score, bases, best, live, k)
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
