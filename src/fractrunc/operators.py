"""Pointwise evaluation of the directional and extremal nonlocal operators.

The directional operator along a unit vector ``xi`` is

    I_xi u(x) = C_s * integral_0^inf (u(x+t*xi) + u(x-t*xi) - 2u(x)) / t^{1+2s} dt,

and the extremal operators of order ``k`` are the inf/sup of frame sums
``sum_i I_{xi_i} u(x)`` over orthonormal families of ``k`` vectors.  This
module evaluates the directional operator on one-dimensional line sections,
sums it over each point's sections, provides exact closed-form frames for
radial profiles, and runs a heuristic (explicitly one-sided) frame search: a
sweep of Givens rotations, each a ring of angles, then a bracket zoom on the
one angle (N = 2) or trust-region steps on a quadratic model of the score in
all the rotation angles at once.

The unit of work is a stack of *rows*, line sections of one field that it
sees through four projections each (``profiles.Rows``).  ``row_sums`` is the
one way in: it takes a ``(P, k)`` stack, the k sections of each of P points,
hands all of them to one engine, ``_integrate_fan``, and sums each point's
sections.  The kernel is singular at both ends of a section; the engine
takes the near end by fixed Gauss-Jacobi rules on its Taylor remainder
(``_rules``), the far end by the same rules on the field's far law,
and the core between them in one ``quad.integrate_batch`` call, each round
of subdivision in one field call.  ``_fan_rows`` turns vectors into rows (a
frame's at a point, the search's frames, ``directional``'s one row);
``householder_rows`` and ``_radial_rows`` build the rows of the Householder
frame and of the radial plane from their projections in O(N).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import profiles as pr
from .constants import _check_s, normalizing_constant
from .quad import QuadResult, Tolerance, integrate_batch

__all__ = [
    "Frame",
    "GrowthViolation",
    "HypothesisViolation",
    "directional",
    "frame_sum",
    "row_sums",
    "extremal_radial",
    "extremal_search",
    "householder_rows",
    "random_frames",
]

_EPS = np.finfo(float).eps
# finite-difference nodes 0, +-h, +-h/2, +-h/4 with h = window/8, in units of the C^2 window
_FD_NODES = np.array([0.0, 0.125, -0.125, 0.0625, -0.0625, 0.03125, -0.03125])
# the two Gauss-Jacobi rules of both ends, value and check, and how many
# times a row may cut its near piece to a quarter, or move its far piece's
# start out fourfold, before its bar stands
_RULE_NODES, _CHECK_NODES = 10, 6
_MOVES = 6


class GrowthViolation(ValueError):
    """A far-law exponent >= 2s: the defining integral diverges."""


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


def _check_orthonormal(vectors: np.ndarray) -> None:
    """Refuse a stack ``(..., k, N)`` of families V of k rows with some |V V^T - I| > 1e-12."""
    g = vectors @ np.swapaxes(vectors, -1, -2)
    worst = float(np.max(np.abs(g - np.eye(vectors.shape[-2]))))
    if not worst <= 1e-12:  # false for NaN too: a family with a NaN entry is no frame
        raise ValueError(f"orthonormality defect {worst:.2e} exceeds 1e-12")


# ---------------------------------------------------------------------------
# the directional operator on rows of (point, direction)
# ---------------------------------------------------------------------------
#
# A *field* follows the protocol that ``profiles.Field`` states, every hook
# on all rows at once, so one numpy pass evaluates nodes of many sections.

def _fan_rows(x: np.ndarray, directions: np.ndarray) -> pr.Rows:
    """The ``Rows`` through ``x`` along each direction of ``directions``, ``(..., N)``,
    made unit: their leading shape, ``x`` broadcast against it; zero or
    non-finite input raises ``ValueError``."""
    x, dirs = np.asarray(x, float), np.asarray(directions, float)
    nrm = np.linalg.norm(dirs, axis=-1, keepdims=True)
    # comparisons are false for NaN, so a NaN direction is refused too
    if not (np.all((nrm > 0.0) & (nrm < np.inf)) and np.all(np.isfinite(x))):
        raise ValueError("every direction must be finite and nonzero, and every point finite")
    # a unit row stays as given: x / 1.0 is x
    return pr.Rows.through(x, dirs / np.where(np.abs(nrm - 1.0) > 1e-12, nrm, 1.0))


@functools.lru_cache(maxsize=256)
def _rules(a: float, alpha: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The value and check rules, the Gauss rules of _RULE_NODES and
    _CHECK_NODES nodes for the weight u^{a-1}, a > 0, on (0, 1): their nodes
    side by side, and their weights times u^alpha.  Each is Golub and
    Welsch's (Math. Comp. 23, 1969): nodes the eigenvalues of the Jacobi
    matrix of Jacobi's polynomials with alpha = 0, beta = a - 1 moved to
    (0, 1), weights the squares of the eigenvectors' first components times
    the mass 1/a.  The check rule's matrix is the value rule's leading block:
    cut off from the rest, whose diagonal is set to 2, past every node, it
    shares one eigh with the value rule's.  Every coefficient is formed from
    a, not a rounded a - 1, so the rules stay accurate as a -> 0.  Cached per
    (a, alpha): the arrays are read-only."""
    n, m = _RULE_NODES, _CHECK_NODES
    k = np.arange(1.0, n)
    c = 2.0 * k - 1.0 + a
    jacobi = np.zeros((2, n * n))  # two flat n x n matrices; eigh reads their lower triangles
    jacobi[:, ::n + 1] = np.concatenate(([a / (a + 1.0)],
                                         0.5 + 0.5 * (1.0 - a) ** 2 / (c * (c + 2.0))))
    jacobi[:, n::n + 1] = k * (k - 1.0 + a) / (c * np.sqrt((2.0 * k - 2.0 + a) * (2.0 * k + a)))
    jacobi[1, m * n:] = 0.0
    jacobi[1, m * (n + 1)::n + 1] = 2.0
    values, vectors = np.linalg.eigh(jacobi.reshape(2, n, n))
    nodes = np.concatenate((values[0], values[1, :m]))
    weights = np.concatenate((vectors[0, 0], vectors[1, 0, :m])) ** 2 / a * nodes**alpha
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _settle(piece, where: np.ndarray, factor: float, abs_tol: np.ndarray,
            rel_tol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A piece's values and bars on every row by ``piece(rows)`` (values, bars
    and rounding at ``where``): a row over max(abs_tol/4, rel_tol |value|), not
    by rounding alone, scales its ``where`` by ``factor`` and takes the piece
    again, all such rows in one call, up to ``_MOVES`` times."""
    value, err, noise = piece(np.arange(where.size))
    for _ in range(_MOVES):
        share = np.maximum(abs_tol / 4.0, rel_tol * np.abs(value))
        redo = np.flatnonzero((err > share) & (noise <= share))
        if not redo.size:
            break
        where[redo] *= factor
        value[redo], err[redo], noise[redo] = piece(redo)
    return value, err


def _far_piece(u, rows: pr.Rows, s: float, c: np.ndarray, terms: list
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """int_c^inf (f(t) + f(-t)) t^{-1-2s} dt of each section f of ``rows``, a
    flat stack, by the ``terms`` of its far law on ``rows[:, None]``: values,
    bars and the bars' rounding, each ``(m,)``, and the field evaluations a
    row.  With v = c/t a term f_j of exponent alpha_j gives c^{-2s} int_0^1
    v^{alpha_j} (f_j(c/v) + f_j(-c/v)) v^{a-1} dv, a = 2s - alpha_j, whose
    integrand is analytic on [0, 1] (singular at |v| >= 2 for c >= 2R + 1):
    the value and check rules for the weight u^{a-1} take it.  The bar adds
    each term's gap and 8 eps of the value sum's absolute terms, which at
    small s, with a weight ~1/a at the node nearest 0, nearly cancel -u(x)
    c^{-2s}/s."""
    total, gap, size = np.zeros((3, len(rows)))
    rule_size = _RULE_NODES + _CHECK_NODES
    for alpha, line in terms:
        # one rule per distinct exponent, gathered to its rows
        alpha = np.broadcast_to(alpha, (len(rows), 1))[:, 0]
        exponents = np.unique(alpha) if np.any(alpha != alpha[:1]) else alpha[:1]
        table = np.reshape([_rules(2.0 * s - e, e) for e in exponents], (-1, 2, rule_size))
        nodes, weights = np.moveaxis(table[np.searchsorted(exponents, alpha)], 1, 0)
        at = u.line(rows[:, None]) if line is None else line
        t = c[:, None] / nodes
        both = at(np.stack((t, -t)))
        wf = weights * (both[0] + both[1])
        fine = np.sum(wf[:, :_RULE_NODES], axis=1)
        total += fine
        gap += np.abs(fine - np.sum(wf[:, _RULE_NODES:], axis=1))
        size += np.sum(np.abs(wf[:, :_RULE_NODES]), axis=1)
    scale = c ** (-2.0 * s)
    noise = 8.0 * _EPS * scale * size
    return scale * total, scale * gap + noise, noise, 2 * len(terms) * rule_size


def _integrate_fan(u, rows: pr.Rows, s: float, abs_tol, rel_tol
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The directional operator of a field along each of ``rows``, a flat
    stack: its values, error bars and evaluation counts, each ``(m,)``.

    Row i is the line section x[i] + t*xi[i], seen through its four
    projections (``profiles.Rows``); ``abs_tol`` and ``rel_tol`` are each
    one tolerance, or one per row.  Every field evaluation is ``u.line`` or
    a far-law term on the rows' arrays, which broadcast against the nodes
    ``t``, so one call serves nodes of many sections.  Each integral splits
    into (i) a near piece on ``(0, h)``, h = top = min(window/2, 1) or a
    quarter of it or less: the analytic piece of the section's second
    derivative and a fixed Gauss-Jacobi rule on the Taylor remainder, (ii)
    core panels between h, the breakpoint radii beyond top and c, and (iii)
    a far piece on ``(c, inf)``, a fixed Gauss-Jacobi rule on the far law
    (``_far_piece``).  c is the larger of 2b + 1 for the largest radius b
    (or 1 or 2*top), clear of the kink at b, and 2R + 1 for the law's
    radius R, or four times that or more.  The pieces (ii) of every section
    are one ``integrate_batch`` call, the fan's only one, each from two
    equal panels, since nearly all would be cut in their first round anyway.

    A field with ``far_part`` shows in ``line`` only the part of each
    section near its point; ``u.far_part`` of all rows adds the rest in
    closed form, value to value and error to bar.  u(x), the C^2 radius, the
    breakpoints, the far law and ``d2_along`` each come from one call on all
    rows.  A row's C^2 window is its point's C^2 radius capped at its nearest
    breakpoint; without ``d2_along`` the second derivatives of all rows come
    from one call of finite differences inside their windows, and their
    error bound, weighted as the near piece carries it, goes into the bar,
    as is a heuristic floor for its pair's rounding (each value within ~1
    ulp of |u(x)|; no bound where u is ill conditioned in |x + t xi|^2).
    The rows' breakpoint radii are sorted and their repeats dropped here, for every field.

    A row's count is its field evaluations: u(0), the finite differences,
    and two per node (at t and -t) of each pass of the near rules, of each
    term's far rules and of the engine.  Metadata (breakpoints, C^2 radius,
    the far law's radii and exponents) and ``far_part`` are not counted.
    """
    _check_s(s)
    if not hasattr(u, "far_law"):
        raise TypeError(f"{type(u).__name__} declares no far law")
    m = len(rows)
    all_rows = np.arange(m)
    abs_tol = np.full(m, abs_tol, float)
    rel_tol = np.full(m, rel_tol, float)

    radii = np.abs(u.breakpoints(rows))
    window = np.minimum(u.c2_radius(rows), np.min(radii, axis=1, initial=np.inf))
    if np.any(window <= 0.0):
        raise ValueError("the C^2 window of every direction must be positive")
    top = np.minimum(window / 2.0, 1.0)
    # a row's core cuts: h, its breakpoint radii beyond top, sorted and without
    # repeats (all lie beyond the window), and c
    above = np.sort(np.where(radii > top[:, None], radii, np.inf), axis=1)
    keep = np.isfinite(above)
    keep[:, 1:] &= above[:, 1:] != above[:, :-1]
    largest = np.max(above, axis=1, where=keep, initial=-np.inf)
    core_end = np.maximum(np.maximum(1.0, 2.0 * top), 2.0 * largest + 1.0)
    radius, terms = u.far_law(rows[:, None], core_end[:, None])
    alpha = max(float(np.max(a, initial=-np.inf)) for a, _ in terms)
    if not alpha < 2.0 * s:  # false for NaN too
        raise GrowthViolation(f"far exponent {alpha} >= 2s = {2*s}")
    c = np.maximum(core_end, 2.0 * np.ravel(radius) + 1.0)

    closed, closed_err = u.far_part(rows, s) if hasattr(u, "far_part") else (0.0, 0.0)
    u0 = u.line(rows)(0.0)
    two_u0 = 2.0 * u0

    def ev(t: np.ndarray, which: np.ndarray) -> np.ndarray:
        return u.line(rows[which])(t)

    def pair(t: np.ndarray, which: np.ndarray) -> np.ndarray:
        both = ev(np.stack((t, -t)), which)
        return both[0] + both[1] - two_u0[which]

    n_evals = np.ones(m, int)
    d2_fn = getattr(u, "d2_along", None)
    if d2_fn is not None:
        d2, d2_err = d2_fn(rows), np.zeros(m)
    else:
        # central differences at h = window/8, h/2 and h/4, Richardson-extrapolated
        # twice; the error of the once-extrapolated one at h/2 bounds the result's
        nodes = np.multiply.outer(window, _FD_NODES)
        v = ev(nodes, all_rows[:, None])
        central = (v[:, 1::2] + v[:, 2::2] - 2.0 * v[:, :1]) / (nodes[:, 1::2] * nodes[:, 1::2])
        once = (4.0 * central[:, 1:] - central[:, :-1]) / 3.0
        d2 = (16.0 * once[:, 1] - once[:, 0]) / 15.0
        # the finest differences' rounding enters d2 with weight 64/45
        noise = 4.0 * _EPS * np.sum(np.abs(v[:, [0, 0, 5, 6]]), axis=1) / nodes[:, 5] ** 2
        d2_err = np.abs(once[:, 1] - once[:, 0]) / 15.0 + 64.0 / 45.0 * noise
        n_evals += _FD_NODES.size

    # The near piece on (0, h).  With u = (t/h)^2 and G(u) = pair(h sqrt(u))/u,
    # so G(0) = h^2 d2, int_0^h pair(t) t^{-1-2s} dt is
    #   h^{-2s}/2 [G(0)/(1-s) + int_0^1 (G(u) - G(0))/u u^{1-s} du],
    # the integral by the rules for the weight u^{1-s}.  The bar adds their
    # gap, the pair's rounding (4 eps |u(x)| a node, weighted by sum
    # w_i/u_i^2) and d2's error times h^2 |1/(1-s) - sum w_i/u_i|, the rule's
    # defect on 1/u, all of d2 the value keeps.  A row over its share takes h/4.
    rule_u, rule_w = _rules(2.0 - s)
    fine_u, fine_w = rule_u[:_RULE_NODES], rule_w[:_RULE_NODES]
    head = 1.0 / (1.0 - s)
    d2_weight = abs(head - np.sum(fine_w / fine_u))
    rounding = 4.0 * _EPS * np.abs(u0) * np.sum(fine_w / (fine_u * fine_u))
    h = top.copy()

    def near(which: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        hw = h[which]
        g0 = hw * hw * d2[which]
        g = (pair(hw[:, None] * np.sqrt(rule_u), which[:, None]) / rule_u - g0[:, None]) / rule_u
        n_evals[which] += 2 * rule_u.size
        fine = np.sum(g[:, :_RULE_NODES] * fine_w, axis=1)
        check = np.sum(g[:, _RULE_NODES:] * rule_w[_RULE_NODES:], axis=1)
        half = hw ** (-2.0 * s) / 2.0
        noise = half * rounding[which]
        return (half * (g0 * head + fine),
                half * (np.abs(fine - check) + d2_err[which] * hw * hw * d2_weight) + noise,
                noise)

    near_val, near_err = _settle(near, h, 0.25, abs_tol, rel_tol)

    # the far piece: -u(x) c^{-2s}/s exactly, and _far_piece; a row over its
    # share moves c out fourfold
    def far(which: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        law = terms if which.size == m else u.far_law(rows[which, None], core_end[which, None])[1]
        value, bar, noise, count = _far_piece(u, rows[which], s, c[which], law)
        n_evals[which] += count
        tail = u0[which] * c[which] ** (-2.0 * s) / s
        tail_noise = 8.0 * _EPS * np.abs(tail)
        return value - tail, bar + tail_noise, noise + tail_noise

    far_val, far_err = _settle(far, c, 4.0, abs_tol, rel_tol)

    # pieces between breakpoint radii, each on a quintic smoothstep map of
    # (0, 1): algebraic kinks |t - endpoint|^kappa become C^2-or-better, so
    # the rule converges at full rate even for Hoelder-rough sections
    keep = np.column_stack((np.ones(m, bool), keep, np.ones(m, bool)))
    flat = np.column_stack((h, above, c))[keep]
    sizes = np.count_nonzero(keep, axis=1)
    firsts = np.delete(np.arange(flat.size), np.cumsum(sizes) - 1)
    core_rows = np.repeat(all_rows, sizes - 1)
    p = 1.0 + 2.0 * s
    start = flat[firsts]
    length = flat[firsts + 1] - start

    def pieces(z: np.ndarray, group: np.ndarray) -> np.ndarray:
        w = z * z * z * (10.0 + z * (-15.0 + 6.0 * z))
        dw = 30.0 * z * z * (1.0 - z) * (1.0 - z)
        t = start[group] + length[group] * w
        return pair(t, core_rows[group]) / t**p * length[group] * dw

    n_core = core_rows.size
    v, e, n = integrate_batch(pieces, np.zeros(n_core), np.ones(n_core),
                              abs_tol[core_rows] / (4.0 * sizes[core_rows]), rel_tol[core_rows], 2)
    n_evals += 2 * np.bincount(core_rows, n, m).astype(int)  # pair: two evals a node

    # bincount adds up each section's core pieces in their order
    value = near_val + np.bincount(core_rows, v, m) + far_val + closed
    err = near_err + np.bincount(core_rows, e, m) + far_err + closed_err
    # f(t) + f(-t) - 2u(x) cancels to O(t^2) but rounds at ~1 ulp of |u(x)|
    # a term where u is well conditioned: a heuristic floor of 4 eps |u(x)|
    # int_h^inf t^{-1-2s} dt on the bar for the pieces above h
    err = np.maximum(err, 4.0 * _EPS * np.abs(u0) * h ** (-2.0 * s) / (2.0 * s))
    Cs = normalizing_constant(s)
    return value * Cs, err * abs(Cs), n_evals


def row_sums(u, rows: pr.Rows, s: float,
             tol: Tolerance | Sequence[Tolerance] = Tolerance()) -> list[QuadResult]:
    """Sum of directional operators at each point over its sections: ``rows``
    of shape ``(P, k)`` holds point i's k sections in row i, and all P*k are
    one batch, so each round of subdivision calls the field once.  ``tol`` is
    one ``Tolerance``, or one per point.  Each sum adds its point's sections
    in order, starting from 0."""
    P, k = rows.b.shape
    tols = [tol] * P if isinstance(tol, Tolerance) else tol
    value, err, n_evals = _integrate_fan(
        u, pr.Rows(*(np.ravel(a) for a in (rows.b, rows.d2, rows.x_n, rows.xi_n))), s,
        np.repeat([t.abs_tol for t in tols], k), np.repeat([t.rel_tol for t in tols], k))
    # cumsum adds in order, from the zero column as Python's sum starts from 0
    sums = [np.cumsum(np.column_stack((np.zeros(P, a.dtype), a.reshape(P, k))), axis=1)[:, -1]
            for a in (value, err, n_evals)]
    return [QuadResult(*r) for r in zip(*(a.tolist() for a in sums))]


def directional(u, x: np.ndarray, xi: np.ndarray, s: float,
                tol: Tolerance = Tolerance()) -> QuadResult:
    """Directional operator of a field at a point along a vector, made unit:
    ``row_sums`` of one row."""
    return row_sums(u, _fan_rows(x, np.reshape(xi, (1, 1, -1))), s, tol)[0]


# the older name, still looked up by perfbench's tracer; the package calls ``directional``
directional_at = directional


def frame_sum(u, x: np.ndarray, frame: Frame, s: float,
              tol: Tolerance = Tolerance()) -> QuadResult:
    """Sum of directional operators over the vectors of a frame: ``row_sums`` of its rows at x."""
    return row_sums(u, _fan_rows(x, frame.vectors[None]), s, tol)[0]


# ---------------------------------------------------------------------------
# frames, and rows of frames from their projections
# ---------------------------------------------------------------------------

def householder_rows(x: np.ndarray) -> pr.Rows:
    """The N rows through each point ``x``, ``(N,)`` or a stack ``(P, N)``, along
    the basis xi_i = H e_i, H = I - 2 w w^T the reflection of the all-ones
    direction onto xhat, by their projections in O(N): x.xi_i = x_i - 2 w_i
    (w.x) = |x|/sqrt(N), d_i^2 = |x|^2 - (x.xi_i)^2 and xi_i.e_N = delta_iN -
    2 w_i w_N; shape that of ``x``.  A zero or non-finite point makes its w
    NaN, which the check that w is unit refuses (ValueError).
    """
    x = np.asarray(x, float)
    flat = x.reshape(-1, x.shape[-1])
    squares = pr._dot(flat, flat)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = flat / np.sqrt(squares)[:, None] - 1.0 / math.sqrt(flat.shape[1])
        wn = np.sqrt(pr._dot(w, w))[:, None]
        w = np.where(wn < 1e-14, 0.0, w / wn)  # x along the all-ones direction: H = I
    defect = np.max(np.where(wn[:, 0] < 1e-14, 0.0, np.abs(pr._dot(w, w) - 1.0)))
    if not defect <= 1e-12:  # false for NaN too
        raise ValueError(f"orthonormality defect {defect:.2e} exceeds 1e-12")
    b = flat - 2.0 * w * pr._dot(w, flat)[:, None]
    xi_n = -2.0 * w[:, -1:] * w
    xi_n[:, -1] += 1.0
    d2 = np.maximum(squares[:, None] - b * b, 0.0)
    x_n = np.repeat(flat[:, -1:], flat.shape[1], axis=1)
    return pr.Rows(*(a.reshape(x.shape) for a in (b, d2, x_n, xi_n)))


def _radial_rows(x: np.ndarray, cosines: np.ndarray) -> pr.Rows:
    """The rows through ``x`` along xi = c xhat + sqrt(1 - c^2) v for each
    cosine c, by their projections in O(N): b = |x| c, d^2 = |x|^2 (1 - c^2)
    and xi_N.  v = (e_j - xhat_j xhat) / sqrt(1 - xhat_j^2) for the j of least
    |xhat_j|, so 1 - xhat_j^2 >= 1 - 1/N (xhat itself when N = 1), is a unit
    vector orthogonal to xhat.  A zero or non-finite ``x`` makes xhat NaN,
    which the check that xhat is unit refuses (ValueError).
    """
    x = np.asarray(x, float)
    nx = float(np.linalg.norm(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        xhat = x / nx
    _check_orthonormal(xhat[None])
    j = int(np.argmin(np.abs(xhat)))
    v_n = (((j == x.size - 1) - xhat[j] * xhat[-1]) / math.sqrt(1.0 - xhat[j] ** 2)
           if x.size > 1 else xhat[-1])
    sines = np.sqrt(1.0 - cosines**2)
    return pr.Rows(nx * cosines, (nx * sines) ** 2, np.full(cosines.shape, x[-1]),
                   cosines * xhat[-1] + sines * v_n)


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
    if variant == "plus":
        if not 1 <= k <= N:
            raise ValueError(f"k must lie in 1..N = {N}")
        radial, *across = row_sums(profile, _radial_rows(x, np.array([1.0, 0.0])[:k, None]),
                                   s, tol)
        return radial + across[0].scale(float(k - 1)) if across else radial
    if variant == "minus_full":
        if k != N:
            raise HypothesisViolation("variant minus_full requires k = N")
        return row_sums(profile, householder_rows(x)[None, :1], s, tol)[0].scale(float(N))
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
    from the rows of 65 cosines in one ``row_sums`` call, serves every frame
    during the search.  A zero or non-finite x raises ``ValueError``.
    """
    table = row_sums(u, _radial_rows(x, np.linspace(0.0, 1.0, 65)[:, None]), s, tol)
    return (_not_a_knot_spline(np.array([r.value for r in table])),
            max(r.abs_error_estimate for r in table))


def _search_objective(u, x: np.ndarray, s: float, k: int, tol: Tolerance
                      ) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The search objective: a stack of frames ``(m, k, N)`` -> their frame sums
    and error bars, each of shape ``(m,)``.

    Radial fields read the sums off the ``_radial_spline`` table, each
    vector with the table's largest bar; other fields integrate the ``(m, k)``
    rows of the frames in one ``row_sums`` call, a frame's bar the sum of its
    rows' bars.
    """
    if getattr(u, "is_radial", False):
        spline, bar = _radial_spline(u, x, s, tol)
        xhat = x / np.linalg.norm(x)
        return lambda frames: (spline(np.minimum(np.abs(frames @ xhat), 1.0)).sum(axis=1),
                               np.full(frames.shape[0], k * bar))

    def objective(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sums = row_sums(u, _fan_rows(x, frames), s, tol)
        return np.array([(r.value, r.abs_error_estimate) for r in sums]).T
    return objective


# Each Givens rotation scores _ANGLE_GRID equispaced angles over [0, pi), a
# ring: the objective is pi-periodic in the angle, since I_xi = I_{-xi}, and
# angle 0 is the frame's current score.  The rings only scan; one method then
# refines each search.  With one angle (N = 2) the zoom brackets it: each
# level's grid spans _ZOOM_POINTS angles across the two spacings around the
# best angle so far, so each level is 8 times narrower, and a best angle on
# an edge recentres the grid at the same width.  It stops when the best angle's
# drop to the lower of its two neighbours is at most its score's error bar:
# the optimum of a unimodal objective lies between those neighbours, where
# the gain left is at most 1/4 of that drop on a smooth peak and 1/2 on a
# Lipschitz cusp.  Other stretches end after _ZOOM_LEVELS, at spacings of
# 1.4e-12 rad: a min field's peak at xi_N = 0 falls as |angle|^{gamma+2s}
# (its sections lose their far half-space tails), and under bars of ~1e-13
# ten levels stopped 4.3e-10 below such a peak.
_ANGLE_GRID = 32
_ZOOM_POINTS = 17
_ZOOM_LEVELS = 12
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


def _zoom(score, bases: np.ndarray, best: np.ndarray, bar: np.ndarray,
          sides: np.ndarray, side_bars: np.ndarray, k: int) -> None:
    """The bracket zoom on the one angle of every restart's frame, in place.

    Each grid's centre is the best angle so far, whose score and bar are
    ``best`` and ``bar``, and its two edges are that angle's neighbours on
    the level before: at level 1 the ring's angles -+pi/_ANGLE_GRID, whose
    scores and bars are ``sides`` and ``side_bars`` ``(m, 2)``.  The zoom
    holds those scores and scores only the other angles.
    """
    m, mid, last = bases.shape[0], _ZOOM_POINTS // 2, _ZOOM_POINTS - 1
    angle, half = np.zeros(m), np.full(m, math.pi / _ANGLE_GRID)
    vals, bars = np.empty((m, _ZOOM_POINTS)), np.empty((m, _ZOOM_POINTS))
    held = np.zeros((m, _ZOOM_POINTS), bool)
    held[:, [0, last]] = True
    vals[:, [0, last]], bars[:, [0, last]] = sides, side_bars
    todo = np.arange(m)
    for _ in range(_ZOOM_LEVELS):
        held[todo, mid] = True
        vals[todo, mid], bars[todo, mid] = best[todo], bar[todo]
        grid = angle[todo, None] + half[todo, None] * _ZOOM_OFFSETS
        r, c = np.nonzero(~held[todo])
        frames = _turned(bases[todo[r]], [(0, 1)], grid[r, c, None])
        vals[todo[r], c], bars[todo[r], c] = score(frames[:, :k])
        v, e, at = vals[todo], bars[todo], np.arange(todo.size)
        # the centre is the best angle so far: it moves only on a strict gain
        g = np.argmax(v, axis=1)
        g[v[at, g] <= best[todo]] = mid
        best[todo], bar[todo], angle[todo] = v[at, g], e[at, g], grid[at, g]
        edge = (g == 0) | (g == last)
        half[todo[~edge]] *= 2.0 / last
        drop = v[at, g] - np.minimum(v[at, g - 1], v[at, (g + 1) % _ZOOM_POINTS])
        # a narrowed grid's edges are the neighbours of g; a recentred grid scores them
        held[todo] = False
        narrow, i = todo[~edge, None], at[~edge, None]
        held[narrow, [0, last]] = True
        vals[narrow, [0, last]] = v[i, g[i] + [-1, 1]]
        bars[narrow, [0, last]] = e[i, g[i] + [-1, 1]]
        todo = todo[edge | (drop > e[at, g])]
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
    search.  With d = 1 (N = 2) a bracket zoom: each level spans 17 angles
    across the two spacings around the best angle so far, 8 times narrower
    per level, and scores those whose scores it does not hold.  With d >= 2
    a trust-region polish: a quadratic model of the score in all d angles,
    fitted from 1 + 2d + d(d-1)/2 frames around the current one, and a
    truncated-CG step, a product of Givens turns, so every frame stays
    orthonormal; a step counts only when its score, read in the next call,
    is no worse.  Both stop by one rule, when the gain
    left is within the score's own error bar: the zoom when the best
    angle's drop to the lower of its neighbours is at most its bar, the
    polish when the model's predicted gain is.  The zoom makes at most twelve
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
    best, bar = score(bases[:, :k])
    # each restart's scores and bars at the angles -+pi/_ANGLE_GRID from its
    # frame, read off its last ring: the zoom's first edges
    sides, side_bars = np.empty((budget, 2)), np.empty((budget, 2))
    planes = [(i, j) for i in range(k) for j in range(i + 1, N)]
    live = np.arange(budget)
    for _ in range(sweeps):
        improved = np.zeros(live.size, bool)
        for plane in planes:
            ring = _turned(np.repeat(bases[live], _ANGLE_GRID - 1, axis=0), [plane],
                           np.tile(angles[1:], live.size)[:, None])
            vals, bars = (np.column_stack([kept[live], a.reshape(live.size, -1)])
                          for kept, a in zip((best, bar), score(ring[:, :k])))
            b = np.argmax(vals, axis=1)
            improved |= b > 0
            bases[live] = _turned(bases[live], [plane], angles[b, None])
            at = np.arange(live.size)
            best[live], bar[live] = vals[at, b], bars[at, b]
            # the ring is pi-periodic: column 0 is angle pi too
            near = at[:, None], (b[:, None] + [-1, 1]) % _ANGLE_GRID
            sides[live], side_bars[live] = vals[near], bars[near]
        live = live[improved]
        if not live.size:
            break
    if len(planes) == 1:
        _zoom(score, bases, best, bar, sides, side_bars, k)
    elif planes:
        _polish(score, bases, best, live, k)
    best_vecs = bases[int(np.argmax(best)), :k]

    # re-orthonormalize (Givens updates are orthogonal, this scrubs roundoff)
    q, r = np.linalg.qr(best_vecs.T)
    q = q * np.sign(np.diag(r))
    best_frame = Frame(q.T)
    final = frame_sum(u, x, best_frame, s, tol)
    return final, best_frame
