"""The package's one quadrature engine, ``integrate_batch``.

``integrate_batch`` is adaptive subdivision with QUADPACK's G10/K21 rule
over many integrals at once, each round evaluating every open panel in one
call of a vectorised integrand.  A round costs about the same whether it
holds 2 panels or 80, so the engine saves rounds: each integral starts from
the equal panels its caller plans, and a failing panel whose error exceeds
its share of the tolerance 2^8-fold is cut in four in one round, any other
failing panel in two.  The directional operator takes each field section's
two ends by fixed Gauss-Jacobi rules and hands the core panels between them
to it in one call, as two panels each; the constants run no quadrature.
``Tolerance`` is an accuracy request, ``QuadResult`` a value with its error
estimate and evaluation count.

``integrate`` and ``integrate_pv`` are names only: stubs that raise, kept
bound here and in ``constants`` because perfbench's tracer looks them up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NoReturn

import numpy as np

__all__ = [
    "QuadResult",
    "Tolerance",
    "integrate_batch",
]


@dataclass(frozen=True)
class Tolerance:
    """Accuracy request for a single integral."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        # chained comparisons are false for NaN, so NaN is rejected too
        if not (0.0 < self.abs_tol < math.inf and 0.0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be finite and positive")


@dataclass
class QuadResult:
    """Value of an integral together with a rigorous-style error estimate."""

    value: float
    abs_error_estimate: float
    n_evals: int

    def __add__(self, other: "QuadResult") -> "QuadResult":
        return QuadResult(
            self.value + other.value,
            self.abs_error_estimate + other.abs_error_estimate,
            self.n_evals + other.n_evals,
        )

    def scale(self, factor: float) -> "QuadResult":
        return QuadResult(
            self.value * factor,
            self.abs_error_estimate * abs(factor),
            self.n_evals,
        )


# QUADPACK's qk21 rule (Piessens et al., 1983): the 21-point Kronrod
# extension of the 10-point Gauss rule on [-1, 1].  _XGK holds the positive
# Kronrod nodes in descending order, the Gauss nodes being _XGK[1::2].
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077589876803245, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
GK21_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
GK21_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
G10_WEIGHTS = np.zeros(21)
G10_WEIGHTS[1:10:2] = _WG
G10_WEIGHTS[11:20:2] = _WG[::-1]
_EPS = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)
_ROUNDOFF_LIMIT = 6  # QUADPACK qage: six stalled cuts end an integral
_PANEL_LIMIT = 250  # panels per integral, scipy quad's ``limit``
_PANELS_PER_CALL = 1024  # 21.5k nodes: under 1 MB per array the integrand builds
# a failing panel whose error exceeds its share this many times is cut in four,
# two levels of bisection in one round, instead of in two.  Against 2^8, on
# ten certify passes, 2^4 cut too often (+7% nodes for 4% fewer rounds) and
# 2^16 too seldom (+16% rounds for 4% fewer nodes)
_QUARTER_RATIO = 2.0**8


def _gk21(f: Callable[[np.ndarray, np.ndarray], np.ndarray], lo: np.ndarray,
          hi: np.ndarray, group: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One round: qk21 on every panel, its values, error estimates and ``resasc``.

    The integrand sees at most ``_PANELS_PER_CALL`` panels per call, which
    bounds the memory of one call however many integrals are in the batch.
    """
    parts = [_qk21(f, lo[i:i + _PANELS_PER_CALL], hi[i:i + _PANELS_PER_CALL],
                   group[i:i + _PANELS_PER_CALL])
             for i in range(0, max(lo.size, 1), _PANELS_PER_CALL)]
    return parts[0] if len(parts) == 1 else tuple(np.concatenate(p) for p in zip(*parts))


def _qk21(f: Callable[[np.ndarray, np.ndarray], np.ndarray], lo: np.ndarray,
          hi: np.ndarray, group: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """qk21 on the panels of one integrand call."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fv = f(center[:, None] + half[:, None] * GK21_NODES, group[:, None])
    resk = fv @ GK21_WEIGHTS
    resg = fv @ G10_WEIGHTS
    resabs = np.abs(fv) @ GK21_WEIGHTS * half
    resasc = np.abs(fv - 0.5 * resk[:, None]) @ GK21_WEIGHTS * half
    err = np.abs(resk - resg) * half
    scaled = resasc > 0.0
    ratio = 200.0 * err / np.where(scaled, resasc, 1.0)
    err = np.where(scaled & (err > 0.0), resasc * np.minimum(1.0, ratio) ** 1.5, err)
    err = np.where(resabs > _UFLOW / (50.0 * _EPS), np.maximum(50.0 * _EPS * resabs, err), err)
    return resk * half, err, resasc


def _cut(lo: np.ndarray, hi: np.ndarray, four: np.ndarray
         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every panel cut in two equal panels, or in four where ``four``: the
    children's ends and the index of each child's parent.  The children come
    as every parent's first half (or quarter), then its second half (or
    third quarter), then the quartered parents' second and fourth quarters.
    A cut in four is two levels of bisection, with the midpoints those take."""
    mid = 0.5 * (lo + hi)
    q = np.flatnonzero(four)
    first_end, second_end = mid.copy(), hi.copy()
    first_end[q], second_end[q] = 0.5 * (lo[q] + mid[q]), 0.5 * (mid[q] + hi[q])
    parent = np.arange(lo.size)
    return (np.concatenate((lo, mid, first_end[q], second_end[q])),
            np.concatenate((first_end, second_end, mid[q], hi[q])),
            np.concatenate((parent, parent, q, q)))


def integrate_batch(f: Callable[[np.ndarray, np.ndarray], np.ndarray], a: np.ndarray,
                    b: np.ndarray, abs_tol: np.ndarray, rel_tol: float | np.ndarray,
                    panels: int | np.ndarray = 1
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adaptive G10/K21 quadrature of many integrals in one numpy pass per round.

    Integral ``g`` runs over ``(a[g], b[g])`` and starts as ``panels[g]``
    equal panels (one count may serve all integrals).  ``f(x, group)`` is
    called with the nodes of P panels, shape ``(P, 21)``, and the integral
    index of each panel, shape ``(P, 1)``, and returns the integrand at
    every node.  Each round evaluates every open panel in one call, or in
    calls of 1024 panels when there are more.  An integral is done once its
    summed error estimate is at most ``max(abs_tol[g], rel_tol[g]*|value|)``
    (either tolerance may be one value for all integrals); until then each of
    its panels whose error exceeds its width's share of that tolerance is
    cut: in four equal panels when the error exceeds the share
    ``_QUARTER_RATIO``-fold, else in two.  The cut reads only the panel's
    own error and share, so an integral refines the same way alone as in
    any batch.  As in QUADPACK's QAG, an integral also closes after six
    cuts whose children's sum leaves the parent's value unchanged to 1e-5
    without lowering the error below 0.99 of the parent's (roundoff), or
    once it holds 250 panels, every child counted.  Returns the values,
    error estimates and integrand evaluations of every integral.
    """
    a, b = np.asarray(a, float), np.asarray(b, float)
    n = a.size
    first = np.empty(n, int)
    first[:] = panels
    group = np.repeat(np.arange(n), first)
    # panel j of integral g starts at a + j w/p; each ends where the next
    # starts, and the last at b
    ends = np.cumsum(first)
    j = np.arange(group.size) - np.repeat(ends - first, first)
    width = b - a
    lo = a[group] + j * (width / first)[group]
    hi = np.empty_like(lo)
    hi[:-1] = lo[1:]
    hi[ends - 1] = b
    tol_abs = np.empty(n)
    tol_abs[:] = abs_tol
    safe_width = np.where(width > 0.0, width, 1.0)
    val, err, _ = _gk21(f, lo, hi, group)
    evals = 21 * first
    panel_count = first.copy()
    stalled = np.zeros(n, int)
    open_ = np.ones(n, bool)
    while True:
        total = np.bincount(group, val, n)
        tol = np.maximum(tol_abs, rel_tol * np.abs(total))
        open_ &= (np.bincount(group, err, n) > tol) & (panel_count < _PANEL_LIMIT) \
            & (stalled < _ROUNDOFF_LIMIT)
        share = tol[group] * (hi - lo) / safe_width[group]
        split = open_[group] & (err > share)
        if not split.any():
            break
        idx = np.flatnonzero(split)
        clo, chi, parent = _cut(lo[idx], hi[idx], err[idx] > _QUARTER_RATIO * share[idx])
        g2 = group[idx][parent]
        cv, ce, ca = _gk21(f, clo, chi, g2)
        # the roundoff test compares each parent with the sum of its children
        k = idx.size
        v12, e12 = np.bincount(parent, cv, k), np.bincount(parent, ce, k)
        resolved = np.bincount(parent, ce == ca, k) == 0
        stall = resolved & (np.abs(val[idx] - v12) <= 1e-5 * np.abs(v12)) \
            & (e12 >= 0.99 * err[idx])
        stalled += np.bincount(group[idx][stall], minlength=n)
        children = np.bincount(g2, minlength=n)
        evals += 21 * children
        panel_count += children - np.bincount(group[idx], minlength=n)
        keep = ~split
        lo = np.concatenate((lo[keep], clo))
        hi = np.concatenate((hi[keep], chi))
        group = np.concatenate((group[keep], g2))
        val = np.concatenate((val[keep], cv))
        err = np.concatenate((err[keep], ce))
    return np.bincount(group, val, n), np.bincount(group, err, n), evals


# perfbench's tracer looks these names up in quad and in constants; nothing calls them
def integrate(*args, **kwargs) -> NoReturn:
    """No planned 1-D quadrature is taken here: raises ``NotImplementedError``."""
    raise NotImplementedError("quad's one engine is integrate_batch")


def integrate_pv(*args, **kwargs) -> NoReturn:
    """No principal values are taken here: raises ``NotImplementedError``."""
    raise NotImplementedError("quad has no principal-value path")
