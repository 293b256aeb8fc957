"""The package's one quadrature engine, ``integrate_batch``.

``integrate_batch`` is adaptive bisection with QUADPACK's G10/K21 rule over
many integrals at once, each round evaluating every open panel in one call
of a vectorised integrand.  The directional operator plans the pieces of
every field section (a Taylor ladder, core panels, a log-substituted far
panel, an analytic tail) and hands them to it; the constants run no
quadrature.  ``Tolerance`` is an accuracy request, ``QuadResult`` a value
with its error estimate and evaluation count.

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
_ROUNDOFF_LIMIT = 6  # QUADPACK qage: six stalled bisections end an integral
_PANEL_LIMIT = 250  # panels per integral, scipy quad's ``limit``
_PANELS_PER_CALL = 1024  # 21.5k nodes: under 1 MB per array the integrand builds


def _gk21(f: Callable[[np.ndarray, np.ndarray], np.ndarray], lo: np.ndarray,
          hi: np.ndarray, group: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """qk21 on every panel: values, error estimates and ``resasc``.

    The integrand sees at most ``_PANELS_PER_CALL`` panels per call, which
    bounds the memory of one call however many integrals are in the batch.
    """
    if lo.size > _PANELS_PER_CALL:
        parts = [_gk21(f, lo[i:i + _PANELS_PER_CALL], hi[i:i + _PANELS_PER_CALL],
                       group[i:i + _PANELS_PER_CALL])
                 for i in range(0, lo.size, _PANELS_PER_CALL)]
        return tuple(np.concatenate(part) for part in zip(*parts))
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


def integrate_batch(f: Callable[[np.ndarray, np.ndarray], np.ndarray], a: np.ndarray,
                    b: np.ndarray, abs_tol: np.ndarray,
                    rel_tol: float | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adaptive G10/K21 quadrature of many integrals in one numpy pass per round.

    Integral ``g`` runs over ``(a[g], b[g])``.  ``f(x, group)`` is called with
    an array of nodes of shape ``(panels, 21)`` and the integral index of each
    panel, shape ``(panels, 1)``, and returns the integrand at every node.
    Each round evaluates every open panel in one call, or in calls of 1024
    panels when there are more.  An integral is done once its summed error
    estimate is at most ``max(abs_tol[g], rel_tol[g]*|value|)`` (either
    tolerance may be one value for all integrals); until then
    each of its panels whose error exceeds its width's share of that
    tolerance is bisected.  As in QUADPACK's QAG, an
    integral also closes after six bisections that leave the value unchanged
    to 1e-5 without lowering the error below 0.99 of the parent's (roundoff),
    or once it holds 250 panels.  Returns the values, error estimates
    and integrand evaluations of every integral.
    """
    lo = np.asarray(a, float)
    hi = np.asarray(b, float)
    n = lo.size
    tol_abs = np.empty(n)
    tol_abs[:] = abs_tol
    group = np.arange(n)
    width = hi - lo
    val, err, _ = _gk21(f, lo, hi, group)
    evals = np.full(n, 21)
    panels = np.ones(n, int)
    stalled = np.zeros(n, int)
    open_ = np.ones(n, bool)
    while True:
        total = np.bincount(group, val, n)
        tol = np.maximum(tol_abs, rel_tol * np.abs(total))
        open_ &= (np.bincount(group, err, n) > tol) & (panels < _PANEL_LIMIT) \
            & (stalled < _ROUNDOFF_LIMIT)
        share = tol[group] * (hi - lo) / np.where(width > 0.0, width, 1.0)[group]
        split = open_[group] & (err > share)
        if not split.any():
            break
        idx = np.flatnonzero(split)
        mid = 0.5 * (lo[idx] + hi[idx])
        g2 = np.concatenate((group[idx], group[idx]))
        cv, ce, ca = _gk21(f, np.concatenate((lo[idx], mid)),
                           np.concatenate((mid, hi[idx])), g2)
        k = idx.size
        v12, e12 = cv[:k] + cv[k:], ce[:k] + ce[k:]
        resolved = (ce[:k] != ca[:k]) & (ce[k:] != ca[k:])
        stall = resolved & (np.abs(val[idx] - v12) <= 1e-5 * np.abs(v12)) \
            & (e12 >= 0.99 * err[idx])
        stalled += np.bincount(group[idx][stall], minlength=n)
        evals += np.bincount(g2, minlength=n) * 21
        panels += np.bincount(group[idx], minlength=n)
        keep = ~split
        lo = np.concatenate((lo[keep], lo[idx], mid))
        hi = np.concatenate((hi[keep], mid, hi[idx]))
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
