"""One-dimensional quadrature engine for improper integrals.

Handles endpoint and interior algebraic singularities, Cauchy principal
values, and algebraically decaying infinite tails.  Integrands declare their
singular structure up front; the engine subdivides at the declared points,
maps algebraic singularities to exponentially decaying smooth integrands via
the substitution ``tau = c +/- exp(-u)``, and truncates infinite tails at an
adaptively chosen point with the analytic remainder folded into the error
estimate.

``integrate_batch`` is the batched engine: adaptive bisection with
QUADPACK's G10/K21 rule over many integrals at once, each round evaluating
every open panel in one call of a vectorised integrand.  The directional
operator runs on it; the scalar ``integrate`` above still goes through
scipy's ``quad``.

Accuracy near a singular point ``c`` with exponent ``e`` (``f ~ C*d**e`` with
``d = |tau - c|``) is limited by floating-point rounding of ``c + d`` once
``d`` is tiny.  Callers that need full accuracy attach a *regular-part*
evaluator ``r(side, d)`` with ``f(c + side*d) = r(side, d) * d**e``; the
engine then never reconstructs the absolute coordinate and the substitution
is exact down to arbitrarily small distances.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import IntegrationWarning
from scipy.integrate import quad as _scipy_quad

__all__ = [
    "Integrand",
    "QuadResult",
    "Tolerance",
    "QuadError",
    "BudgetExceeded",
    "NonIntegrable",
    "NonCancelling",
    "integrate",
    "integrate_pv",
]

_LOG_HUGE = 690.0  # log of ~1e299; substitution ranges never exceed this without a regular part


class QuadError(Exception):
    """Base class for quadrature failures."""


class BudgetExceeded(QuadError):
    """Evaluation budget hit before reaching the requested tolerance."""


class NonIntegrable(QuadError):
    """A declared singular exponent <= -1 without a principal-value flag."""


class NonCancelling(QuadError):
    """The symmetric pairing around a PV point is still non-integrable."""


@dataclass(frozen=True)
class Tolerance:
    """Accuracy request for a single integral."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_evals: int = 10**7

    def __post_init__(self) -> None:
        if self.abs_tol <= 0 or self.rel_tol <= 0 or self.max_evals <= 0:
            raise ValueError("tolerances and budget must be positive")

    def scaled(self, factor: float) -> "Tolerance":
        return Tolerance(self.abs_tol * factor, self.rel_tol * factor, self.max_evals)


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


@dataclass
class Integrand:
    """A scalar integrand with declared singular structure.

    ``singular_points`` lists ``(location, exponent)`` pairs where
    ``f(location + side*d) ~ C * d**exponent`` as ``d -> 0``; exponents must be
    > -1 unless the location is also listed in ``pv_points``.  ``tail_decay``
    is an exponent ``beta`` with ``|f(tau)| <= C*tau**-beta`` for large
    ``tau``; it must exceed 1 when integration extends to +inf.

    ``regular_eval`` optionally maps a singular location to a stable
    regular-part evaluator ``r(side, d)``; ``pv_fold`` optionally maps a PV
    location ``c`` to ``(fold_exponent, g)`` where
    ``f(c+h) + f(c-h) = g(h) * h**fold_exponent`` with ``g`` bounded near 0.
    """

    eval: Callable[[float], float]
    singular_points: list[tuple[float, float]] = field(default_factory=list)
    pv_points: list[float] = field(default_factory=list)
    tail_decay: float = math.inf
    regular_eval: dict[float, Callable[[int, float], float]] = field(default_factory=dict)
    pv_fold: dict[float, tuple[float, Callable[[float], float]]] = field(default_factory=dict)

    def validate(self, to_infinity: bool) -> None:
        for loc, expo in self.singular_points:
            if expo <= -1.0 and loc not in self.pv_points:
                raise NonIntegrable(
                    f"singular point {loc} has exponent {expo} <= -1 and no PV flag"
                )
        if to_infinity and not self.tail_decay > 1.0:
            raise NonIntegrable(
                f"tail_decay {self.tail_decay} <= 1 on an infinite interval"
            )


class _Budget:
    """Shared evaluation counter enforcing Tolerance.max_evals."""

    def __init__(self, max_evals: int) -> None:
        self.max_evals = max_evals
        self.count = 0

    def wrap(self, f: Callable[[float], float]) -> Callable[[float], float]:
        def counted(t: float) -> float:
            self.count += 1
            if self.count > self.max_evals:
                raise BudgetExceeded(f"exceeded {self.max_evals} integrand evaluations")
            return f(t)

        return counted


def _panel(f: Callable[[float], float], a: float, b: float, abs_tol: float,
           rel_tol: float) -> tuple[float, float]:
    """Adaptive Gauss-Kronrod on a finite panel with a nested-rule error."""
    if b <= a:
        return 0.0, 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, err = _scipy_quad(f, a, b, epsabs=abs_tol, epsrel=rel_tol, limit=250)
    return value, err


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


def _gk21(f: Callable[[np.ndarray, np.ndarray], np.ndarray], lo: np.ndarray,
          hi: np.ndarray, group: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """qk21 on every panel at once: values, error estimates and ``resasc``."""
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
                    rel_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adaptive G10/K21 quadrature of many integrals in one numpy pass per round.

    Integral ``g`` runs over ``(a[g], b[g])``.  ``f(x, group)`` is called with
    an array of nodes of shape ``(panels, 21)`` and the integral index of each
    panel, shape ``(panels, 1)``, and returns the integrand at every node.
    Each round evaluates every open panel in one call.  An integral is done
    once its summed error estimate is at most ``max(abs_tol[g],
    rel_tol*|value|)``; until then each of its panels whose error exceeds its
    width's share of that tolerance is bisected.  As in QUADPACK's QAG, an
    integral also closes after six bisections that leave the value unchanged
    to 1e-5 without lowering the error below 0.99 of the parent's (roundoff),
    or once it holds 250 panels.  Returns the values, error estimates
    and integrand evaluations of every integral.
    """
    lo = np.asarray(a, float)
    hi = np.asarray(b, float)
    n = lo.size
    tol_abs = np.broadcast_to(np.asarray(abs_tol, float), (n,))
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


def _singular_piece(r: Callable[[float], float], exponent: float, length: float,
                    abs_tol: float, rel_tol: float) -> tuple[float, float]:
    """integral_0^length r(d) * d**exponent dd  via d = exp(-u).

    ``r`` must be bounded near 0; the transformed integrand
    ``r(exp(-u)) * exp(-(1+exponent)*u)`` decays exponentially, so the finite
    truncation remainder is bounded analytically and added to the error.
    """
    om = 1.0 + exponent
    u0 = -math.log(length)
    probe = abs(r(min(length / 2.0, 1e-30))) + 1.0
    u1 = max(u0 + 1.0, math.log(8.0 * probe / (abs_tol * om)) / om)

    def g(u: float) -> float:
        return r(math.exp(-u)) * math.exp(-om * u)

    value, err = _panel(g, u0, u1, abs_tol, rel_tol)
    remainder = abs(r(math.exp(-u1))) * math.exp(-om * u1) / om
    return value, err + remainder


def _default_regular(f: Integrand, loc: float, expo: float) -> Callable[[int, float], float]:
    """Regular part recovered from direct evaluation.

    Loses accuracy once ``loc + side*d`` rounds to ``loc``; the substitution
    range is capped accordingly and the cap's remainder lands in the error
    estimate.
    """

    def r(side: int, d: float) -> float:
        return f.eval(loc + side * d) * d ** (-expo)

    return r


def _sing_adjacent(f: Integrand, loc: float, expo: float, side: int, length: float,
                   abs_tol: float, rel_tol: float,
                   budget: _Budget) -> tuple[float, float]:
    """Integrate the panel of given length touching ``loc`` from one side."""
    custom = f.regular_eval.get(loc)
    if custom is not None:
        r = budget.wrap(lambda d: custom(side, d))
        return _singular_piece(r, expo, length, abs_tol, rel_tol)
    # Direct evaluation: keep distances above the rounding floor of loc.
    floor = max(1e-15, 4.0 * abs(loc) * 2.3e-16)
    raw = _default_regular(f, loc, expo)
    r = budget.wrap(lambda d: raw(side, d))
    om = 1.0 + expo
    u0 = -math.log(length)
    u1 = min(-math.log(floor), max(u0 + 1.0, math.log(8.0 / (abs_tol * om)) / om))

    def g(u: float) -> float:
        return r(math.exp(-u)) * math.exp(-om * u)

    value, err = _panel(g, u0, u1, abs_tol, rel_tol)
    remainder = abs(r(math.exp(-u1))) * math.exp(-om * u1) / om
    return value, err + remainder


def _tail(f_counted: Callable[[float], float], start: float, beta: float,
          abs_tol: float, rel_tol: float) -> tuple[float, float]:
    """integral_start^inf with |f| <= C*tau**-beta, beta > 1.

    The truncation point is chosen so the analytic remainder
    ``C*T**(1-beta)/(beta-1)`` is at most abs_tol/4.  Past T the integrand is
    taken as ``f(T)*(tau/T)**-beta`` (beta is the exact leading exponent), so
    the signed remainder ``f(T)*T/(beta-1)`` is added to the value and its
    magnitude to the error; this matters when the floating-point range caps
    T before the remainder is small.
    """
    # Probe several points: a single sample can land on a zero of f.
    coeff = max(abs(f_counted(start * m)) * (start * m) ** beta
                for m in (1.0, 1.7, 2.9, 5.3))
    if coeff == 0.0:
        coeff = abs_tol
    log_T = (math.log(4.0 * coeff / (abs_tol * (beta - 1.0)))) / (beta - 1.0)
    log_T = min(max(log_T, math.log(start) + 1.0), _LOG_HUGE)

    def g(u: float) -> float:
        t = math.exp(u)
        return f_counted(t) * t

    value, err = _panel(g, math.log(start), log_T, abs_tol, rel_tol)
    T = math.exp(log_T)
    remainder = f_counted(T) * T / (beta - 1.0)
    return value + remainder, err + abs(remainder)


def _reflected(f: Integrand) -> Integrand:
    """The integrand tau -> f(-tau) with mirrored declarations."""
    regular = {
        -loc: (lambda fn: (lambda side, d: fn(-side, d)))(fn)
        for loc, fn in f.regular_eval.items()
    }
    return Integrand(
        eval=lambda t: f.eval(-t),
        singular_points=[(-loc, expo) for loc, expo in f.singular_points],
        pv_points=[-loc for loc in f.pv_points],
        tail_decay=f.tail_decay,
        regular_eval=regular,
        pv_fold={-loc: fe for loc, fe in f.pv_fold.items()},
    )


def integrate(f: Integrand, a: float, b: float, tol: Tolerance = Tolerance()) -> QuadResult:
    """Integrate ``f`` over ``(a, b)``; ``b`` may be +inf, ``a`` may be -inf.

    Subdivides at declared singular and PV points, applies the exponential
    substitution next to singularities, folds interior PV points
    symmetrically, and truncates the infinite tail with an analytic remainder
    bound included in the error estimate.
    """
    if a > b:
        raise ValueError("interval endpoints must be ordered")
    if math.isinf(a) and math.isinf(b):
        mid = 0.0
        return integrate(f, a, mid, tol.scaled(0.5)) + integrate(f, mid, b, tol.scaled(0.5))
    if math.isinf(a):
        return integrate(_reflected(f), -b, math.inf, tol)

    f.validate(to_infinity=math.isinf(b))
    budget = _Budget(tol.max_evals)
    counted = budget.wrap(f.eval)

    interior_pv = [c for c in f.pv_points if a < c < (b if not math.isinf(b) else math.inf)]
    sing = {loc: expo for loc, expo in f.singular_points}

    # breakpoints partition the finite part of the interval
    finite_end = b
    if math.isinf(b):
        candidates = [abs(a) + 1.0, 2.0]
        candidates += [abs(loc) + 1.0 for loc in sing]
        candidates += [abs(c) + 1.0 for c in interior_pv]
        finite_end = max(candidates)

    cuts = {a, finite_end}
    pv_windows: list[tuple[float, float]] = []  # (center, halfwidth)
    for c in interior_pv:
        others = [p for p in (set(sing) | set(interior_pv) | {a, finite_end}) if p != c]
        gap = min(abs(c - p) for p in others) if others else 1.0
        hw = min(0.5, gap / 2.0)
        pv_windows.append((c, hw))
        cuts.add(c - hw)
        cuts.add(c + hw)
    for loc in sing:
        if a < loc < finite_end:
            cuts.add(loc)
        elif loc in (a, finite_end):
            cuts.add(loc)
    grid = sorted(p for p in cuts if a <= p <= finite_end)

    n_pieces = max(len(grid) + 1, 3)
    piece_abs = tol.abs_tol / n_pieces

    total = 0.0
    total_err = 0.0
    pv_spans = [(c - hw, c + hw) for c, hw in pv_windows]

    def in_pv_window(lo: float, hi: float) -> bool:
        mid = 0.5 * (lo + hi)
        return any(lo >= wlo - 1e-300 and hi <= whi + 1e-300 and wlo <= mid <= whi
                   for wlo, whi in pv_spans)

    for lo, hi in zip(grid[:-1], grid[1:]):
        if hi - lo <= 0 or in_pv_window(lo, hi):
            continue
        lo_sing = sing.get(lo)
        hi_sing = sing.get(hi)
        width = hi - lo
        if lo_sing is not None and hi_sing is not None:
            third = width / 3.0
            v1, e1 = _sing_adjacent(f, lo, lo_sing, +1, third, piece_abs, tol.rel_tol, budget)
            v2, e2 = _panel(counted, lo + third, hi - third, piece_abs, tol.rel_tol)
            v3, e3 = _sing_adjacent(f, hi, hi_sing, -1, third, piece_abs, tol.rel_tol, budget)
            total += v1 + v2 + v3
            total_err += e1 + e2 + e3
        elif lo_sing is not None:
            half = width / 2.0
            v1, e1 = _sing_adjacent(f, lo, lo_sing, +1, half, piece_abs, tol.rel_tol, budget)
            v2, e2 = _panel(counted, lo + half, hi, piece_abs, tol.rel_tol)
            total += v1 + v2
            total_err += e1 + e2
        elif hi_sing is not None:
            half = width / 2.0
            v1, e1 = _panel(counted, lo, hi - half, piece_abs, tol.rel_tol)
            v2, e2 = _sing_adjacent(f, hi, hi_sing, -1, half, piece_abs, tol.rel_tol, budget)
            total += v1 + v2
            total_err += e1 + e2
        else:
            v, e = _panel(counted, lo, hi, piece_abs, tol.rel_tol)
            total += v
            total_err += e

    for c, hw in pv_windows:
        r = integrate_pv(f, c, hw, tol.scaled(1.0 / n_pieces))
        total += r.value
        total_err += r.abs_error_estimate

    if math.isinf(b):
        v, e = _tail(counted, finite_end, f.tail_decay, tol.abs_tol / 4.0, tol.rel_tol)
        total += v
        total_err += e

    return QuadResult(total, total_err, budget.count)


def integrate_pv(f: Integrand, c: float, halfwidth: float,
                 tol: Tolerance = Tolerance()) -> QuadResult:
    """Symmetric principal value around ``c`` over ``(c-halfwidth, c+halfwidth)``.

    Computed as the integral of the even pairing ``f(c+h) + f(c-h)`` over
    ``h in (0, halfwidth)``, which cancels the odd singular part exactly.
    """
    if c not in f.pv_points:
        raise ValueError(f"{c} is not a declared PV point of the integrand")
    budget = _Budget(tol.max_evals)

    fold = f.pv_fold.get(c)
    if fold is not None:
        expo, g = fold
        if expo <= -1.0:
            raise NonCancelling(f"declared fold exponent {expo} <= -1 at PV point {c}")
        r = budget.wrap(g)
        value, err = _singular_piece(r, expo, halfwidth, tol.abs_tol, tol.rel_tol)
        return QuadResult(value, err, budget.count)

    counted = budget.wrap(f.eval)

    def folded(h: float) -> float:
        return counted(c + h) + counted(c - h)

    # Probe the fold to estimate its exponent and catch non-cancellation.
    h1, h2 = 1e-3 * halfwidth, 1e-5 * halfwidth
    g1, g2 = abs(folded(h1)), abs(folded(h2))
    if g1 > 0 and g2 > 0:
        slope = math.log(g2 / g1) / math.log(h2 / h1)
    else:
        slope = 0.0
    if slope <= -1.0:
        raise NonCancelling(
            f"symmetric pairing around {c} still behaves like h^{slope:.3f}"
        )
    expo = min(slope, 0.0)
    floor = max(1e-12, 4.0 * abs(c) * 2.3e-16)
    om = 1.0 + expo
    u0 = -math.log(halfwidth)
    u1 = min(-math.log(floor), max(u0 + 1.0, math.log(8.0 / (tol.abs_tol * om)) / om))

    def g(u: float) -> float:
        h = math.exp(-u)
        return folded(h) * h

    value, err = _panel(g, u0, u1, tol.abs_tol, tol.rel_tol)
    remainder = abs(folded(math.exp(-u1))) * math.exp(-u1) / om
    return QuadResult(value, err + remainder, budget.count)
