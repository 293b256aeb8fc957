"""One-dimensional quadrature engine for improper integrals.

Handles endpoint and interior algebraic singularities and algebraically
decaying infinite tails.  Integrands declare their singular structure up
front; ``integrate`` subdivides at the declared points, maps algebraic
singularities to exponentially decaying smooth integrands via the
substitution ``tau = c +/- exp(-u)``, and truncates infinite tails at an
adaptively chosen point with the analytic remainder folded into the value
and the error estimate.  The lower end ``a`` of an ``integrate`` interval is
finite; the upper end may be +inf.

``integrate_batch`` is the engine underneath: adaptive bisection with
QUADPACK's G10/K21 rule over many integrals at once, each round evaluating
every open panel in one call of a vectorised integrand.  ``integrate``
plans its pieces (plain panels, singular pieces, the tail) and integrates
them all in one ``integrate_batch`` call; the directional operator calls
it directly.  Every integrand is a stack: integrals that share their
declared structure and differ in one parameter, planned with per-member
cut-offs, tolerance shares and remainders, whose every piece function is
called once per engine round over all members.

Near a singular point ``c`` with exponent ``e`` (``f ~ C*d**e`` with
``d = |tau - c|``) the absolute coordinate ``c + d`` rounds to ``c`` once
``d`` is tiny, so each singular point is declared with its *regular part*
``r(side, d, member)``, ``f(c + side*d) = r(side, d, member) * d**e``: the
engine never reconstructs the absolute coordinate, and the substitution is
exact down to arbitrarily small distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NoReturn

import numpy as np

__all__ = [
    "Integrand",
    "QuadResult",
    "StackResult",
    "Tolerance",
    "QuadError",
    "NonIntegrable",
    "integrate",
]

_LOG_HUGE = 690.0  # log of ~1e299: the farthest truncation point of an infinite tail


class QuadError(Exception):
    """Base class for quadrature failures."""


class NonIntegrable(QuadError):
    """The declared structure does not make the integral converge."""


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


class StackResult(tuple):
    """The ``QuadResult`` of each member of a stacked integrand, in member order."""

    @property
    def n_evals(self) -> int:
        """The evaluations of the whole call: every member's."""
        return sum(r.n_evals for r in self)


@dataclass
class Integrand:
    """An array-valued integrand with declared singular structure.

    ``stack = M`` declares M integrals that share these declarations and
    differ in one parameter.  Every function takes an ndarray of nodes and
    the member index of every node, an int array that broadcasts against
    the nodes, and returns its values elementwise: ``eval(t, member)`` and
    each regular part ``r(side, d, member)``.  ``integrate`` returns one
    ``QuadResult`` per member.

    ``singular_points`` lists ``(location, exponent, r)`` triples where
    ``f(location + side*d) = r(side, d, member) * d**exponent`` with ``r``
    bounded as ``d -> 0``; exponents must be > -1, and exponent 0 declares a
    jump or kink.  ``tail_decay`` is an exponent ``beta`` with
    ``|f(tau)| <= C*tau**-beta`` for large ``tau``; it must exceed 1 when
    integration extends to +inf.
    """

    eval: Callable[..., np.ndarray]
    singular_points: list[tuple[float, float, Callable[..., np.ndarray]]] = field(
        default_factory=list)
    tail_decay: float = math.inf
    stack: int = 1

    def __post_init__(self) -> None:
        if not self.stack >= 1:
            raise ValueError("a stack holds at least one integral")


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


def _decaying(lo: float | np.ndarray, hi: np.ndarray, panels: int | np.ndarray = 8) -> np.ndarray:
    """Panel edges, one row per member, for a piece that decays exponentially from ``lo`` on.

    ``lo`` is one number or a column, ``hi`` one number per member, and
    ``panels`` one count or a column of counts: panels whose widths grow by
    half from ``lo``, the first 1/49 of the span at 8 panels.  A row with
    fewer panels than the widest is padded with empty ones at ``hi``, which
    ``_Plan`` drops.  From one panel the batch bisected a piece's start for
    four rounds; 8 resolve a log-substituted tail, at most ~690 e-folds,
    usually in one.  A singular piece can span ~1e6 (``_singular_piece``).
    """
    k = np.arange(np.max(panels) + 1)
    share = (1.5 ** np.minimum(k, panels) - 1.0) / (1.5 ** panels - 1.0)
    return np.where(k >= panels, hi[:, None], lo + (hi[:, None] - lo) * share)


class _Plan:
    """The pieces of one ``integrate`` call, over a stack of integrals.

    A piece is the integral of a function ``fn(x, member)`` over the panels
    between its edges, one row of edges per member of the stack; each panel
    is an integral of the batch with its member's share of the piece's
    absolute tolerance, and an empty panel is dropped.  ``run`` integrates
    every panel of every piece and member in one ``integrate_batch`` call,
    so each piece's function is called once per engine round.  Analytic
    remainders go to ``shift`` (added to each member's value) and ``slack``
    (added to its error).  ``probe`` evaluates a function outside the batch
    at points per member, for a cut-off or a remainder, and counts them.
    """

    def __init__(self, members: int) -> None:
        self.member = np.arange(members)[:, None]
        self.fns: list[Callable[[np.ndarray, np.ndarray], np.ndarray]] = []
        self.edges: list[np.ndarray] = []  # per piece, one row of edges per member
        self.tols: list[float] = []
        self.shift = np.zeros(members)
        self.slack = np.zeros(members)
        self.probes = 0

    def probe(self, fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
              t: np.ndarray) -> np.ndarray:
        """``fn`` at the points ``t``: one row of points per member, or one row for all."""
        out = np.empty((self.member.size, t.shape[1]))
        out[:] = fn(t, self.member)
        self.probes += t.shape[1]
        return out

    def add(self, fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
            edges: list[float] | np.ndarray, abs_tol: float) -> None:
        edges = np.asarray(edges, float)
        self.fns.append(fn)
        self.edges.append(edges if edges.ndim == 2 else edges[None].repeat(self.member.size, 0))
        self.tols.append(abs_tol)

    def run(self, rel_tol: float) -> list[QuadResult]:
        fns = self.fns
        m = self.member.size
        if not fns:  # an empty interval: only the remainders, if any
            return [QuadResult(float(v), float(e), self.probes)
                    for v, e in zip(self.shift.tolist(), self.slack.tolist())]
        lo = np.concatenate([e[:, :-1].ravel() for e in self.edges])
        hi = np.concatenate([e[:, 1:].ravel() for e in self.edges])
        # panel -> cell = piece * m + member; each cell shares its piece's tolerance
        # among its nonempty panels
        widths = np.array([e.shape[1] - 1 for e in self.edges]).repeat(m)
        cell = np.arange(widths.size).repeat(widths)
        full = hi > lo
        lo, hi, cell = lo[full], hi[full], cell[full]
        tols = np.array(self.tols).repeat(m)[cell] / np.bincount(cell, minlength=widths.size)[cell]
        member = cell % m
        starts = cell.searchsorted(np.arange(len(fns) + 1) * m)

        def f(x: np.ndarray, group: np.ndarray) -> np.ndarray:
            # each piece's function on the rows of its panels, sorted together
            order = np.argsort(group[:, 0], kind="stable")
            panel = group[order, 0]
            bounds = np.searchsorted(panel, starts).tolist()
            rows = x[order]
            of = member[panel][:, None]
            values = np.empty_like(rows)
            for fn, a, b in zip(fns, bounds[:-1], bounds[1:]):
                if b > a:
                    values[a:b] = fn(rows[a:b], of[a:b])
            out = np.empty_like(x)
            out[order] = values
            return out

        values, errors, evals = integrate_batch(f, lo, hi, tols, rel_tol)
        value = np.bincount(member, values, m) + self.shift
        error = np.bincount(member, errors, m) + self.slack
        count = np.bincount(member, evals, m) + self.probes
        return [QuadResult(float(v), float(e), int(n))
                for v, e, n in zip(value.tolist(), error.tolist(), count.tolist())]


def _singular_piece(plan: _Plan, r: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    exponent: float, length: float, abs_tol: float) -> None:
    """Plan integral_0^length r(d) * d**exponent dd  via d = exp(-u), for every member.

    The transformed integrand ``r(exp(-u)) * exp(-(1+exponent)*u)`` decays
    exponentially; it is integrated up to ``u1`` and the truncation
    remainder is bounded analytically and added to the error.  ``r`` is a
    stable regular part bounded near 0, and each member's ``u1`` is set
    from a probe of its ``r`` there.

    The span ``u1 - u0`` is ~log(1/tol)/(1+exponent) e-folds: ~30 at
    exponent 0, ~1,600 for an exponent 1 - 2s at s = 0.99, ~1.5e6 at
    s = 0.99999, while a second difference's regular part (limit + O(d^2))
    varies over the first ~20 only.  So the panels of ``_decaying`` start at most
    one e-fold wide: 8 of them up to a span of ~49, else
    ceil(log(1 + span/2)/log 1.5), each member with its own count.
    """
    om = 1.0 + exponent
    u0 = -math.log(length)
    probe = np.abs(plan.probe(r, np.array([[min(length / 2.0, 1e-30)]]))[:, 0]) + 1.0
    u1 = np.maximum(u0 + 1.0, np.log(8.0 * probe / (abs_tol * om)) / om)
    panels = np.maximum(8, np.ceil(np.log1p((u1 - u0) / 2.0) / math.log(1.5))).astype(int)
    plan.add(lambda u, m: r(np.exp(-u), m) * np.exp(-om * u), _decaying(u0, u1, panels[:, None]),
             abs_tol)
    plan.slack += np.abs(plan.probe(r, np.exp(-u1)[:, None])[:, 0]) * np.exp(-om * u1) / om


_TAIL_PROBES = np.array([[1.0, 1.7, 2.9, 5.3]])


def _tail(plan: _Plan, f: Callable[[np.ndarray, np.ndarray], np.ndarray], start: float,
          beta: float, abs_tol: float) -> None:
    """Plan integral_start^inf with |f| <= C*tau**-beta, beta > 1, for every member.

    Each member's truncation point is chosen so the analytic remainder
    ``C*T**(1-beta)/(beta-1)`` is at most abs_tol/4.  Past T the integrand is
    taken as ``f(T)*(tau/T)**-beta`` (beta is the exact leading exponent), so
    the signed remainder ``f(T)*T/(beta-1)`` is added to the value and its
    magnitude to the error; this matters when the floating-point range caps
    T before the remainder is small.  Between ``start`` and T the integral
    runs in ``u = log(tau)``.
    """
    # Probe several points: a single sample can land on a zero of f; one where
    # t**beta overflows and f underflows (a steep beta) reads nan and drops out
    t = start * _TAIL_PROBES
    with np.errstate(invalid="ignore"):
        coeff = np.fmax.reduce(np.abs(plan.probe(f, t)) * t ** beta, axis=1)
    coeff[~(coeff > 0.0)] = abs_tol
    log_T = np.log(4.0 * coeff / (abs_tol * (beta - 1.0))) / (beta - 1.0)
    u = math.log(start)
    log_T = np.minimum(np.maximum(log_T, u + 1.0), _LOG_HUGE)

    def g(u: np.ndarray, m: np.ndarray) -> np.ndarray:
        tau = np.exp(u)
        return f(tau, m) * tau

    # the first unit of u is a panel of its own: a term decaying like
    # tau**-30 hides inside a wider first panel ((1+tau^2)^(-g/2) at g ~ 28)
    edges = _decaying(np.minimum(u + 1.0, log_T)[:, None], log_T)
    edges = np.column_stack((np.full(log_T.size, u), edges))
    plan.add(g, edges, abs_tol)
    T = np.exp(log_T)
    remainder = plan.probe(f, T[:, None])[:, 0] * T / (beta - 1.0)
    plan.shift += remainder
    plan.slack += np.abs(remainder)


def integrate(f: Integrand, a: float, b: float,
              tol: Tolerance = Tolerance()) -> StackResult:
    """Integrate ``f`` over ``(a, b)`` for finite ``a``; ``b`` may be +inf.

    Breakpoints at the declared singular points split the finite part into
    panels, each piece of which gets ``abs_tol / max(panels + 2, 3)``; a
    singular end takes half of its panel (a third when both ends are
    singular) through ``d = exp(-u)``, and an infinite tail, truncated with
    an analytic remainder bound included in the error estimate, gets
    ``abs_tol / 4``.  The cut-offs, tolerance shares and remainders are
    arrays over the members of the stack, and every piece of every member
    goes into one ``integrate_batch`` call.  Returns a ``StackResult``, one
    ``QuadResult`` per member.  A non-finite ``a``, or one past ``b``,
    raises ``ValueError``; an exponent at most -1, or a tail decay at most
    1 on an infinite interval, ``NonIntegrable``.
    """
    if not (math.isfinite(a) and a <= b):
        raise ValueError("a must be finite and at most b")
    sing = {loc: (expo, r) for loc, expo, r in f.singular_points}
    for loc, (expo, _) in sing.items():
        if expo <= -1.0:
            raise NonIntegrable(f"singular point {loc} has exponent {expo} <= -1")
    if math.isinf(b) and not f.tail_decay > 1.0:
        raise NonIntegrable(f"tail_decay {f.tail_decay} <= 1 on an infinite interval")
    finite_end = b
    if math.isinf(b):
        finite_end = max([abs(a) + 1.0, 2.0] + [abs(loc) + 1.0 for loc in sing])
    grid = sorted({a, finite_end} | {loc for loc in sing if a <= loc <= finite_end})
    piece_abs = tol.abs_tol / max(len(grid) + 1, 3)
    plan = _Plan(f.stack)
    # tails run out to tau ~ e^690, where squares overflow to inf
    with np.errstate(over="ignore"):
        for lo, hi in zip(grid[:-1], grid[1:]):
            ends = [(loc, side) for loc, side in ((lo, 1), (hi, -1)) if loc in sing]
            cut = (hi - lo) / (len(ends) + 1.0)
            for loc, side in ends:
                expo, r = sing[loc]
                _singular_piece(plan, lambda d, m, r=r, side=side: r(side, d, m), expo, cut,
                                piece_abs)
            plan.add(f.eval, [lo + cut if lo in sing else lo, hi - cut if hi in sing else hi],
                     piece_abs)
        if math.isinf(b):
            _tail(plan, f.eval, finite_end, f.tail_decay, tol.abs_tol / 4.0)
        return StackResult(plan.run(tol.rel_tol))


# perfbench's tracer looks this name up in quad and in constants; nothing calls it
def integrate_pv(*args, **kwargs) -> NoReturn:
    """No principal values are taken here: raises ``NotImplementedError``."""
    raise NotImplementedError("quad has no principal-value path")
