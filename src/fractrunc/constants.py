"""Special constants and critical exponents for the extremal operators.

All kernel constants (``hat_c_dec``, ``c_perp``, ``c_k_fn``, ``hat_c_gro``,
``c_iso``, ``c_n_plus``, ``c_s_mu``) are computed *without* the normalizing
factor ``C_s``; callers that need the physically scaled quantity multiply by
:func:`normalizing_constant` explicitly.  This keeps every root and sign test
independent of the normalization choice.

The 1-D kernel constants ``hat_c_dec``, ``c_perp``, ``c_k_fn``, ``hat_c_gro``
and ``c_s_mu`` are Gamma-function closed forms; a reciprocal Gamma that is
exactly 0 at its poles puts their roots exactly where they vanish.
``c_iso`` and ``c_n_plus`` have none: each is one array-valued ``integrate``
call, so one batched quadrature.

Their integrands pair values symmetrically around a singular point, which
is catastrophically ill-conditioned in double precision near the pairing
center.  Both therefore ship one cancellation-free regular-part evaluator to
the quadrature engine, ``_iso_pair``: a closed form in ``expm1``, ``log1p``,
``cosh`` and ``sinh`` in which only two O(d^2) terms meet, picked node by
node where the direct form cancels, so accuracy is uniform across the whole
parameter range, including s close to 1.  It works on a whole array of
nodes at once.  c_n_plus's jump at sqrt(N) is a plain panel edge.

The kernels multiply by the negative power ``t**(-1-2s)`` instead of
dividing by ``t**(1+2s)``: far out in the tail the weight underflows to 0
rather than overflowing, so no kernel needs an asymptotic overflow branch and
every term of the integrand is kept out to the quadrature's truncation point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .quad import Integrand, Tolerance, integrate
from .quad import integrate_pv  # unused here; still looked up by perfbench's tracer

__all__ = [
    "ProblemParams",
    "RootResult",
    "ExponentTable",
    "DomainError",
    "NoRootError",
    "BracketFailure",
    "normalizing_constant",
    "beta_1ms_s",
    "hat_c_dec",
    "c_perp",
    "c_k_fn",
    "hat_c_gro",
    "c_iso",
    "c_n_plus",
    "c_s_mu",
    "find_gamma_bar",
    "find_gamma_tilde",
    "find_gamma_plus",
    "exponent_table",
]

_DEFAULT_TOL = Tolerance(abs_tol=1e-12, rel_tol=1e-11)
_EPS_GAMMA = 1e-6  # search interval (eps, 1-eps) for the bounded-exponent root, k >= 2


class DomainError(ValueError):
    """A parameter lies outside the admissible range."""


# The smallest s resolved.  The quadratures take the tail exponent 1 + 2s,
# whose rounding (eps/4 in s) moves a constant of size ~1/s by ~eps/(4 s^2),
# which exceeds the default relative tolerance 1e-11 below s ~ 5.6e-6; below
# ~1.1e-16, 1 + 2s rounds to 1 and the tail diverges.
_S_MIN = 1e-5


def _check_s(s: float) -> None:
    # chained comparisons are false for NaN, so NaN is rejected too
    if not 0.0 < s < 1.0:
        raise DomainError("s must lie in (0,1)")
    if s < _S_MIN:
        raise DomainError(f"s = {s:g} lies below {_S_MIN:g}, the smallest s fractrunc resolves")


class NoRootError(RuntimeError):
    """A construction requires a critical exponent that does not exist."""


class BracketFailure(RuntimeError):
    """No sign change found while expanding a root bracket; quadrature defect."""


@dataclass(frozen=True)
class ProblemParams:
    """Fractional order s in (0,1), dimension N >= 2, frame size k in 1..N."""

    s: float
    N: int
    k: int

    def __post_init__(self) -> None:
        _check_s(self.s)
        if self.N < 2:
            raise DomainError("N must be >= 2")
        if not 1 <= self.k <= self.N:
            raise DomainError("k must lie in 1..N")


@dataclass(frozen=True)
class RootResult:
    """A bracketed root with its residual."""

    root: float
    residual: float
    bracket: tuple[float, float]
    iterations: int


# ---------------------------------------------------------------------------
# elementary constants
# ---------------------------------------------------------------------------

def normalizing_constant(s: float) -> float:
    """The 1-D normalizing constant C_s = 4^s * s * Gamma(1/2+s)/(sqrt(pi)*Gamma(1-s)).

    One admissible choice: it makes the directional operator converge to the
    pure second derivative as s -> 1-.  Every exponent and root produced by
    this module is independent of this choice.
    """
    _check_s(s)
    return 4.0**s * s * math.gamma(0.5 + s) / (math.sqrt(math.pi) * math.gamma(1.0 - s))


def beta_1ms_s(s: float) -> float:
    """Gamma(1-s)*Gamma(s) = pi / sin(pi*s)."""
    _check_s(s)
    return math.pi / math.sin(math.pi * s)


# ---------------------------------------------------------------------------
# cancellation-free kernel pairs
# ---------------------------------------------------------------------------

def _iso_pair(gam: float, a: float) -> Callable[[np.ndarray], np.ndarray]:
    """d -> ((1+d^2+2ad)^{-g/2} + (1+d^2-2ad)^{-g/2} - 2)/d^2, stable for any d >= 0.

    With p = -g/2, A = 1+d^2, e = expm1(p*log1p(d^2)) = A^p - 1, z = 2ad/A
    and y = p*atanh(z), the numerator is
    2*((1+e)*(expm1((p/2)*log1p(-z^2))*cosh(y) + 2*sinh(y/2)^2) + e):
    two O(d^2) terms, no O(1) ones.  Since z <= a <= 1/sqrt(2), atanh(z)
    stays finite, and the closed form is used wherever |p|*d <= 1, where
    the direct form cancels (for small |p| at any d); past that it
    overflows, and the direct form keeps within range.  Both are computed
    on every node and one is picked.  Below d = 1e-150, where d^2 leaves the
    normal range, the pair is its limit 4a^2 p(p-1) + 2p.
    """
    p = -gam / 2.0
    limit = 4.0 * a * a * p * (p - 1.0) + 2.0 * p

    def pair(d: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            d2 = d * d
            e = np.expm1(p * np.log1p(d2))
            z = 2.0 * a * d / (1.0 + d2)
            y = p * np.arctanh(z)
            closed = 2.0 * ((1.0 + e) * (np.expm1(p / 2.0 * np.log1p(-z * z)) * np.cosh(y)
                                         + 2.0 * np.sinh(y / 2.0) ** 2) + e) / d2
            direct = ((1.0 + d2 + 2.0 * a * d) ** p + (1.0 + d2 - 2.0 * a * d) ** p - 2.0) / d2
            near = abs(p) * d <= 1.0
            return np.where(d < 1e-150, limit, np.where(near, closed, direct))

    return pair


# ---------------------------------------------------------------------------
# the kernel constants (all without the C_s factor)
# ---------------------------------------------------------------------------

def _check_positive(gam: float, s: float) -> None:
    # chained comparisons are false for NaN, so NaN is rejected too
    if not 0.0 < gam < math.inf:
        raise DomainError("gamma must be finite and positive")
    _check_s(s)


def _check_decay(gam: float, s: float) -> None:
    if not 0.0 < gam < 1.0:
        raise DomainError("gamma must lie in (0,1)")
    _check_positive(gam, s)


def _rgamma(x: float) -> float:
    """1/Gamma(x), exactly 0 at the poles x = 0, -1, -2, ..."""
    return 0.0 if x <= 0.0 and x == math.floor(x) else 1.0 / math.gamma(x)


def _sin_pi(x: float) -> float:
    """sin(pi*x) for |x| < 1, reduced to |x| <= 1/2 to keep its relative accuracy near +-1."""
    return math.copysign(math.sin(math.pi * min(abs(x), 1.0 - abs(x))), x)


# Stirling coefficients B_2n/(2n(2n-1)) of lgamma(z), with the power 2n-1 of 1/z
_STIRLING = ((1.0 / 12.0, 1), (-1.0 / 360.0, 3), (1.0 / 1260.0, 5), (-1.0 / 1680.0, 7),
             (1.0 / 1188.0, 9))


def _perp_kernel(g: float, s: float) -> float:
    """Gamma(-s) Gamma(g/2+s)/Gamma(g/2), for g > -2s: c_perp at g > 0.

    With x = g/2 the ratio is x Gamma(x+s)/Gamma(1+x), and from x = 15 on
    the Stirling series of lgamma(x+s) - lgamma(x) term by term: math.gamma
    loses digits as x grows (6e-14 at 170) and overflows past 171, and two
    lgamma values lose them as x log x.  Either way it keeps ~2e-15.
    """
    x = g / 2.0
    if x < 15.0:
        return math.gamma(-s) * (x * math.gamma(x + s) / math.gamma(1.0 + x))
    z = x + s
    # lgamma(z) - lgamma(x) - s log z: O(s/x), so its exp loses no digits
    rest = (x - 0.5) * math.log1p(s / x) - s
    for c, p in _STIRLING:
        rest += c * (z ** -p - x ** -p)
    return math.gamma(-s) * z ** s * math.exp(rest)


def _dec_ratio(g: float, s: float) -> float:
    """hat_c_dec / c_perp at g < 1: sqrt(pi) Gamma((1-g)/2) / (Gamma(1/2+s) Gamma((1-g)/2-s)).

    The last Gamma is a reciprocal, so the ratio is exactly 0 at g = 1-2s.
    """
    return (math.sqrt(math.pi) * math.gamma((1.0 - g) / 2.0)
            * _rgamma((1.0 - g) / 2.0 - s) / math.gamma(0.5 + s))


def hat_c_dec(gam: float, s: float) -> float:
    """PV integral of (|1+tau|^{-gamma} - 1)/|tau|^{1+2s} over the real line.

    Decay-case constant; gamma in (0,1).  Closed form; exactly 0 at the
    root gamma = 1-2s.
    """
    _check_decay(gam, s)
    return _perp_kernel(gam, s) * _dec_ratio(gam, s)


def c_perp(gam: float, s: float) -> float:
    """2 * integral_0^inf ((1+tau^2)^{-gamma/2} - 1)/tau^{1+2s} dtau  (< 0), in closed form."""
    _check_positive(gam, s)
    return _perp_kernel(gam, s)


def c_k_fn(gam: float, s: float, k: int) -> float:
    """c_k(gamma) = hat_c_dec(gamma) + (k-1) * c_perp(gamma)."""
    _check_decay(gam, s)
    return _perp_kernel(gam, s) * (_dec_ratio(gam, s) + k - 1)


def hat_c_gro(gam: float, s: float) -> float:
    """PV integral of (1 - |1+tau|^gamma)/|tau|^{1+2s}; growth case, s > 1/2.

    Minus hat_c_dec's closed form at -gamma.  Positive for gamma < 2s-1,
    exactly zero at gamma = 2s-1.
    """
    if not 0.5 < s < 1.0:
        raise DomainError("s must lie in (1/2,1) for the growth-case constant")
    if not 0.0 < gam <= 2.0 * s - 1.0 + 1e-12:
        raise DomainError("gamma must lie in (0, 2s-1]; the tail diverges beyond")
    return -_perp_kernel(-gam, s) * _dec_ratio(-gam, s)


def _iso_parts(gam: float, s: float, N: int) -> tuple[Callable, Callable, Callable]:
    """c_iso's (1+t^2+2t/sqrt(N))^{-g/2} and (1+t^2-2t/sqrt(N))^{-g/2} halves, and its pair."""
    _check_positive(gam, s)
    if N < 2:
        raise DomainError("N must be >= 2")
    # the kernel peaks at (1-1/N)^{-g/2}, at t = 1/sqrt(N); past 1e300 its
    # values, and the quadrature's sums of them, leave the float range
    if -gam / 2.0 * math.log1p(-1.0 / N) > math.log(1e300):
        raise DomainError(f"gamma = {gam} is too large: the kernel's peak "
                          "(1-1/N)^(-gamma/2) exceeds 1e300")
    a = 1.0 / math.sqrt(N)

    def plus(t: np.ndarray) -> np.ndarray:
        return (1.0 + t * t + 2.0 * a * t) ** (-gam / 2.0)

    def minus(t: np.ndarray) -> np.ndarray:
        return (1.0 + t * t - 2.0 * a * t) ** (-gam / 2.0)

    return plus, minus, _iso_pair(gam, a)


def c_iso(gam: float, s: float, N: int, tol: Tolerance = _DEFAULT_TOL) -> float:
    """Isotropic half-space kernel constant.

    integral_0^inf ((1+t^2+2t/sqrt(N))^{-g/2} + (1+t^2-2t/sqrt(N))^{-g/2} - 2)
    / t^{1+2s} dt.
    """
    plus, minus, pair = _iso_parts(gam, s, N)
    integrand = Integrand(
        eval=lambda t: (plus(t) + minus(t) - 2.0) * t ** (-1.0 - 2.0 * s),
        singular_points=[(0.0, 1.0 - 2.0 * s)],
        tail_decay=1.0 + 2.0 * s,
        regular_eval={0.0: lambda side, d: pair(d)},
    )
    return integrate(integrand, 0.0, math.inf, tol).value


def c_n_plus(gam: float, s: float, N: int, tol: Tolerance = _DEFAULT_TOL) -> float:
    """N*c_iso(gamma) minus the one-sided correction integral from sqrt(N).

    One integral over (0, inf): N times the c_iso kernel, less
    (1+t^2-2t/sqrt(N))^{-gamma/2} / t^{1+2s} past t = sqrt(N), where the
    integrand jumps (declared as a breakpoint, a plain panel edge).
    """
    plus, minus, pair = _iso_parts(gam, s, N)
    root = math.sqrt(N)

    def f(t: np.ndarray) -> np.ndarray:
        m = minus(t)
        return (N * (plus(t) + m - 2.0) - np.where(t > root, m, 0.0)) * t ** (-1.0 - 2.0 * s)

    integrand = Integrand(
        eval=f,
        singular_points=[(0.0, 1.0 - 2.0 * s), (root, 0.0)],
        tail_decay=1.0 + 2.0 * s,
        regular_eval={0.0: lambda side, d: N * pair(d)},
    )
    return integrate(integrand, 0.0, math.inf, tol).value


def c_s_mu(mu: float, s: float, form: str = "primary",
           tol: Tolerance = _DEFAULT_TOL) -> float:
    """The power-profile constant with I_{e_N}(x_N)_+^mu = C_s c_{s,mu} x_N^{mu-2s}.

    ``form="primary"`` is the closed form of the integral of
    ((1+t)^mu + (1-t)_+^mu - 2)/t^{1+2s} over (0, inf), in the reflected
    form (mu/2s) B(mu, 2s-mu) sin(pi(mu-s))/sin(pi s): no removable point
    at s = 1/2, and exactly 0 at mu = s.  ``form="alternate"`` integrates
    the first-derivative representation
    (mu/2s) * integral ((1+t)^{mu-1} - (1+t)^{2s-mu-1})/t^{2s} to ``tol``.
    """
    _check_s(s)
    if not 0.0 < mu < 2.0 * s:
        raise DomainError("mu must lie in (0, 2s)")
    if form == "primary":
        # mu Gamma(mu) = Gamma(1+mu) and 2s Gamma(2s) = Gamma(1+2s)
        return (math.gamma(1.0 + mu) * math.gamma(2.0 * s - mu) / math.gamma(1.0 + 2.0 * s)
                * _sin_pi(mu - s) / _sin_pi(s))
    if form == "alternate":  # still drawn by perfbench's constants deck; a check of the closed form
        # First-derivative representation mapped to (0,1) via u = 1/(1+t):
        # (mu/2s) * integral_0^1 (u^{2s-mu-1} - u^{mu-1}) (1-u)^{-2s} du.
        # Both endpoint singularities are integrable (the numerator vanishes
        # linearly at u=1); the finite interval avoids the slow t^{-1-mu}
        # tail of the original representation.
        e0 = min(2.0 * s - mu, mu) - 1.0

        def g(u: np.ndarray) -> np.ndarray:
            return (u ** (2.0 * s - mu - 1.0) - u ** (mu - 1.0)) * (1.0 - u) ** (-2.0 * s)

        def regular0(side: int, d: np.ndarray) -> np.ndarray:
            return ((d ** (2.0 * s - mu - 1.0 - e0) - d ** (mu - 1.0 - e0))
                    * (1.0 - d) ** (-2.0 * s))

        def regular1(side: int, d: np.ndarray) -> np.ndarray:
            # g(1-d) * d^{2s-1}; numerator via expm1 keeps the cancellation
            # exact, and its limit at d = 0 is 2mu - 2s
            safe = np.where(d > 0.0, d, 0.5)
            return np.where(d > 0.0, (1.0 - d) ** (mu - 1.0)
                            * np.expm1((2.0 * s - 2.0 * mu) * np.log1p(-safe)) / safe,
                            2.0 * mu - 2.0 * s)

        integrand = Integrand(
            eval=g,
            singular_points=[(0.0, e0), (1.0, 1.0 - 2.0 * s)],
            regular_eval={0.0: regular0, 1.0: regular1},
        )
        return (mu / (2.0 * s)) * integrate(integrand, 0.0, 1.0, tol).value
    raise DomainError(f"unknown form {form!r}; expected 'primary' or 'alternate'")


# ---------------------------------------------------------------------------
# root finders
# ---------------------------------------------------------------------------

def _bracketed_root(fn: Callable[[float], float], lo: float, hi: float,
                    flo: float, fhi: float, xtol: float = 1e-10,
                    rtol: float = 8.9e-16) -> RootResult:
    """A root of ``fn`` in [lo, hi], given ``flo = fn(lo)`` and ``fhi = fn(hi)`` of opposite signs.

    Chandrupatla's method (Adv. Eng. Software 28, 1997): inverse quadratic
    interpolation through the bracket ends and the last point dropped from
    it, taken only where that parabola is monotone over the bracket, and
    bisection otherwise.  The step stays half the tolerance away from either
    end.  It stops once the bracket is narrower than ``xtol + rtol*|root|``
    (scipy ``brentq``'s criterion) and returns the end with the smaller |fn|,
    with that value as the residual; ``iterations`` counts its own
    evaluations of ``fn``.
    """
    bracket = (lo, hi)
    if flo == 0.0 or fhi == 0.0:
        return RootResult(lo if flo == 0.0 else hi, 0.0, bracket, 0)
    # x1 is the newest point, [x1, x2] the bracket, x3 the point it dropped
    x1, f1, x2, f2 = hi, fhi, lo, flo
    t = 0.5
    for iterations in range(1, 101):
        x = x1 + t * (x2 - x1)
        fx = fn(x)
        if (fx < 0.0) == (f1 < 0.0):
            x3, f3 = x1, f1
        else:
            x3, f3, x2, f2 = x2, f2, x1, f1
        x1, f1 = x, fx
        xm, fm = (x1, f1) if abs(f1) < abs(f2) else (x2, f2)
        dx = abs(x2 - x1)
        tol = xtol + rtol * abs(xm)
        if fm == 0.0 or dx < tol:
            return RootResult(xm, fm, bracket, iterations)
        xi = (x1 - x2) / (x3 - x2)
        phi = (f1 - f2) / (f3 - f2)
        if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
            alpha = (x3 - x1) / (x2 - x1)
            t = f1 / (f1 - f2) * f3 / (f3 - f2) - alpha * f1 / (f3 - f1) * f2 / (f2 - f3)
        else:
            t = 0.5
        t = min(max(t, 0.5 * tol / dx), 1.0 - 0.5 * tol / dx)
    raise RuntimeError(f"no root to within {xtol:g} in [{lo}, {hi}] after 100 evaluations")


def find_gamma_bar(k: int, s: float) -> Optional[RootResult]:
    """Root of c_k in (0,1), or None when no sign change exists there.

    The absence of a root is a meaningful outcome: it encodes the existence
    dichotomy (a root exists iff k=1 with s < 1/2, or k >= 2).  For k = 1
    the root is exact: c_1 = hat_c_dec vanishes at gamma = 1-2s, so that
    root comes with residual 0 and no search.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if k == 1:
        _check_s(s)
        root = 1.0 - 2.0 * s
        return RootResult(root, 0.0, (root, root), 0) if s < 0.5 else None
    lo, hi = _EPS_GAMMA, 1.0 - _EPS_GAMMA
    fn = lambda g: c_k_fn(g, s, k)
    flo, fhi = fn(lo), fn(hi)
    if flo * fhi > 0.0:
        return None
    return _bracketed_root(fn, lo, hi, flo, fhi)


def _expanding_root(fn: Callable[[float], float], lo: float,
                    hi0: float) -> RootResult:
    """A root of ``fn`` past ``lo``: walk hi0, 2*hi0, ... up to 1e3 to the first sign change.

    Each walked point becomes the lower end, so the bracket handed to
    :func:`_bracketed_root` is [hi/2, hi] (or [lo, hi0] at the first step).
    """
    flo = fn(lo)
    hi = hi0
    while hi <= 1e3:
        fhi = fn(hi)
        if flo * fhi <= 0.0:
            return _bracketed_root(fn, lo, hi, flo, fhi)
        lo, flo = hi, fhi
        hi *= 2.0
    raise BracketFailure("no sign change found up to gamma = 1e3")


def find_gamma_tilde(N: int, s: float, tol: Tolerance = _DEFAULT_TOL) -> RootResult:
    """Unique positive root of c_iso."""
    if N < 2:
        raise DomainError("N must be >= 2")
    return _expanding_root(lambda g: c_iso(g, s, N, tol), 1e-3, 2.0)


def find_gamma_plus(N: int, s: float, tol: Tolerance = _DEFAULT_TOL) -> RootResult:
    """Root of c_n_plus, which lies above find_gamma_tilde.

    c_N^+ = N c_iso - corr with corr > 0, so c_N^+ < 0 on (0, gamma_tilde]
    where c_iso <= 0.  The root is found by the walk of find_gamma_tilde
    (1e-3, then 2, 4, ...) on c_n_plus alone, and ``bracket`` reports the
    bracket Chandrupatla's method starts from: [hi/2, hi] for the first
    walked point hi where c_n_plus is positive, or [1e-3, 2].  That the
    root exceeds gamma_tilde, c_iso's unique positive root, is one sign
    test: c_iso(root + 1e-10) > 0, 1e-10 being the root's tolerance (at the
    root itself c_iso can read as quadrature noise of either sign).
    """
    result = _expanding_root(lambda g: c_n_plus(g, s, N, tol), 1e-3, 2.0)
    if not c_iso(result.root + 1e-10, s, N, tol) > 0.0:
        raise BracketFailure("gamma_plus did not exceed gamma_tilde")
    return result


# ---------------------------------------------------------------------------
# exponent table
# ---------------------------------------------------------------------------

INTERVAL_MINUS1_0 = (-1.0, 0.0)  # table cells the source leaves as an interval


@dataclass(frozen=True)
class ExponentTable:
    """Numeric instantiation of the operator / p* / p_* summary table.

    Cells without a computable point value are emitted as interval markers
    (lo, hi) rather than fabricated numbers.
    """

    N: int
    s: float
    rows: tuple[dict, ...]


def exponent_table(N: int, s: float, tol: Tolerance = _DEFAULT_TOL) -> ExponentTable:
    """Bounds on the critical exponents p* (p > 1) and p_* (p < 1) per operator."""
    if N < 2:
        raise DomainError("N must be >= 2")
    _check_s(s)
    rows: list[dict] = []
    gamma_plus = find_gamma_plus(N, s, tol).root
    for k in range(1, N + 1):
        if k < N:
            rows.append({
                "operator": f"I_{k}^-", "k": k,
                "p_star": 1.0, "p_lower_star": 1.0,
            })
        else:
            rows.append({
                "operator": f"I_{N}^-", "k": N,
                "p_star_upper": 1.0 + 2.0 * s / gamma_plus,
                "p_lower_star": INTERVAL_MINUS1_0,
            })
    for k in range(1, N + 1):
        bar = find_gamma_bar(k, s)
        row: dict = {"operator": f"I_{k}^+", "k": k,
                     "p_lower_star": INTERVAL_MINUS1_0}
        if bar is None:
            # k = 1 with s >= 1/2: nonexistence holds below 1/(1-s)
            row["p_star_lower"] = 1.0 / (1.0 - s)
        else:
            row["p_star_lower"] = 1.0 + 2.0 * s / (bar.root + 1.0)
            row["p_star_upper_ref"] = 1.0 + 2.0 * s / bar.root
        rows.append(row)
    return ExponentTable(N=N, s=s, rows=tuple(rows))
