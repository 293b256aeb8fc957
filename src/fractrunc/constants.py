"""Special constants and critical exponents for the extremal operators.

All kernel constants (``hat_c_dec``, ``c_perp``, ``c_k_fn``, ``hat_c_gro``,
``c_iso``, ``c_n_plus``, ``c_s_mu``) are computed *without* the normalizing
factor ``C_s``; callers that need the physically scaled quantity multiply by
:func:`normalizing_constant` explicitly.  This keeps every root and sign test
independent of the normalization choice.

The integrands all pair values symmetrically around a singular point, which
is catastrophically ill-conditioned in double precision near the pairing
center.  Each constant therefore ships a series-stabilized regular-part
evaluator to the quadrature engine (binomial series for power pairs,
Gegenbauer series for the shifted isotropic kernel, expm1/log1p forms
elsewhere), so accuracy is uniform across the whole parameter range,
including s close to 1.  A series' coefficients depend only on its
exponent, so each constant tables them once per integrand
(``_pow_pair_series`` / ``_iso_pair_series``) and the evaluator sums them in
plain floats.

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
from scipy.optimize import brentq
from scipy.special import binom, eval_gegenbauer, gamma

from .quad import Integrand, Tolerance, integrate, integrate_pv

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
_EPS_GAMMA = 1e-6  # search interval (eps, 1-eps) for the bounded-exponent root


class DomainError(ValueError):
    """A parameter lies outside the admissible range."""


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
        if not 0.0 < self.s < 1.0:
            raise DomainError("s must lie in (0,1)")
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
    if not 0.0 < s < 1.0:
        raise DomainError("s must lie in (0,1)")
    return 4.0**s * s * gamma(0.5 + s) / (math.sqrt(math.pi) * gamma(1.0 - s))


def beta_1ms_s(s: float) -> float:
    """Gamma(1-s)*Gamma(s) = pi / sin(pi*s)."""
    if not 0.0 < s < 1.0:
        raise DomainError("s must lie in (0,1)")
    return math.pi / math.sin(math.pi * s)


# ---------------------------------------------------------------------------
# series-stabilized kernel pieces
# ---------------------------------------------------------------------------

def _even_series(coeffs: list[float], d: float) -> float:
    """sum_j coeffs[j] * d^(2j), stopped once a term is negligible."""
    total = 0.0
    term_pow = 1.0  # d^(2j)
    for c in coeffs:
        term = c * term_pow
        total += term
        term_pow *= d * d
        if abs(term) < 1e-18 * max(abs(total), 1e-300):
            break
    return total


def _pow_pair_series(alpha: float) -> Callable[[float], float]:
    """d -> ((1+d)^alpha + (1-d)^alpha - 2) / d^2, stable for any d in [0, 1).

    Uses the even binomial series for small d where direct evaluation loses
    all significant digits; its coefficients 2*binom(alpha, 2j) are tabled
    once here, not per evaluation.
    """
    coeffs = (2.0 * binom(alpha, 2 * np.arange(1, 80))).tolist()

    def pair(d: float) -> float:
        if d < 0.25:
            return _even_series(coeffs, d)
        return ((1.0 + d) ** alpha + (1.0 - d) ** alpha - 2.0) / (d * d)

    return pair


def _iso_pair_series(gam: float, a: float) -> Callable[[float], float]:
    """d -> ((1+d^2+2ad)^{-g/2} + (1+d^2-2ad)^{-g/2} - 2)/d^2 via Gegenbauer series.

    The coefficients 2*C_{2j}^{(g/2)}(a) are tabled once here.
    """
    coeffs = (2.0 * eval_gegenbauer(2 * np.arange(1, 120), gam / 2.0, a)).tolist()

    def pair(d: float) -> float:
        if d < 0.25:
            return _even_series(coeffs, d)
        plus = (1.0 + d * d + 2.0 * a * d) ** (-gam / 2.0)
        minus = (1.0 + d * d - 2.0 * a * d) ** (-gam / 2.0)
        return (plus + minus - 2.0) / (d * d)

    return pair


# ---------------------------------------------------------------------------
# the kernel constants (all without the C_s factor)
# ---------------------------------------------------------------------------

def _pow_kernel(g: float, s: float, tol: Tolerance) -> float:
    """PV integral of (|1+tau|^{-g} - 1)/|tau|^{1+2s} over the real line.

    ``hat_c_dec(gamma)`` is this kernel at g = gamma and ``hat_c_gro(gamma)``
    minus it at g = -gamma.  PV point at 0; singularity of exponent
    e = min(-g, 0) at tau = -1; tail decay 1 + 2s + min(g, 0).
    """
    e = min(-g, 0.0)

    def f(t: float) -> float:
        return (abs(1.0 + t) ** (-g) - 1.0) * abs(t) ** (-1.0 - 2.0 * s)

    def near_minus_one(side: int, d: float) -> float:
        # f(-1 + side*d) * d^{-e}, stable down to d = 0
        return (d ** (-g - e) - d ** (-e)) / abs(1.0 - side * d) ** (1.0 + 2.0 * s)

    integrand = Integrand(
        eval=f,
        singular_points=[(-1.0, e)],
        pv_points=[0.0],
        tail_decay=1.0 + 2.0 * s + min(g, 0.0),
        regular_eval={-1.0: near_minus_one},
        # (f(h) + f(-h)) * h^{2s-1}; the even part of the pair
        pv_fold={0.0: (1.0 - 2.0 * s, _pow_pair_series(-g))},
    )
    res = integrate_pv(integrand, 0.0, 0.5, tol)
    res = res + integrate(integrand, 0.5, math.inf, tol)
    res = res + integrate(integrand, -math.inf, -0.5, tol)
    return res.value


def hat_c_dec(gam: float, s: float, tol: Tolerance = _DEFAULT_TOL) -> float:
    """PV integral of (|1+tau|^{-gamma} - 1)/|tau|^{1+2s} over the real line.

    Decay-case constant; gamma in (0,1).  PV point at 0, absolutely
    integrable singularity of exponent -gamma at tau = -1.
    """
    if not 0.0 < gam < 1.0:
        raise DomainError("gamma must lie in (0,1)")
    if not 0.0 < s < 1.0:
        raise DomainError("s must lie in (0,1)")
    return _pow_kernel(gam, s, tol)


def c_perp(gam: float, s: float, tol: Tolerance = _DEFAULT_TOL) -> float:
    """2 * integral_0^inf ((1+tau^2)^{-gamma/2} - 1)/tau^{1+2s} dtau  (< 0)."""
    if gam <= 0.0:
        raise DomainError("gamma must be positive")
    if not 0.0 < s < 1.0:
        raise DomainError("s must lie in (0,1)")

    def f(t: float) -> float:
        return 2.0 * math.expm1(-(gam / 2.0) * math.log1p(t * t)) * t ** (-1.0 - 2.0 * s)

    def regular0(side: int, d: float) -> float:
        # f(d) * d^{2s-1} = 2*((1+d^2)^{-g/2}-1)/d^2, stable at 0
        if d < 1e-7:
            return -gam + gam * (gam + 2.0) / 4.0 * d * d
        return 2.0 * math.expm1(-(gam / 2.0) * math.log1p(d * d)) / (d * d)

    integrand = Integrand(
        eval=f,
        singular_points=[(0.0, 1.0 - 2.0 * s)],
        tail_decay=1.0 + 2.0 * s,
        regular_eval={0.0: regular0},
    )
    return integrate(integrand, 0.0, math.inf, tol).value


def c_k_fn(gam: float, s: float, k: int, tol: Tolerance = _DEFAULT_TOL) -> float:
    """c_k(gamma) = hat_c_dec(gamma) + (k-1) * c_perp(gamma)."""
    value = hat_c_dec(gam, s, tol)
    if k > 1:
        value += (k - 1) * c_perp(gam, s, tol)
    return value


def hat_c_gro(gam: float, s: float, tol: Tolerance = _DEFAULT_TOL) -> float:
    """PV integral of (1 - |1+tau|^gamma)/|tau|^{1+2s}; growth case, s > 1/2.

    Positive for gamma < 2s-1, zero at gamma = 2s-1.
    """
    if not 0.5 < s < 1.0:
        raise DomainError("s must lie in (1/2,1) for the growth-case constant")
    if not 0.0 < gam <= 2.0 * s - 1.0 + 1e-12:
        raise DomainError("gamma must lie in (0, 2s-1]; the tail diverges beyond")
    return -_pow_kernel(-gam, s, tol)


def c_iso(gam: float, s: float, N: int, tol: Tolerance = _DEFAULT_TOL) -> float:
    """Isotropic half-space kernel constant.

    integral_0^inf ((1+t^2+2t/sqrt(N))^{-g/2} + (1+t^2-2t/sqrt(N))^{-g/2} - 2)
    / t^{1+2s} dt.
    """
    if gam <= 0.0:
        raise DomainError("gamma must be positive")
    if N < 2:
        raise DomainError("N must be >= 2")
    a = 1.0 / math.sqrt(N)

    def f(t: float) -> float:
        plus = (1.0 + t * t + 2.0 * a * t) ** (-gam / 2.0)
        minus = (1.0 + t * t - 2.0 * a * t) ** (-gam / 2.0)
        return (plus + minus - 2.0) * t ** (-1.0 - 2.0 * s)

    pair = _iso_pair_series(gam, a)
    integrand = Integrand(
        eval=f,
        singular_points=[(0.0, 1.0 - 2.0 * s)],
        tail_decay=1.0 + 2.0 * s,
        regular_eval={0.0: lambda side, d: pair(d)},
    )
    return integrate(integrand, 0.0, math.inf, tol).value


def c_n_plus(gam: float, s: float, N: int, tol: Tolerance = _DEFAULT_TOL) -> float:
    """N*c_iso(gamma) minus the one-sided correction integral from sqrt(N)."""
    iso = c_iso(gam, s, N, tol)  # checks gamma > 0 and N >= 2 first
    a = 1.0 / math.sqrt(N)

    def f2(t: float) -> float:
        return (1.0 + t * t - 2.0 * a * t) ** (-gam / 2.0) * t ** (-1.0 - 2.0 * s)

    correction = integrate(
        Integrand(eval=f2, tail_decay=1.0 + 2.0 * s + gam),
        math.sqrt(N), math.inf, tol,
    ).value
    return N * iso - correction


def c_s_mu(mu: float, s: float, form: str = "primary",
           tol: Tolerance = _DEFAULT_TOL) -> float:
    """The power-profile constant with I_{e_N}(x_N)_+^mu = C_s c_{s,mu} x_N^{mu-2s}.

    ``form="primary"`` integrates ((1+t)^mu + (1-t)_+^mu - 2)/t^{1+2s};
    ``form="alternate"`` uses the first-derivative representation
    (mu/2s) * integral ((1+t)^{mu-1} - (1+t)^{2s-mu-1})/t^{2s}.
    """
    if not 0.0 < s < 1.0:
        raise DomainError("s must lie in (0,1)")
    if not 0.0 < mu < 2.0 * s:
        raise DomainError("mu must lie in (0, 2s)")
    if form == "primary":
        def f(t: float) -> float:
            # (1+t)^mu t^{-1-2s} as (1+1/t)^mu t^{mu-1-2s}: (1+t)^mu alone
            # overflows far out in the tail once mu > 1
            down = (1.0 - t) ** mu if t < 1.0 else 0.0
            return ((1.0 + 1.0 / t) ** mu * t ** (mu - 1.0 - 2.0 * s)
                    + (down - 2.0) * t ** (-1.0 - 2.0 * s))

        pair = _pow_pair_series(mu)
        integrand = Integrand(
            eval=f,
            singular_points=[(0.0, 1.0 - 2.0 * s), (1.0, 0.0)],
            tail_decay=1.0 + 2.0 * s - mu,
            regular_eval={0.0: lambda side, d: pair(d)},
        )
        return integrate(integrand, 0.0, math.inf, tol).value
    if form == "alternate":
        # First-derivative representation mapped to (0,1) via u = 1/(1+t):
        # (mu/2s) * integral_0^1 (u^{2s-mu-1} - u^{mu-1}) (1-u)^{-2s} du.
        # Both endpoint singularities are integrable (the numerator vanishes
        # linearly at u=1); the finite interval avoids the slow t^{-1-mu}
        # tail of the original representation.
        e0 = min(2.0 * s - mu, mu) - 1.0

        def g(u: float) -> float:
            return (u ** (2.0 * s - mu - 1.0) - u ** (mu - 1.0)) * (1.0 - u) ** (-2.0 * s)

        def regular0(side: int, d: float) -> float:
            return ((d ** (2.0 * s - mu - 1.0 - e0) - d ** (mu - 1.0 - e0))
                    * (1.0 - d) ** (-2.0 * s))

        def regular1(side: int, d: float) -> float:
            # g(1-d) * d^{2s-1}; numerator via expm1 keeps the cancellation exact
            if d == 0.0:
                return 2.0 * mu - 2.0 * s
            return ((1.0 - d) ** (mu - 1.0)
                    * math.expm1((2.0 * s - 2.0 * mu) * math.log1p(-d)) / d)

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

def _bracketed_root(fn: Callable[[float], float], lo: float, hi: float) -> RootResult:
    root, info = brentq(fn, lo, hi, xtol=1e-10, rtol=8.9e-16, full_output=True)
    residual = fn(root)
    return RootResult(root=root, residual=residual, bracket=(lo, hi),
                      iterations=info.iterations)


def find_gamma_bar(k: int, s: float,
                   tol: Tolerance = _DEFAULT_TOL) -> Optional[RootResult]:
    """Root of c_k in (0,1), or None when no sign change exists there.

    The absence of a root is a meaningful outcome: it encodes the existence
    dichotomy (a root exists iff k=1 with s < 1/2, or k >= 2).
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    lo, hi = _EPS_GAMMA, 1.0 - _EPS_GAMMA
    fn = lambda g: c_k_fn(g, s, k, tol)
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return RootResult(lo, flo, (lo, hi), 0)
    if flo * fhi > 0.0:
        return None
    return _bracketed_root(fn, lo, hi)


def _expanding_root(fn: Callable[[float], float], lo: float,
                    hi0: float) -> RootResult:
    flo = fn(lo)
    hi = hi0
    while hi <= 1e3:
        if flo * fn(hi) < 0.0:
            return _bracketed_root(fn, lo, hi)
        hi *= 2.0
    raise BracketFailure("no sign change found up to gamma = 1e3")


def find_gamma_tilde(N: int, s: float, tol: Tolerance = _DEFAULT_TOL) -> RootResult:
    """Unique positive root of c_iso."""
    if N < 2:
        raise DomainError("N must be >= 2")
    return _expanding_root(lambda g: c_iso(g, s, N, tol), 1e-3, 2.0)


def find_gamma_plus(N: int, s: float, tol: Tolerance = _DEFAULT_TOL) -> RootResult:
    """Root of c_n_plus; strictly above find_gamma_tilde by construction."""
    tilde = find_gamma_tilde(N, s, tol)
    result = _expanding_root(lambda g: c_n_plus(g, s, N, tol), tilde.root,
                             max(2.0 * tilde.root, 2.0))
    if not result.root > tilde.root:
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
    if not 0.0 < s < 1.0:
        raise DomainError("s must lie in (0,1)")
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
        bar = find_gamma_bar(k, s, tol)
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
