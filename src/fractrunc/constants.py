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
(``_pow_pair_series`` / ``_iso_pair_series``) and the evaluator sums them for
a whole array of nodes at once, with the scalar loop's term order and stop.
Every integrand is array-valued, and each constant is one ``integrate`` or
``integrate_pv`` call, so one batched quadrature.

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

def _even_series(coeffs: np.ndarray, d: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] * d^(2j) for each element of ``d``, stopped once a term is negligible.

    Powers and partial sums accumulate term by term in the order of the
    scalar loop ``term_pow *= d*d; total += c*term_pow``, and each element
    takes its partial sum at its own stop, so every value is that loop's.
    The first 32 terms usually stop every element; only if they do not are
    all terms summed.  Terms past an element's stop may overflow to inf or
    nan (huge Gegenbauer coefficients times a vanishing power); they are
    never read.
    """
    for n in (32, coeffs.size):
        steps = np.empty((d.size, n))
        steps[:, 0] = 1.0
        steps[:, 1:] = (d * d)[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            terms = coeffs[:n] * np.multiply.accumulate(steps, axis=1)
            totals = np.add.accumulate(terms, axis=1)
            small = np.abs(terms) < 1e-18 * np.maximum(np.abs(totals), 1e-300)
        stopped = small.any(axis=1)
        if stopped.all():
            break
    stop = np.where(stopped, small.argmax(axis=1), n - 1)
    return totals[np.arange(d.size), stop]


def _series_pair(coeffs: np.ndarray,
                 direct: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    """d -> the even series below d = 0.25, where ``direct`` loses all digits, else ``direct``.

    ``direct`` runs on Python floats, one element at a time: numpy's vector
    ``pow`` can differ from the scalar one in the last bit.
    """
    def pair(d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, float)
        flat = d.ravel()
        small = flat < 0.25
        out = np.empty_like(flat)
        out[small] = _even_series(coeffs, flat[small])
        out[~small] = [direct(x) for x in flat[~small].tolist()]
        return out.reshape(d.shape)

    return pair


def _pow_pair_series(alpha: float) -> Callable[[np.ndarray], np.ndarray]:
    """d -> ((1+d)^alpha + (1-d)^alpha - 2) / d^2, stable for any d in [0, 1).

    Uses the even binomial series for small d; its coefficients
    2*binom(alpha, 2j) are tabled once here, not per evaluation.
    """
    return _series_pair(2.0 * binom(alpha, 2 * np.arange(1, 80)),
                        lambda d: ((1.0 + d) ** alpha + (1.0 - d) ** alpha - 2.0) / (d * d))


def _iso_pair_series(gam: float, a: float) -> Callable[[np.ndarray], np.ndarray]:
    """d -> ((1+d^2+2ad)^{-g/2} + (1+d^2-2ad)^{-g/2} - 2)/d^2 via Gegenbauer series.

    The coefficients 2*C_{2j}^{(g/2)}(a) are tabled once here.
    """
    def direct(d: float) -> float:
        plus = (1.0 + d * d + 2.0 * a * d) ** (-gam / 2.0)
        minus = (1.0 + d * d - 2.0 * a * d) ** (-gam / 2.0)
        return (plus + minus - 2.0) / (d * d)

    return _series_pair(2.0 * eval_gegenbauer(2 * np.arange(1, 120), gam / 2.0, a), direct)


def _perp_pair(gam: float) -> Callable[[np.ndarray], np.ndarray]:
    """d -> 2*((1+d^2)^{-g/2} - 1)/d^2, stable at d = 0."""
    def pair(d: np.ndarray) -> np.ndarray:
        tiny = d < 1e-7
        safe = np.where(tiny, 1.0, d)
        return np.where(tiny, -gam + gam * (gam + 2.0) / 4.0 * d * d,
                        2.0 * np.expm1(-(gam / 2.0) * np.log1p(safe * safe)) / (safe * safe))

    return pair


# ---------------------------------------------------------------------------
# the kernel constants (all without the C_s factor)
# ---------------------------------------------------------------------------

def _pow_kernel(g: float, s: float, tol: Tolerance, perp: float = 0.0) -> float:
    """PV integral over the real line of
    (|1+tau|^{-g} - 1 + perp*((1+tau^2)^{-g/2} - 1)) / |tau|^{1+2s}.

    ``hat_c_dec(gamma)`` is this kernel at g = gamma, ``hat_c_gro(gamma)``
    minus it at g = -gamma, and ``c_k(gamma)`` it at g = gamma with
    perp = k-1: the second term alone integrates to ``c_perp(gamma)``.  PV
    point at 0, where both terms fold with exponent 1-2s; singularity of
    exponent e = min(-g, 0) at tau = -1; tail decay 1 + 2s + min(g, 0).
    """
    e = min(-g, 0.0)

    def excess(t: np.ndarray) -> np.ndarray:
        # perp times the c_perp numerator (1+t^2)^{-g/2} - 1
        return perp * np.expm1(-(g / 2.0) * np.log1p(t * t)) if perp else 0.0

    def f(t: np.ndarray) -> np.ndarray:
        return (np.abs(1.0 + t) ** (-g) - 1.0 + excess(t)) * np.abs(t) ** (-1.0 - 2.0 * s)

    def near_minus_one(side: int, d: np.ndarray) -> np.ndarray:
        # f(-1 + side*d) * d^{-e}, stable down to d = 0
        return ((d ** (-g - e) - d ** (-e) + excess(side * d - 1.0) * d ** (-e))
                / np.abs(1.0 - side * d) ** (1.0 + 2.0 * s))

    pair, perp_pair = _pow_pair_series(-g), _perp_pair(g)

    def fold(h: np.ndarray) -> np.ndarray:
        # (f(h) + f(-h)) * h^{2s-1}; the even part of the pair
        return pair(h) + perp * perp_pair(h) if perp else pair(h)

    integrand = Integrand(
        eval=f,
        singular_points=[(-1.0, e)],
        pv_points=[0.0],
        tail_decay=1.0 + 2.0 * s + min(g, 0.0),
        regular_eval={-1.0: near_minus_one},
        pv_fold={0.0: (1.0 - 2.0 * s, fold)},
    )
    return integrate_pv(integrand, 0.0, math.inf, tol).value


def _check_positive(gam: float, s: float) -> None:
    # chained comparisons are false for NaN, so NaN is rejected too
    if not 0.0 < gam < math.inf:
        raise DomainError("gamma must be finite and positive")
    if not 0.0 < s < 1.0:
        raise DomainError("s must lie in (0,1)")


def _check_decay(gam: float, s: float) -> None:
    if not 0.0 < gam < 1.0:
        raise DomainError("gamma must lie in (0,1)")
    _check_positive(gam, s)


def hat_c_dec(gam: float, s: float, tol: Tolerance = _DEFAULT_TOL) -> float:
    """PV integral of (|1+tau|^{-gamma} - 1)/|tau|^{1+2s} over the real line.

    Decay-case constant; gamma in (0,1).  PV point at 0, absolutely
    integrable singularity of exponent -gamma at tau = -1.
    """
    _check_decay(gam, s)
    return _pow_kernel(gam, s, tol)


def c_perp(gam: float, s: float, tol: Tolerance = _DEFAULT_TOL) -> float:
    """2 * integral_0^inf ((1+tau^2)^{-gamma/2} - 1)/tau^{1+2s} dtau  (< 0)."""
    _check_positive(gam, s)

    def f(t: np.ndarray) -> np.ndarray:
        return 2.0 * np.expm1(-(gam / 2.0) * np.log1p(t * t)) * t ** (-1.0 - 2.0 * s)

    pair = _perp_pair(gam)  # f(d) * d^{2s-1}
    integrand = Integrand(
        eval=f,
        singular_points=[(0.0, 1.0 - 2.0 * s)],
        tail_decay=1.0 + 2.0 * s,
        regular_eval={0.0: lambda side, d: pair(d)},
    )
    return integrate(integrand, 0.0, math.inf, tol).value


def c_k_fn(gam: float, s: float, k: int, tol: Tolerance = _DEFAULT_TOL) -> float:
    """c_k(gamma) = hat_c_dec(gamma) + (k-1) * c_perp(gamma), as one integral."""
    _check_decay(gam, s)
    return _pow_kernel(gam, s, tol, k - 1.0)


def hat_c_gro(gam: float, s: float, tol: Tolerance = _DEFAULT_TOL) -> float:
    """PV integral of (1 - |1+tau|^gamma)/|tau|^{1+2s}; growth case, s > 1/2.

    Positive for gamma < 2s-1, zero at gamma = 2s-1.
    """
    if not 0.5 < s < 1.0:
        raise DomainError("s must lie in (1/2,1) for the growth-case constant")
    if not 0.0 < gam <= 2.0 * s - 1.0 + 1e-12:
        raise DomainError("gamma must lie in (0, 2s-1]; the tail diverges beyond")
    return -_pow_kernel(-gam, s, tol)


def _iso_parts(gam: float, s: float, N: int) -> tuple[Callable, Callable, Callable]:
    """c_iso's kernel, its (1+t^2-2t/sqrt(N))^{-g/2} half, and its pair series."""
    _check_positive(gam, s)
    if N < 2:
        raise DomainError("N must be >= 2")
    a = 1.0 / math.sqrt(N)

    def minus(t: np.ndarray) -> np.ndarray:
        return (1.0 + t * t - 2.0 * a * t) ** (-gam / 2.0)

    def kernel(t: np.ndarray) -> np.ndarray:
        plus = (1.0 + t * t + 2.0 * a * t) ** (-gam / 2.0)
        return (plus + minus(t) - 2.0) * t ** (-1.0 - 2.0 * s)

    return kernel, minus, _iso_pair_series(gam, a)


def c_iso(gam: float, s: float, N: int, tol: Tolerance = _DEFAULT_TOL) -> float:
    """Isotropic half-space kernel constant.

    integral_0^inf ((1+t^2+2t/sqrt(N))^{-g/2} + (1+t^2-2t/sqrt(N))^{-g/2} - 2)
    / t^{1+2s} dt.
    """
    kernel, _, pair = _iso_parts(gam, s, N)
    integrand = Integrand(
        eval=kernel,
        singular_points=[(0.0, 1.0 - 2.0 * s)],
        tail_decay=1.0 + 2.0 * s,
        regular_eval={0.0: lambda side, d: pair(d)},
    )
    return integrate(integrand, 0.0, math.inf, tol).value


def c_n_plus(gam: float, s: float, N: int, tol: Tolerance = _DEFAULT_TOL) -> float:
    """N*c_iso(gamma) minus the one-sided correction integral from sqrt(N).

    One integral over (0, inf): N times the c_iso kernel, less
    (1+t^2-2t/sqrt(N))^{-gamma/2} / t^{1+2s} past t = sqrt(N), where the
    integrand jumps (declared as a breakpoint).
    """
    kernel, minus, pair = _iso_parts(gam, s, N)
    root = math.sqrt(N)

    def f(t: np.ndarray) -> np.ndarray:
        return N * kernel(t) - np.where(t > root, minus(t) * t ** (-1.0 - 2.0 * s), 0.0)

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

    ``form="primary"`` integrates ((1+t)^mu + (1-t)_+^mu - 2)/t^{1+2s};
    ``form="alternate"`` uses the first-derivative representation
    (mu/2s) * integral ((1+t)^{mu-1} - (1+t)^{2s-mu-1})/t^{2s}.
    """
    if not 0.0 < s < 1.0:
        raise DomainError("s must lie in (0,1)")
    if not 0.0 < mu < 2.0 * s:
        raise DomainError("mu must lie in (0, 2s)")
    if form == "primary":
        def f(t: np.ndarray) -> np.ndarray:
            # (1+t)^mu t^{-1-2s} as (1+1/t)^mu t^{mu-1-2s}: (1+t)^mu alone
            # overflows far out in the tail once mu > 1
            return ((1.0 + 1.0 / t) ** mu * t ** (mu - 1.0 - 2.0 * s)
                    + (np.maximum(1.0 - t, 0.0) ** mu - 2.0) * t ** (-1.0 - 2.0 * s))

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

def _bracketed_root(fn: Callable[[float], float], lo: float, hi: float) -> RootResult:
    from scipy.optimize import brentq  # slow to import: load it on first use

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
