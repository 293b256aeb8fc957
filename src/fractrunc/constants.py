"""Special constants and critical exponents for the extremal operators.

All kernel constants (``hat_c_dec``, ``c_perp``, ``c_k_fn``, ``hat_c_gro``,
``c_iso``, ``c_n_plus``, ``c_s_mu``) are computed *without* the normalizing
factor ``C_s``; callers that need the physically scaled quantity multiply by
:func:`normalizing_constant` explicitly.  This keeps every root and sign test
independent of the normalization choice.

The 1-D kernel constants ``hat_c_dec``, ``c_perp``, ``c_k_fn``, ``hat_c_gro``
and ``c_s_mu`` are Gamma-function closed forms; a reciprocal Gamma that is
exactly 0 at its poles puts their roots exactly where they vanish.
``c_iso`` is c_perp times a Gauss hypergeometric series, summed with a
bound on its error (``_iso_series``), and ``c_n_plus`` is N*c_iso less
one positive correction integral, a 3F2 series summed in 24 weighted
terms (``_corr_series``).  ``_iso_arrays`` evaluates either at a whole
stack of gamma, as two arrays, the values and their error bars; ``iso_stack``
is its view as one ``QuadResult`` per gamma, and ``c_iso`` and ``c_n_plus``
are its stacks of one.  A stack holds 1 to 15 gamma.  numpy takes the long
parts over all of them at once: the series' terms, their stop test and their
weighted sums (matrix-vector products, whose summation order a loop would
change).  The rest, a few dozen float operations per gamma, runs in one loop
over the stack, where a numpy call costs more to dispatch than to compute;
each step is the IEEE operation numpy would take.  The alternate ``c_s_mu``
sums two series of its first-derivative integral.  No quadrature here, and
nothing here takes a tolerance.  The roots gamma_tilde and gamma_plus come
from three such stacks, or a few more, each read straight from the two
arrays: a walk over a gamma grid, a Chebyshev proxy on the cell where the
constant changes sign, and a closing sign test at the proxy's root +- 5e-11,
which is the root's bracket when both signs lie beyond their error bars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .quad import QuadResult
from .quad import integrate, integrate_pv  # stubs that raise; perfbench's tracer looks them up here

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
    "iso_stack",
    "c_s_mu",
    "find_gamma_bar",
    "find_gamma_tilde",
    "find_gamma_plus",
    "exponent_table",
]

_EPS_GAMMA = 1e-6  # search interval (eps, 1-eps) for the bounded-exponent root, k >= 2


class DomainError(ValueError):
    """A parameter lies outside the admissible range."""


# The smallest s resolved, one floor for every entry point: the smallest s
# at which the tests check each layer (the quadrature rules, the constants,
# the roots and the table), kept until each layer's own floor is derived
# against mpmath.  No rounded 1 + 2s bounds it: the directional far piece
# takes -u(x) c^{-2s}/s exactly and its rule weight from 2s - alpha.
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
    """A root search found no sign change, or none that the error bars resolve."""


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
    if k < 1:
        raise DomainError("k must be >= 1")
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


# _perp_kernel's rounding: at most 16.3 eps against 40-digit mpmath on
# 4,000 random (g, s), g in [1e-3, 3e4]; the bars take twice that
_EPS = float(np.finfo(float).eps)
_PERP_REL = 32.0 * _EPS

# _iso_series' first block of 64 terms: its n - 1, the (n - 1/2) n of its
# ratios' denominators, and the bound's weights 3n + 4.5 of u_2 .. u_64
_ISO_M = np.arange(64.0)
_ISO_DEN = (_ISO_M + 0.5) * (_ISO_M + 1.0)
_ISO_WEIGHTS = 3.0 * np.arange(2.0, 65.0) + 4.5


def _iso_series(gam: np.ndarray, s: float, N: int) -> tuple[list[float], list[float]]:
    """G = 2F1(g/2+s, -s; 1/2; 1/N) at every g of ``gam``, and a bound on its error: two lists.

    G = 1 - u_1 - u_2 - ..., u_1 = 2as/N (a = g/2+s) and u_n = u_{n-1} (a+n-1)(n-1-s)
    / ((n-1/2) n N) > 0, in blocks that double from 64 until every ratio past the last
    term K is at most rho = max(1, (max a + K)/(K+1))/N < 1 and the rest, at most
    u_K rho/(1-rho), is below eps/4 of max(u_1 + ... + u_K, 1).  Near s = 1 the u_n from
    n = 2 on carry a factor 1 - s and 1 - u_1 cancels alone, so it is taken to 2 eps and
    the others' math.fsum subtracted.  The bound is the rest plus each rounding: 1 - u_1's,
    the sum's, the difference's and each u_n's, at most 6n + 8 (five per ratio, one per
    product and one per block).  The blocks, their stop test and the weighted sum of the
    u_n run in numpy over all g; 1 - u_1, the fsum and the bound run per g in floats.
    """
    a = (gam / 2.0)[:, None] + s
    blocks = [((a + _ISO_M) * np.abs(_ISO_M - s) / (_ISO_DEN * N)).cumprod(axis=1)]
    running, start, width = blocks[0].sum(axis=1), 65, 128
    while True:
        rho = max(1.0, (a.max() + start - 1.0) / start) / N
        if rho < 1.0:
            rest = blocks[-1][:, -1] * (rho / (1.0 - rho))
            if (rest <= 0.25 * _EPS * np.maximum(running, 1.0)).all():
                break
        m = np.arange(start - 1.0, start - 1.0 + width)  # n - 1
        block = ((a + m) * np.abs(m - s) / ((m + 0.5) * (m + 1.0) * N)).cumprod(axis=1)
        blocks.append(block * blocks[-1][:, -1:])
        running = running + blocks[-1].sum(axis=1)
        start, width = start + width, 2 * width
    if len(blocks) == 1:
        later, weights = blocks[0][:, 1:], _ISO_WEIGHTS  # u_2 .. u_K
    else:
        later, weights = np.concatenate(blocks, axis=1)[:, 1:], 3.0 * np.arange(2.0, start) + 4.5
    # 1 - u_1 = (N - 2as)/N with g/2 + s = a_hi + a_lo and a_hi*s = prod + prod_lo held
    # exactly (Knuth's TwoSum; Dekker's TwoProduct, Veltkamp's split at 2^27 + 1)
    s_big = 134217729.0 * s
    s_top = s_big - (s_big - s)
    s_tail = s - s_top
    series, bound = [], []
    for g, row, weighted, tail in zip(gam.tolist(), later.tolist(), (later @ weights).tolist(),
                                      rest.tolist()):
        g_half = g / 2.0
        a_hi = g_half + s
        a_part = a_hi - g_half
        a_lo = (g_half - (a_hi - a_part)) + (s - a_part)
        prod, big = a_hi * s, 134217729.0 * a_hi
        a_top = big - (big - a_hi)
        a_tail = a_hi - a_top
        prod_lo = ((a_top * s_top - prod) + a_top * s_tail + a_tail * s_top) + a_tail * s_tail
        first = ((N - 2.0 * prod) - 2.0 * (prod_lo + a_lo * s)) / N
        value = first - math.fsum(row)
        series.append(value)
        bound.append(tail + _EPS * (weighted + 2.0 * abs(first) + 0.5 * abs(value) + _EPS * prod))
    return series, bound


def _peak_gamma(N: int) -> float:
    """The largest gamma that ``_iso_arrays`` takes in dimension N, about 1381 N.

    The kernel peaks at (1-1/N)^{-g/2}, at t = 1/sqrt(N), and the series' terms
    and c_iso grow with it; past 1e300 they leave the float range.
    """
    return 2.0 * math.log(1e300) / -math.log1p(-1.0 / N)


# Cohen, Rodriguez Villegas & Zagier's acceleration of an alternating series
# sum (-1)^j a_j (Experimental Math. 9, 2000, Algorithm 1) with n = 24 terms:
# sum w_j a_j, w_j = c_j/d with integers c_j and d = T_24(3) ~ (3 + sqrt 8)^24 / 2,
# each weight rounded once (int / int is correctly rounded).
# If the a_j are the moments of a positive measure on [0, 1], its error is at
# most |S|/d <= 2|S|/(3 + sqrt 8)^24 ~ 8.5e-19 |S|.
_CRVZ_TERMS = 24


def _crvz_weights(n: int) -> tuple[list[int], int]:
    """Algorithm 1's n weights as integers c_j over their denominator d = T_n(3).

    Its b_j, the coefficients of the shifted Chebyshev polynomial T_n(1 - 2x), are
    integers, so every division below is exact.
    """
    d, below = 3, 1  # T_k(3), from T_{k+1} = 6 T_k - T_{k-1}
    for _ in range(n - 1):
        d, below = 6 * d - below, d
    b, c, cs = -1, -d, []
    for k in range(n):
        c = b - c
        cs.append(c)
        b = b * 2 * (k + n) * (k - n) // ((2 * k + 1) * (k + 1))
    return cs, d


_CRVZ_NUMERATORS, _CRVZ_DENOMINATOR = _crvz_weights(_CRVZ_TERMS)
_CRVZ_WEIGHTS = np.array([c / _CRVZ_DENOMINATOR for c in _CRVZ_NUMERATORS])
_CRVZ_REST = 2.0 / (3.0 + math.sqrt(8.0)) ** _CRVZ_TERMS
_TINY = math.ulp(0.0)  # the absolute rounding of a result in the subnormal range
# _corr_series' j-only vectors: the j and j + 1/2 of its ratios, and its bound's |w_j| and
# 13j + 25 of each term
_CRVZ_J = np.arange(_CRVZ_TERMS - 1.0)
_CRVZ_J_HALF = _CRVZ_J + 0.5
_CRVZ_ABS_WEIGHTS = np.abs(_CRVZ_WEIGHTS)
_CRVZ_ROUNDINGS = 13.0 * np.arange(_CRVZ_TERMS) + 25.0


def _corr_series(gam: np.ndarray, s: float, N: int) -> tuple[list[float], list[float]]:
    """corr = integral of (1+t^2-2t/sqrt(N))^{-g/2} / t^{1+2s} over (sqrt(N), inf) at every g
    of ``gam``, and a bound on its error.

    In x = 1/t, then x = (1-y)/sqrt(N), the binomial series integrates term by term (beta
    integrals): with kappa = 1/(N-1), corr = N^{-s} (N-1)^{-g/2} / (g+2s) S, S =
    3F2(g/2, 1/2, 1; g/2+s+1/2, g/2+s+1; -kappa) = sum (-1)^j a_j, a_j the product of
    (g/2)_j/(g/2+s+1)_j, (1/2)_j/(g/2+s+1/2)_j and kappa^j: three moment sequences on
    [0, 1], so the a_j are moments of a positive measure on [0, kappa] and 24 weighted
    terms sum S to within 8.5e-19 S at every N >= 2 (kappa = 1 at N = 2), g > 0 and s.
    The bound is that plus twice the rounding: at most 13 roundings of eps/2 in each ratio
    and its product, so 6.5 j eps in a_j, and 12.5 eps in each weighted term and the sum;
    3.5 eps in the prefactor, an ulp in each power, whose exponents are exact, and half an
    eps in its product with S; and 4 subnormal units where the prefactor underflows.  The
    terms and their two weighted sums run in numpy over all g; the prefactor, corr and its
    bound per g in floats.  Two lists, corr and its bound.
    """
    half = gam[:, None] / 2.0
    half_s = half + s
    terms = np.empty((gam.size, _CRVZ_TERMS))
    terms[:, 0] = 1.0
    ((half + _CRVZ_J) * _CRVZ_J_HALF * (1.0 / (N - 1.0))
     / ((half_s + 1.0 + _CRVZ_J) * (half_s + 0.5 + _CRVZ_J))).cumprod(axis=1, out=terms[:, 1:])
    n_s, two_s = N ** -s, 2.0 * s
    corr, bar = [], []
    for g, total, rounding in zip(gam.tolist(), (terms @ _CRVZ_WEIGHTS).tolist(),
                                  ((terms * _CRVZ_ABS_WEIGHTS) @ _CRVZ_ROUNDINGS).tolist()):
        prefactor = n_s * (N - 1.0) ** -(g / 2.0) / (g + two_s)
        corr.append(prefactor * total)
        bar.append(prefactor * (_CRVZ_REST * total + _EPS * rounding)
                   + 8.0 * _EPS * corr[-1] + 4.0 * _TINY)
    return corr, bar


def _iso_arrays(gammas: Sequence[float], s: float, N: int,
                n_plus: bool) -> tuple[np.ndarray, np.ndarray]:
    """c_iso, or c_N^+ if ``n_plus``, at every gamma of a stack, and a bound on each one's
    error: two arrays, with no quadrature.

    c_iso, the integral over (0, inf) of (plus + minus - 2) / t^{1+2s} with plus, minus =
    (1+t^2 +- 2t/sqrt(N))^{-g/2}, is the 1-D fractional Laplacian of ((t-a)^2 + b^2)^{-g/2}
    at 0 (a = 1/sqrt(N), b^2 = 1 - a^2), whose Fourier transform is a Bessel K; Gradshteyn &
    Ryzhik 6.699.12 and Pfaff's transformation (DLMF 15.8.1) give c_iso = c_perp(g) G, G from
    :func:`_iso_series`.  Its bound covers the series' error and c_perp's rounding.  c_N^+ =
    N c_iso - corr, corr the integral of minus / t^{1+2s} over (sqrt(N), inf), a 3F2 series
    from :func:`_corr_series`, and its bound is N times c_iso's plus corr's.  Both series
    return lists; c_perp, the products and the bars are taken per gamma in floats.
    """
    if N < 2:
        raise DomainError("N must be >= 2")
    gam = np.array(gammas, float)
    glist, peak = gam.tolist(), _peak_gamma(N)
    if not all(0.0 < g <= peak for g in glist):  # false for NaN too
        for g in gammas:  # the first gamma refused, named as it was given
            _check_positive(g, s)
            if g > peak:
                raise DomainError(f"gamma = {g} is too large: the kernel's peak "
                                  "(1-1/N)^(-gamma/2) exceeds 1e300")
    _check_s(s)
    if not glist:
        return np.empty(0), np.empty(0)
    values, bars = [], []
    for g, series, bound in zip(glist, *_iso_series(gam, s, N)):
        perp = _perp_kernel(g, s)
        values.append(perp * series)
        bars.append(abs(perp) * bound + abs(values[-1]) * (_PERP_REL + _EPS))
    if n_plus:
        corr, corr_bar = _corr_series(gam, s, N)
        values = [v * N - c for v, c in zip(values, corr)]
        bars = [e * N + c for e, c in zip(bars, corr_bar)]
    return np.array(values), np.array(bars)


def iso_stack(gammas: Sequence[float], s: float, N: int, n_plus: bool) -> list[QuadResult]:
    """c_iso, or c_N^+ if ``n_plus``, at every gamma of a stack, with no quadrature: one
    ``QuadResult`` per gamma, with no evaluations, from :func:`_iso_arrays`' values and bars."""
    values, bars = _iso_arrays(gammas, s, N, n_plus)
    return [QuadResult(v, e, 0) for v, e in zip(values.tolist(), bars.tolist())]


def c_iso(gam: float, s: float, N: int) -> float:
    """Isotropic half-space kernel constant.

    integral_0^inf ((1+t^2+2t/sqrt(N))^{-g/2} + (1+t^2-2t/sqrt(N))^{-g/2} - 2)
    / t^{1+2s} dt, a series: the stack of one of :func:`_iso_arrays`.
    """
    return float(_iso_arrays([gam], s, N, False)[0][0])


def c_n_plus(gam: float, s: float, N: int) -> float:
    """N*c_iso(gamma) minus the integral of (1+t^2-2t/sqrt(N))^{-gamma/2} / t^{1+2s}
    over (sqrt(N), inf): the stack of one of :func:`_iso_arrays`."""
    return float(_iso_arrays([gam], s, N, True)[0][0])


_K = np.arange(64.0)  # the terms k of the alternate c_s_mu's two series
_HALF_K = 0.5 ** _K


def c_s_mu(mu: float, s: float, form: str = "primary") -> float:
    """The power-profile constant with I_{e_N}(x_N)_+^mu = C_s c_{s,mu} x_N^{mu-2s}.

    ``form="primary"`` is the closed form of the integral of
    ((1+t)^mu + (1-t)_+^mu - 2)/t^{1+2s} over (0, inf), in the reflected
    form (mu/2s) B(mu, 2s-mu) sin(pi(mu-s))/sin(pi s): no removable point
    at s = 1/2, and exactly 0 at mu = s.  ``form="alternate"`` sums the
    first-derivative representation
    (mu/2s) * integral ((1+t)^{mu-1} - (1+t)^{2s-mu-1})/t^{2s} as two
    series of 64 terms, also exactly 0 at mu = s.
    """
    _check_s(s)
    if not 0.0 < mu < 2.0 * s:
        raise DomainError("mu must lie in (0, 2s)")
    if form == "primary":
        # mu Gamma(mu) = Gamma(1+mu) and 2s Gamma(2s) = Gamma(1+2s)
        return (math.gamma(1.0 + mu) * math.gamma(2.0 * s - mu) / math.gamma(1.0 + 2.0 * s)
                * _sin_pi(mu - s) / _sin_pi(s))
    if form == "alternate":  # an independent check of the closed form: no Gamma, no reflection
        # The first-derivative representation mapped to (0,1) via u = 1/(1+t),
        # (mu/2s) J with J = integral_0^1 (u^{b-1} - u^{a-1}) (1-u)^{-2s} du, a = mu and
        # b = 2s - mu, split at u = 1/2.  On (0, 1/2) the binomial series of (1-u)^{-2s}
        # gives sum_k (2s)_k/k! (2^{-b-k}/(b+k) - 2^{-a-k}/(a+k)), each bracket taken as
        # 2^{-a-k} (expm1((a-b) log 2)/(b+k) + (a-b)/((a+k)(b+k))), two terms of one sign,
        # so nothing cancels as mu -> s.  On (1/2, 1), in v = 1-u, that of (1-v)^{c-1}
        # gives sum_{k>=1} ((1-b)_k - (1-a)_k)/k! 2^{2s-1-k}/(k+1-2s).  The terms of both
        # fall like k 2^-k, so past the 64 taken they leave ~2^-57 of the leading one.
        a, b = mu, 2.0 * s - mu
        d = a - b
        ratios = (np.array([[2.0 * s], [1.0 - b], [1.0 - a]]) + _K[:-1]) / _K[1:]
        rising = np.cumprod(np.hstack((np.ones((3, 1)), ratios)), axis=1)  # (x)_k/k!
        left = rising[0] * _HALF_K * (math.expm1(d * math.log(2.0)) / (b + _K)
                                      + d / ((a + _K) * (b + _K)))
        right = (rising[1, 1:] - rising[2, 1:]) * _HALF_K[1:] / (_K[1:] + 1.0 - 2.0 * s)
        return float(mu / (2.0 * s) * (2.0 ** -a * left.sum()
                                       + 2.0 ** (2.0 * s - 1.0) * right.sum()))
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
    with that value as the residual and the bracket, ordered, as ``bracket``:
    a cell whose ends' values have opposite signs, or (root, root) where
    fn(root) is exactly 0.  ``iterations`` counts its own evaluations of ``fn``.
    """
    if flo == 0.0 or fhi == 0.0:
        root = lo if flo == 0.0 else hi
        return RootResult(root, 0.0, (root, root), 0)
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
            cell = (xm, xm) if fm == 0.0 else (min(x1, x2), max(x1, x2))
            return RootResult(xm, fm, cell, iterations)
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
    root comes with residual 0 and no search.  For k >= 2 the search starts
    on (1e-6, 1 - 1e-6).  Where c_k has one sign at both ends, the root lies
    beyond one of them (near 4.9 (1-s)^2 for k = 2 as s -> 1, near 1 for
    large k), and the bracket steps past that end a decade at a time, to
    gamma/10 or 1 - (1 - gamma)/10, until c_k changes sign.  A root below
    1e-4 is closed again on a cell at most 1e-9 of itself wide.
    """
    if k == 1:
        _check_s(s)
        root = 1.0 - 2.0 * s
        return RootResult(root, 0.0, (root, root), 0) if s < 0.5 else None
    lo, hi = _EPS_GAMMA, 1.0 - _EPS_GAMMA
    fn = lambda g: c_k_fn(g, s, k)
    flo, fhi = fn(lo), fn(hi)
    while flo > 0.0 and fhi > 0.0 and lo / 10.0 > 0.0:
        hi, fhi, lo = lo, flo, lo / 10.0
        flo = fn(lo)
    while flo < 0.0 and fhi < 0.0 and 1.0 - (1.0 - hi) / 10.0 < 1.0:
        lo, flo, hi = hi, fhi, 1.0 - (1.0 - hi) / 10.0
        fhi = fn(hi)
    if flo * fhi > 0.0:
        return None
    result = _bracketed_root(fn, lo, hi, flo, fhi)
    if result.root < 1e-4:
        # 0.5e-9 lo plus the relative 8.9e-16 of the root stays below 1e-9 of it
        result = _bracketed_root(fn, lo, hi, flo, fhi, xtol=0.5e-9 * lo)
    return result


# the walk's grids of five doublings, and the Chebyshev-Lobatto points of the proxy on [-1, 1]
_WALK_STEPS = 5
_PROXY_DEGREE = 16
_LOBATTO = -np.cos(np.pi * np.arange(_PROXY_DEGREE + 1) / _PROXY_DEGREE)
_BARYCENTRIC = (-1.0) ** np.arange(_PROXY_DEGREE + 1)  # the weights at those points
_BARYCENTRIC[[0, -1]] *= 0.5
_ZOOM = np.linspace(0.0, 1.0, 33)[1:-1]
_PASS_LIMIT = 40
_XTOL = 1e-10  # the roots' absolute tolerance: their cells are at most this wide, plus rounding


def _proxy_root(x: np.ndarray, fx: np.ndarray, j: int) -> float:
    """The root in [x[j-1], x[j]] of the interpolant of ``fx`` at the Chebyshev-Lobatto points ``x``.

    The interpolant is evaluated in barycentric form (Berrut & Trefethen,
    SIAM Review 46, 2004) at 31 inner points of the cell where it changes
    sign, four times over, each time on the sub-cell where it changes sign
    (32^4 ~ 1e6 narrower); the root is the secant point of the last one.
    """
    a, fa, b, fb = x[j - 1], fx[j - 1], x[j], fx[j]
    for _ in range(4):
        t = a + (b - a) * _ZOOM
        weights = _BARYCENTRIC / (t[:, None] - x)
        ft = (weights @ fx) / weights.sum(axis=1)
        up = np.flatnonzero(ft > 0.0)
        k = int(up[0]) if up.size else t.size
        if k > 0:
            a, fa = t[k - 1], ft[k - 1]
        if k < t.size:
            b, fb = t[k], ft[k]
    return float(a - fa * (b - a) / (fb - fa))


def _root_passes(evaluate: Callable[[Sequence[float]], tuple[np.ndarray, np.ndarray]],
                 f0: float, top: float) -> RootResult:
    """The first root in (0, ``top``] of a constant c with c(0) = ``f0`` and c < 0 just above 0.

    ``evaluate(gammas)``, a pass, returns two arrays: c and its error bar at
    every gamma up to ``top``.
    1. Walk: c at 2, 4, ..., 32, then at 64, ..., 1024, and so on, five
       doublings a pass, while c is positive at none of them and the
       doublings stay within ``top``, with 0 as the lowest point: the first
       cell where c turns positive.  No sign change up to ``top`` is a
       ``BracketFailure``.
    2. Proxy: c at the 15 inner Chebyshev-Lobatto points of the cell, and r
       the root of their degree-16 interpolant (a Chebyshev proxy, Boyd,
       Solving Transcendental Equations, SIAM 2014) in the node cell where
       c turns positive.
    3. Closing test: c at r - delta, r and r + delta, delta = _XTOL/2.  If c
       changes sign across r +- delta and both values lie beyond their
       bars, that is the bracket: at most _XTOL + 2.2e-16*|r| wide, the
       rounding of its ends included.  Otherwise the cell shrinks to the
       pair of points seen nearest r where c turns positive, at least ~10x,
       and 2-3 repeat.  A pair at most _XTOL apart is the bracket if its
       values lie beyond their bars, and ``BracketFailure`` otherwise.
    ``residual`` is c(r) and ``iterations`` counts the passes.
    """
    def read(gammas: Sequence[float]) -> np.ndarray:  # rows (c, its bar)
        return np.array(evaluate(gammas)).T

    def beyond(rows: np.ndarray) -> bool:
        return bool(np.all(np.abs(rows[:, 0]) > rows[:, 1]))

    lo, low = 0.0, np.array([f0, 0.0])
    passes = 0
    while True:
        k = _WALK_STEPS * passes
        grid = [2.0 ** j for j in range(k + 1, k + _WALK_STEPS + 1) if 2.0 ** j <= top]
        if not grid or passes == _PASS_LIMIT:
            raise BracketFailure(f"no sign change found up to gamma = {lo:g}")
        values = read(grid)
        passes += 1
        up = np.flatnonzero(values[:, 0] > 0.0)
        if up.size:
            i = int(up[0])
            if i > 0:
                lo, low = grid[i - 1], values[i - 1]
            hi, high = grid[i], values[i]
            break
        lo, low = grid[-1], values[-1]
    while passes < _PASS_LIMIT:
        x = lo + (hi - lo) * (_LOBATTO + 1.0) / 2.0
        x[0], x[-1] = lo, hi
        fx = np.vstack((low, read(x[1:-1]), high))
        j = int(np.flatnonzero(fx[:, 0] > 0.0)[0])
        r = _proxy_root(x, fx[:, 0], j)
        probe = np.array([r - 0.5 * _XTOL, r, r + 0.5 * _XTOL])
        fp = read(probe)
        passes += 2
        if (fp[0, 0] > 0.0) != (fp[2, 0] > 0.0) and beyond(fp[::2]):
            return RootResult(r, float(fp[1, 0]), (float(probe[0]), float(probe[2])), passes)
        xs = np.concatenate((x, probe))
        order = np.argsort(xs, kind="stable")
        xs, fs = xs[order], np.vstack((fx, fp))[order]
        changes = np.flatnonzero((fs[:-1, 0] <= 0.0) & (fs[1:, 0] > 0.0))
        i = int(changes[np.argmin(np.abs(xs[changes] - r))])
        lo, hi, low, high = float(xs[i]), float(xs[i + 1]), fs[i], fs[i + 1]
        if hi - lo <= _XTOL:
            # a sign change within the tolerance that the test at r +- delta missed
            if not beyond(fs[i:i + 2]):
                raise BracketFailure(f"the error bars cannot separate the signs at gamma = "
                                     f"{lo!r} and {hi!r}")
            k = i if abs(low[0]) < abs(high[0]) else i + 1
            return RootResult(float(xs[k]), float(fs[k, 0]), (lo, hi), passes)
    raise BracketFailure(f"no root to within {_XTOL:g} after {_PASS_LIMIT} passes")


def find_gamma_tilde(N: int, s: float) -> RootResult:
    """Unique positive root of c_iso, from stacked passes (:func:`_root_passes`).

    c_iso(0) = 0, and c_iso < 0 just above 0.  Every pass is one series
    :func:`_iso_arrays` call, with no quadrature.
    """
    if N < 2:
        raise DomainError("N must be >= 2")
    return _root_passes(lambda gammas: _iso_arrays(gammas, s, N, False), 0.0, _peak_gamma(N))


def find_gamma_plus(N: int, s: float) -> RootResult:
    """Root of c_n_plus, which lies above find_gamma_tilde, from stacked passes.

    c_N^+ = N c_iso - corr with corr > 0, so c_N^+ < 0 on (0, gamma_tilde]
    where c_iso <= 0; c_N^+(0) = -N^{-s}/(2s) in closed form.  The root is
    found by :func:`_root_passes` on c_n_plus alone, each pass one series
    :func:`_iso_arrays` call with no quadrature.  That it exceeds gamma_tilde,
    c_iso's unique positive root, is then one more: c_iso(r + _XTOL) > 0
    beyond its bar (at the root itself c_iso can read as rounding of either
    sign).
    """
    _check_s(s)
    if N < 2:
        raise DomainError("N must be >= 2")
    result = _root_passes(lambda gammas: _iso_arrays(gammas, s, N, True), -N ** -s / (2.0 * s),
                          _peak_gamma(N))
    above, bar = _iso_arrays([result.root + _XTOL], s, N, False)
    if not above[0] - bar[0] > 0.0:
        raise BracketFailure("gamma_plus did not exceed gamma_tilde beyond c_iso's bar")
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


def exponent_table(N: int, s: float) -> ExponentTable:
    """Bounds on the critical exponents p* (p > 1) and p_* (p < 1) per operator."""
    if N < 2:
        raise DomainError("N must be >= 2")
    _check_s(s)
    rows: list[dict] = []
    gamma_plus = find_gamma_plus(N, s).root
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
