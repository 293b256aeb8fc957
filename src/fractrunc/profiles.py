"""Explicit barrier and supersolution profiles on R^N and the half-space.

Every constructed function is an *evaluable field*: a ``Field``, whose
docstring states the protocol the operator module reads (line sections,
C^2 radius, breakpoints, growth, and optionally the second derivative along
a line and a closed-form far part), every hook on a stack of rows at once,
each row a line seen through four numbers (``Rows``).  Radial profiles are
cap/tail constructions: a power of |x| beyond a junction radius, glued C^3
to the third-order Taylor cubic of the same power inside.  Each
construction is one class: the radial profile and its derivative along
e_N, psi, the bump train, the half-space power tail, the power profile and
the min composition; the power transform of a power profile is again a
power profile.  Crossings with the hyperplanes {x_N = level} and with
spheres come from ``_plane_crossings`` and ``_sphere_crossings``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .constants import (
    DomainError,
    NoRootError,
    _PERP_REL,
    _bracketed_root,
    _perp_kernel,
    c_s_mu,
    find_gamma_bar,
    find_gamma_plus,
    normalizing_constant,
)

__all__ = [
    "InvariantViolation",
    "ExponentOutOfRange",
    "RadialProfile",
    "TransformParams",
    "make_w_gamma",
    "make_v_gamma",
    "make_v_minus_gamma",
    "make_psi",
    "build_thIN_supersolution",
    "build_singular_supersolution",
    "power_transform",
]


class InvariantViolation(ValueError):
    """A constructed profile fails its numeric invariants."""


class ExponentOutOfRange(ValueError):
    """An exponent parameter lies outside the admitted range."""


# ---------------------------------------------------------------------------
# lines, and where they cross non-smooth surfaces
# ---------------------------------------------------------------------------

def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] . b[i] of each row of two stacks ``(m, N)``, each row by BLAS as
    ``a[i] @ b[i]`` is, whatever the stacks' layout."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


@dataclass(frozen=True)
class Rows:
    """Lines x + t*xi (unit xi) by four arrays of one shape, which index and
    broadcast together: ``b`` = x.xi, ``d2`` = |x - b*xi|^2 formed once from
    the vectors, so |x + t*xi|^2 = d2 + (t + b)^2 (``r2``) does not cancel
    near the closest point, and the last components ``x_n`` and ``xi_n``.
    ``operators.row_sums`` reads a stack of shape ``(P, k)``, the k sections
    of each of P points; a field's hooks see it flat, ``(P*k,)``.
    """

    b: np.ndarray
    d2: np.ndarray
    x_n: np.ndarray
    xi_n: np.ndarray

    @classmethod
    def through(cls, x: np.ndarray, xi: np.ndarray) -> "Rows":
        """The rows of points ``x`` along directions ``xi``, ``(..., N)`` each."""
        x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
        shape, (flat_x, flat_xi) = x.shape[:-1], (a.reshape(-1, a.shape[-1]) for a in (x, xi))
        b = _dot(flat_x, flat_xi)
        foot = flat_x - b[:, None] * flat_xi
        return cls(b.reshape(shape), _dot(foot, foot).reshape(shape), x[..., -1].copy(),
                   xi[..., -1].copy())

    def __getitem__(self, index) -> "Rows":
        return Rows(self.b[index], self.d2[index], self.x_n[index], self.xi_n[index])

    def __len__(self) -> int:
        return len(self.b)

    def r2(self, t) -> np.ndarray:
        """|x + t*xi|^2 at every t."""
        u = t + self.b
        return self.d2 + u * u


def _plane_crossings(rows: Rows, levels=(0.0,)) -> np.ndarray:
    """``(m, L)``: the t at which each row's x_N + t*xi_N meets each level,
    inf where |t| <= 1e-9 or |xi_N| < 1e-15.  ``levels`` is ``(L,)`` or one
    row per row; an inf level meets nothing."""
    x_n, xi_n = rows.x_n[:, None], rows.xi_n[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (np.asarray(levels, float) - x_n) / xi_n
    return np.where((np.abs(xi_n) >= 1e-15) & np.isfinite(t) & (np.abs(t) > 1e-9), t, np.inf)


_GRAZE = 8.0 * np.finfo(float).eps  # the rounding of d2, relative to radius^2


def _sphere_crossings(b: np.ndarray, d2: np.ndarray, radius: float, graze=0.0) -> np.ndarray:
    """``(m, 2)``: the t at which each row's |x + t*xi| = radius, for rows of
    ``b`` = x.xi and squared distance ``d2`` from the sphere's centre; inf
    where |t| <= 1e-9 or the line misses, touches or dips in by at most graze *
    radius^2; a C^3 junction passes ``_GRAZE``: such a crossing is invisible."""
    disc = radius**2 - d2
    root = np.sqrt(np.maximum(disc, 0.0))
    t = np.stack((-b - root, -b + root), axis=1)
    return np.where((disc > graze * radius**2)[:, None] & (np.abs(t) > 1e-9), t, np.inf)


# ---------------------------------------------------------------------------
# cap/tail machinery
# ---------------------------------------------------------------------------

class _PiecewiseG:
    """g(r) in the squared-radius variable: cubic cap for r <= junction, power tail.

    The tail is sign * r^{-sign*gamma/2}: ``sign=+1`` decays, ``sign=-1``
    grows like -r^{gamma/2}.  The cap is the tail's third-order Taylor cubic
    at the junction, in powers of (r - junction_r2); ``value`` gives it and
    its first three derivatives.
    """

    def __init__(self, gamma: float, junction_r2: float, sign: float = 1.0) -> None:
        if not 0.0 < gamma < math.inf:
            raise ExponentOutOfRange("gamma must be finite and positive")
        self.gamma = gamma
        self.junction_r2 = junction_r2
        self.sign = sign
        self.p = -sign * gamma / 2.0
        try:
            h = [coeff * junction_r2**e for coeff, e in map(self._tail, range(4))]
        except OverflowError:  # junction_r2**e leaves the float range
            h = [math.inf]
        if not all(map(math.isfinite, h)):
            raise ExponentOutOfRange(f"gamma = {gamma} is too large: the cap "
                                     "coefficients leave the float range")
        self.cap = (h[0], h[1], h[2] / 2.0, h[3] / 6.0)

    def _tail(self, order: int) -> tuple[float, float]:
        """(c, e) such that the tail's derivative of this order is c * r^e."""
        coeff = self.sign
        e = self.p
        for _ in range(order):
            coeff *= e
            e -= 1.0
        return coeff, e

    def value(self, r: np.ndarray, order: int = 0) -> np.ndarray:
        """g^(order), order 0 to 3, at every element of ``r``; the branches
        are taken with np.where, each on arguments where it is finite."""
        j = self.junction_r2
        a = self.cap
        d = np.minimum(r, j) - j
        if order == 0:
            cap = a[0] + d * (a[1] + d * (a[2] + d * a[3]))
        elif order == 1:
            cap = a[1] + d * (2.0 * a[2] + 3.0 * d * a[3])
        elif order == 2:
            cap = 2.0 * a[2] + 6.0 * d * a[3]
        else:
            cap = 6.0 * a[3]
        coeff, e = self._tail(order)
        return np.where(r <= j, cap, coeff * np.maximum(r, j) ** e)


# ---------------------------------------------------------------------------
# evaluable field base
# ---------------------------------------------------------------------------

class Field:
    """Base evaluable field, and the protocol the operator module reads.

    The unit is a stack of *rows*, lines x + t*xi in R^N, which a field sees
    only through the four numbers of a ``Rows``: b = x.xi, d2 = |x - b*xi|^2,
    x_N and xi_N, so |x + t*xi|^2 = d2 + (t + b)^2.  Every hook answers for
    all rows in one call, and row i's answer depends on row i alone:

    - ``line(rows)``: the sections t -> u(x + t*xi), elementwise on an
      array of t; the four arrays of ``rows`` may be of any shape, which
      broadcasts against t (``rows[:, None]`` against t of shape (m, n)).
    - ``c2_radius(rows)``, ``(m,)``: the radius of a ball around each point
      on which u is C^2, or on which each section is C^2 up to its nearest
      breakpoint: the engine caps each row's window there.
    - ``breakpoints(rows)``, ``(m, B)``: the t with |t| > 1e-9 at which
      each section crosses a set where u is not C^2, unsorted, possibly
      repeated, each row padded with inf.
    - ``growth_alpha``: every section is bounded by
      growth_const * (1 + |t|)^growth_alpha; ``growth_const`` may be None,
      and the sections are then probed.
    - ``d2_along(rows)``, ``(m,)``, optional: the sections' second
      derivative at t = 0; without it the engine takes finite differences.
    - ``far_part(rows, s)``, optional: (values, errors), each ``(m,)``, of
      the part of each row's order-s section integral (before C_s) that
      ``line`` does not show, in closed form.

    The base field is C^2 within 1 of every point and has no breakpoints.
    """

    growth_alpha: float = 0.0
    growth_const: Optional[float] = None
    is_radial: bool = False

    def line(self, rows: Rows) -> Callable[[np.ndarray], np.ndarray]:
        """The restriction t -> u(x + t*xi), elementwise on an array of t."""
        raise NotImplementedError

    def __call__(self, y: np.ndarray) -> float:
        y = np.asarray(y, float)
        return float(self.line(Rows.through(y, np.zeros_like(y)))(0.0))

    def c2_radius(self, rows: Rows) -> np.ndarray:
        return np.ones(len(rows))

    def breakpoints(self, rows: Rows) -> np.ndarray:
        return np.empty((len(rows), 0))


# ---------------------------------------------------------------------------
# radial profiles
# ---------------------------------------------------------------------------

class RadialProfile(Field):
    """Cap/tail radial profile v(x) = g(|x|^2) with C^3 junction."""

    is_radial = True

    def __init__(self, gamma: float, junction_r2: float,
                 orientation: str = "decay") -> None:
        if orientation not in ("decay", "growth"):
            raise ValueError("orientation must be 'decay' or 'growth'")
        sign = 1.0 if orientation == "decay" else -1.0
        self.gamma = gamma
        self.junction_r2 = junction_r2
        self.orientation = orientation
        self.g = _PiecewiseG(gamma, junction_r2, sign)
        self.growth_alpha = 0.0 if orientation == "decay" else max(0.0, gamma)
        self._validate()

    # -- evaluation ---------------------------------------------------------
    def line(self, rows: Rows) -> Callable[[np.ndarray], np.ndarray]:
        value = self.g.value
        return lambda t: value(rows.r2(t))

    def breakpoints(self, rows: Rows) -> np.ndarray:
        return _sphere_crossings(rows.b, rows.d2, math.sqrt(self.junction_r2), _GRAZE)

    def d2_along(self, rows: Rows) -> np.ndarray:
        r2, b = rows.r2(0.0), rows.b
        return self.g.value(r2, 2) * 4.0 * b * b + self.g.value(r2, 1) * 2.0

    def partial(self) -> "_PartialN":
        return _PartialN(self)

    # -- invariants ---------------------------------------------------------
    def _validate(self) -> None:
        j = self.junction_r2
        for order in range(3):
            cap = self.g.value(j, order)
            tail = self.g.value(j * (1.0 + 1e-14) + 1e-300, order)
            if abs(cap - tail) > 1e-10 * max(1.0, abs(cap)):
                raise InvariantViolation(
                    f"C3 junction mismatch at order {order}: {cap} vs {tail}")
        grid = np.linspace(1e-6, 4.0 * j, 1000)
        for order in (0, 2):
            vals = self.g.value(grid, order)
            second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
            if np.min(second) < -1e-9 * max(1.0, float(np.max(np.abs(vals)))):
                raise InvariantViolation(
                    f"g^{(order)} fails grid convexity (min 2nd diff {np.min(second):.2e})")
        if self.orientation == "growth":
            r = np.linspace(0.0, 1.0, 101)
            above = np.flatnonzero(self.g.value(r) > -r ** (self.gamma / 2.0) + 1e-12)
            if above.size:
                raise InvariantViolation(f"growth cap fails dominance at r={r[above[0]]}")


class _PartialN(Field):
    """D_{x_N} v = 2 y_N g'(|y|^2) of a radial profile v = g(|y|^2).

    It is dimension-free: the derivative is along the last axis of whatever
    point it is given.  Decay: the derivative decays; growth (gamma <= 2s-1
    < 1): |Dv| ~ |y|^{gamma-1} is bounded.  So growth_alpha stays 0.
    """

    def __init__(self, base: RadialProfile) -> None:
        self.base = base

    def line(self, rows: Rows) -> Callable[[np.ndarray], np.ndarray]:
        value = self.base.g.value
        return lambda t: 2.0 * (rows.x_n + t * rows.xi_n) * value(rows.r2(t), 1)

    def c2_radius(self, rows: Rows) -> np.ndarray:
        # Dv is C^2 away from the junction sphere (v is only C^3 there)
        return np.clip(np.abs(np.sqrt(rows.r2(0.0)) - math.sqrt(self.base.junction_r2)), 0.02, 1.0)

    def breakpoints(self, rows: Rows) -> np.ndarray:
        return self.base.breakpoints(rows)

    def d2_along(self, rows: Rows) -> np.ndarray:
        # f(t) = 2(a + tb) g'(|x + t xi|^2), (a, b) = (x_N, xi_N), c = x.xi:
        # f''(0) = 8bc g'' + 2a(4c^2 g''' + 2g'')
        g, r2, c = self.base.g, rows.r2(0.0), rows.b
        a, b, g2 = rows.x_n, rows.xi_n, g.value(r2, 2)
        return 8.0 * b * c * g2 + 2.0 * a * (4.0 * c * c * g.value(r2, 3) + 2.0 * g2)


def make_w_gamma(gamma: float) -> RadialProfile:
    """Barrier profile: |x|^{-gamma} tail with junction at |x|^2 = 1/2."""
    return RadialProfile(gamma, 0.5, "decay")


def make_v_gamma(gamma: float) -> RadialProfile:
    """Bounded-derivative profile: |x|^{-gamma} tail with junction at |x|^2 = 1."""
    if not 0.0 < gamma < 1.0:
        raise ExponentOutOfRange("gamma must lie in (0,1)")
    return RadialProfile(gamma, 1.0, "decay")


def make_v_minus_gamma(gamma: float, s: float) -> RadialProfile:
    """Growth profile: -|x|^{gamma} tail, cubic Hermite cap, junction |x|^2 = 1."""
    if not 0.5 < s < 1.0:
        raise ExponentOutOfRange("s must lie in (1/2,1)")
    if not 0.0 < gamma <= 2.0 * s - 1.0 + 1e-12:
        raise ExponentOutOfRange("gamma must lie in (0, 2s-1]")
    return RadialProfile(gamma, 1.0, "growth")


# ---------------------------------------------------------------------------
# half-space constructions
# ---------------------------------------------------------------------------

class PsiField(Field):
    """Subsolution candidate psi = -(1/gamma_lead)(D_N v_a + D_N v_b).

    ``decay`` and ``halfint`` take v_a = v_{gamma_lead} and ``growth`` takes
    v_a = v_{-gamma_lead}; v_b is the same profile at gamma_second.  The
    ``halfint`` variant keeps the lead term alone.  The C^2 radius and the
    breakpoints are those of the parts, and ``d2_along`` is their sum.

    Every part is 2 y_N g'(|y|^2), so psi(y) = y_N phi(|y|^2) with
    phi = -(2/gamma_lead) sum_j g_j'.  Two consequences are exact:

    - *radial sections*: at x = r(cos a e_1 + sin a e_N) the section along
      xhat and the section through r e_N along e_N are sin a (r + t)
      phi((r + t)^2) and (r + t) phi((r + t)^2), so the first integral is
      sin a times the second;
    - *orthogonal sections*: along xi orthogonal to x, with |x| at least
      ``cap_radius``, |x + t xi|^2 = |x|^2 + t^2 stays on every part's
      power tail and the pair is 2 x_N (phi(|x|^2 + t^2) - phi(|x|^2)),
      whose integral is a Gamma closed form (``orthogonal_section``).
    """

    def __init__(self, variant: str, s: float,
                 gamma_lead: float, gamma_second: float) -> None:
        self.gamma_lead = gamma_lead
        self.gamma_second = gamma_second
        if variant in ("decay", "halfint"):
            lead = make_v_gamma(gamma_lead)
        else:
            lead = make_v_minus_gamma(gamma_lead, s)
        self.parts = [lead.partial()]
        if variant == "decay":
            self.parts.append(make_v_gamma(gamma_second).partial())
        elif variant == "growth":
            self.parts.append(make_v_minus_gamma(gamma_second, s).partial())
        self.cap_radius = max(math.sqrt(p.base.junction_r2) for p in self.parts)

    def line(self, rows: Rows) -> Callable[[np.ndarray], np.ndarray]:
        gs, factor = [p.base.g for p in self.parts], -2.0 / self.gamma_lead

        def at(t: np.ndarray) -> np.ndarray:
            rr = rows.r2(t)  # once for all the parts
            return factor * (rows.x_n + t * rows.xi_n) * sum(g.value(rr, 1) for g in gs)
        return at

    def c2_radius(self, rows: Rows) -> np.ndarray:
        return np.min([p.c2_radius(rows) for p in self.parts], axis=0)

    def breakpoints(self, rows: Rows) -> np.ndarray:
        return np.concatenate([p.breakpoints(rows) for p in self.parts], axis=1)

    def d2_along(self, rows: Rows) -> np.ndarray:
        return -1.0 / self.gamma_lead * sum(p.d2_along(rows) for p in self.parts)

    def orthogonal_section(self, x: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray]:
        """(values, bars), each ``(m,)``: the directional operator of psi at
        each point of ``x``, ``(m, N)``, along any unit direction orthogonal
        to it, C_s included.  A closed form; no quadrature runs.

        On its tail part j has g_j' = c_j rho^{e_j}, and t = |x| tau turns
        each section integral into K(g, s) = 2 int_0^inf ((1 + tau^2)^{-g/2}
        - 1) tau^{-1-2s} dtau, ``constants._perp_kernel``:

            value = -(2 C_s / gamma_lead) x_N sum_j c_j K(-2 e_j, s) |x|^{2 e_j - 2s},

        that is (C_s x_N / gamma_lead) sum_j gamma_j K(sigma gamma_j + 2, s)
        |x|^{-sigma gamma_j - 2s - 2}, sigma = +1 for decay and -1 for growth
        profiles.  The bar is K's rounding and that of |x| raised to its
        power, plus a few ulps for the products and the sum.  A point inside
        ``cap_radius`` raises ``DomainError``: its orthogonal lines cross
        the cap.
        """
        x = np.asarray(x, float)
        r = np.sqrt(_dot(x, x))
        # |x| of a point at the cap radius may round below it by a few ulps,
        # where the cap still matches the tail to third order
        if not np.all(r >= self.cap_radius * (1.0 - 8.0 * _U)):
            raise DomainError(f"orthogonal sections need |x| >= {self.cap_radius:g}: "
                              "closer in they cross psi's cap")
        value, bar = np.zeros(len(x)), np.zeros(len(x))
        for p in self.parts:
            c, e = p.base.g._tail(1)
            power = 2.0 * e - 2.0 * s
            term = c * _perp_kernel(-2.0 * e, s) * r**power
            value += term
            # |x| carries N/2 + 1 ulps, which its power multiplies by |power|
            bar += np.abs(term) * (_PERP_REL + (abs(power) * (x.shape[1] / 2.0 + 1.0) + 8.0) * _U)
        scale = -2.0 * normalizing_constant(s) / self.gamma_lead * x[:, -1]
        return scale * value, np.abs(scale) * (bar + 2.0 * _U * np.abs(value))


def make_psi(kind: str, k: int, s: float) -> PsiField:
    """The three subsolution candidates.

    ``decay``: requires the bounded-exponent root gamma_bar(k, s) to exist;
    the second exponent is min(gamma_bar + 0.2, (1+gamma_bar)/2), which lies
    in (gamma_bar, 1).
    ``halfint``: k = 1, s = 1/2, single-profile variant with gamma 0.5.
    ``growth``: s > 1/2 with lead exponent 2s-1 and second exponent (2s-1)/2.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if kind == "decay":
        bar = find_gamma_bar(k, s)
        if bar is None:
            raise NoRootError(
                f"no bounded exponent root exists for k={k}, s={s}")
        gb = bar.root
        return PsiField("decay", s, gb, min(gb + 0.2, (1.0 + gb) / 2.0))
    if kind == "halfint":
        if k != 1 or s != 0.5:
            raise ExponentOutOfRange("halfint variant requires k = 1 and s = 1/2")
        return PsiField("halfint", s, 0.5, 0.5)
    if kind == "growth":
        if not s > 0.5:
            raise ExponentOutOfRange("growth variant requires s > 1/2")
        gb = 2.0 * s - 1.0
        return PsiField("growth", s, gb, gb / 2.0)
    raise ValueError(f"unknown psi kind {kind!r}")


# the moment series of bumps seen from outside: the terms summed, and its
# rounding beyond the moments' own in units of 2^-53 -- c_0 through math.gamma
# (~10), the recurrence and dot product (~12), the products and |xi_N|^{2s} (~8)
_MOMENT_TERMS = 32
_U = 2.0**-53
_BUMP_ROUNDING = 48.0 * _U
# the narrowest bump a train takes; epsilon_threshold's grid starts here
_EPS_MIN = 1e-6
# Euler-Maclaurin: the terms a Hurwitz sum adds directly, and B_2j/(2j)! for
# j = 1..9, the last one only to bound the remainder
_EM_SHIFT = 10
_EM_WEIGHTS = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
                        43867 / 798]) / np.cumprod(np.arange(1.0, 19.0))[1::2]


def _power_sums(eps: float, s: float, d: np.ndarray, d_rel) -> tuple[np.ndarray, np.ndarray]:
    """(sums, errors) over the last axis of ``d`` (inf adds 0, ``d_rel`` bounds
    its relative error beyond rounding) of (eps/d)^{1+2s+2i}, i = 0.._MOMENT_TERMS.
    The offset 2s + 2i enters as such, not through a rounded 1 + 2s: 2s is exact,
    and the rounding of 2s + 2i <= 4i moves r^sigma by up to 4i |log r| 2^-53,
    that of r by sigma (2^-52 + d_rel)."""
    i = np.arange(_MOMENT_TERMS + 1)[:, None]
    r = (eps / d)[..., None, :]
    powers = r * r ** (2.0 * s + 2.0 * i)
    shift = np.broadcast_to(d_rel, d.shape)[..., None, :] / _U
    weight = ((2.0 * s + 2.0 * i + 1.0) * (2.0 + shift)
              + 4.0 * i * np.abs(np.log(np.maximum(r, 1e-300))) + 2.0 + d.shape[-1])
    return powers.sum(-1), _U * (powers * weight).sum(-1)


def _hurwitz_sums(eps: float, s: float, start: np.ndarray,
                  start_rel) -> tuple[np.ndarray, np.ndarray]:
    """(sums, errors) of sum_{n >= 0} (eps/(start + n))^{1+2s+2i}, the scaled
    Hurwitz zeta eps^sigma zeta(sigma, start), one column per i and one row
    per ``start`` > 0 of relative error up to ``start_rel``.

    ``_EM_SHIFT`` terms are summed directly, the rest by Euler-Maclaurin at
    x = start + _EM_SHIFT (Johansson, Numer. Algorithms 69, 2015): with
    f = (eps/x)^sigma, x f/(sigma - 1) + f/2 + sum_j B_2j/(2j)! (sigma)_{2j-1}
    x^{1-2j} f.  t^-sigma is completely monotone, so the remainder lies between
    0 and the next term, which the error adds to the rounding (and 1e-300).
    """
    start, start_rel = np.asarray(start, float), np.asarray(start_rel, float)[..., None]
    head, err = _power_sums(eps, s, start[..., None] + np.arange(_EM_SHIFT), start_rel)
    i = np.arange(_MOMENT_TERMS + 1)
    offset = 2.0 * s + 2.0 * i
    x = (start + _EM_SHIFT)[..., None]
    fx = (eps / x) * (eps / x) ** offset
    pochhammer = np.cumprod((1.0 + offset)[:, None] + np.arange(2 * _EM_WEIGHTS.size - 1), -1)
    terms = (fx[..., None] * _EM_WEIGHTS * pochhammer[:, ::2]
             * x[..., None] ** (-1.0 - 2.0 * np.arange(_EM_WEIGHTS.size)))
    integral = x * fx / offset
    value = head + integral + fx / 2.0 + terms[..., :-1].sum(-1)
    weight = (1.0 + offset) * (2.0 + start_rel / _U) + 4.0 * i * np.abs(np.log(eps / x)) + 8.0
    err += np.abs(terms[..., -1]) + 1e-300 + _U * (
        (integral + fx) * weight + 8.0 * np.abs(terms).sum(-1) + 16.0 * value)
    return value, err


def _moment_series(eps: float, a: float, s: float, moments: np.ndarray,
                   errors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(value, error) of the sum of F(d) over bumps at distances d >= 2*eps,
    given their ``moments``, the sums of (eps/d)^{1+2s+2i}, with ``errors``.

    A bump's F(d) = integral of (eps^2 - h^2)_+^a |d - h|^{-1-2s} dh is its
    whole order-s contribution to the e_N section integral through a point
    outside it.  Expanding the kernel in h/d leaves the bump's even Beta
    moments (Dyda, Fract. Calc. Appl. Anal. 15, 2012): with r = eps/d,
    F = eps^{2(a-s)} sum_i c_i r^{1+2s+2i}, where c_0 = sqrt(pi) Gamma(1+a)/Gamma(3/2+a)
    and c_{i+1} = c_i (2s+2i+1)(2s+2i+2)/((2i+2)(2i+2a+3)).  The terms are
    positive and, past index I, their ratio is at most (1 + s/(I+1)) r^2,
    below 1/4 + 1/132 at r <= 1/2, so the omitted tail is at most the
    first omitted term over 1 minus that.  The error adds that tail, the
    moments' errors and the rounding.
    """
    i = np.arange(_MOMENT_TERMS, dtype=float)
    ratios = ((2.0 * s + 2.0 * i + 1.0) * (2.0 * s + 2.0 * i + 2.0)
              / ((2.0 * i + 2.0) * (2.0 * i + 2.0 * a + 3.0)))
    c = (math.sqrt(math.pi) * math.gamma(1.0 + a) / math.gamma(1.5 + a)
         * np.concatenate(([1.0], np.cumprod(ratios))))
    # eps^{2(a-s)} is exactly 1 for a train seen by its own order
    scale = eps ** (2.0 * a - 2.0 * s)
    value = scale * (moments[..., :-1] @ c[:-1])
    tail = scale * c[-1] * moments[..., -1] / (1.0 - (1.0 + s / (_MOMENT_TERMS + 1.0)) / 4.0)
    # the rounding of 2a - 2s moves eps^{2(a-s)} by up to |2(a-s) log eps| 2^-53
    rounding = _BUMP_ROUNDING + abs(2.0 * (a - s) * math.log(eps)) * _U
    return value, tail + scale * (errors @ c) + rounding * value


class BumpTrain(Field):
    """The infinite train of disjoint bumps sum_{n >= 0} (eps^2 - (x_N - n - eps)^2)_+^s.

    The train depends on x_N alone, so the section along a unit xi is the
    e_N section scaled by |xi_N| in t, and its integral is |xi_N|^{2s} times
    the e_N one.  A section through a point shows only the bumps centred
    within 2*eps of it (eps/d > 1/2 at d = |x_N - n - eps|), and so do
    ``breakpoints``, ``c2_radius`` and ``d2_along``; the bump that holds x_N
    is among them, so u(x) is exact.  ``far_part`` adds every other bump by
    its moment series, so a section costs a few quadrature pieces.
    """

    def __init__(self, eps: float, s: float) -> None:
        if not _EPS_MIN <= eps < 0.5:
            raise ExponentOutOfRange(f"eps must lie in [{_EPS_MIN:g}, 1/2)")
        self.eps, self.s = eps, s
        self.growth_alpha, self.growth_const = 0.0, eps ** (2.0 * s)

    def _near_edges(self, rows: Rows) -> tuple[np.ndarray, np.ndarray]:
        """x_N of each row's point ``(m,)``, and the edges n and n + 2*eps of
        the bumps the sections through it show ``(m, 6)``, inf padded."""
        y, eps = rows.x_n, self.eps
        # 3*eps < 3/2 and eps < 1/2, so only floor(y) - 1 .. floor(y) + 1 can be near
        n = np.floor(y)[:, None] + np.array([-1.0, 0.0, 1.0])
        near = (n >= 0.0) & (np.abs(n + eps - y[:, None]) < 2.0 * eps)
        return y, np.where(np.hstack((near, near)), np.hstack((n, n + 2.0 * eps)), np.inf)

    def line(self, rows: Rows) -> Callable[[np.ndarray], np.ndarray]:
        eps, s = float(self.eps), float(self.s)

        def at(t: np.ndarray) -> np.ndarray:
            y = rows.x_n + t * rows.xi_n
            n = np.floor(y)
            arg = eps**2 - (y - n - eps) ** 2
            inside = (n >= 0.0) & (arg > 0.0) & (np.abs(n + eps - rows.x_n) < 2.0 * eps)
            return np.where(inside, np.maximum(arg, 0.0) ** s, 0.0)
        return at

    def c2_radius(self, rows: Rows) -> np.ndarray:
        y, edges = self._near_edges(rows)
        near = np.min(np.abs(y[:, None] - edges), axis=1)
        return np.where(np.isfinite(near), np.maximum(near / 2.0, 1e-6), 1.0)

    def breakpoints(self, rows: Rows) -> np.ndarray:
        return _plane_crossings(rows, self._near_edges(rows)[1])

    def d2_along(self, rows: Rows) -> np.ndarray:
        y, b, s = rows.x_n, rows.xi_n, float(self.s)
        z = y - np.floor(y) - self.eps  # from the centre of the bump that holds y
        g = self.eps**2 - z * z
        inside = (y >= 0.0) & (g > 0.0)
        g = np.where(inside, g, 1.0)
        return np.where(inside, s * g ** (s - 2.0) * ((s - 1.0) * (2.0 * z * b) ** 2
                                                      - 2.0 * g * b * b), 0.0)

    def far_part(self, rows: Rows, s: float) -> tuple[np.ndarray, np.ndarray]:
        """(values, errors) of the part of the order-s section integrals that
        the sections of ``rows`` do not show, before C_s: |xi_N|^{2s} times
        the moment series of every bump at d >= 2*eps of the row's point.
        With m = floor(max x_N) + 2, the bumps n < m are summed one by one
        (the near ones at d = inf) and every bump from m on, at d > 1, as a
        Hurwitz sum."""
        y, xi_n, eps = rows.x_n, rows.xi_n, float(self.eps)
        m = max(math.floor(np.max(y)) + 2, 0)
        middle = np.arange(m) + eps
        d = np.abs(middle - y[..., None])
        d[d < 2.0 * eps] = np.inf
        # d = |fl(n + eps) - y| is off by up to 2^-53 (n + eps + d)
        moments, errors = _power_sums(eps, s, d, _U * (middle / d + 1.0))
        start = m + eps - y
        far, far_err = _hurwitz_sums(eps, s, start, _U * ((m + eps) / start + 1.0))
        value, error = _moment_series(eps, float(self.s), s, moments + far, errors + far_err)
        scale = np.abs(xi_n) ** (2.0 * s)
        return scale * value, scale * error


class HalfSpacePowerTail(Field):
    """Cap/tail radial profile restricted to the open half-space, 0 elsewhere.

    ``shift`` evaluates the profile at ``x + shift*e_N`` (used by the min
    composition); the vanishing region stays {x_N <= 0} of the *argument*.
    With c = shift, |x + t*xi + c*e_N|^2 = d2 + (t + b)^2 + 2c*y + c^2, each
    term >= 0 where the field reads it (y = x_N + t*xi_N > 0).
    """

    def __init__(self, gamma: float, shift: float = 0.0) -> None:
        self.gamma = gamma
        self.shift = shift
        self.radial = RadialProfile(gamma, 1.0, "decay")
        self.growth_alpha = 0.0
        self.growth_const = float(self.radial.g.value(0.0))

    def line(self, rows: Rows) -> Callable[[np.ndarray], np.ndarray]:
        value, c = self.radial.g.value, float(self.shift)

        def at(t: np.ndarray) -> np.ndarray:
            y = rows.x_n + t * rows.xi_n
            return np.where(y > 0.0, value(rows.r2(t) + 2.0 * c * y + c * c), 0.0)
        return at

    def c2_radius(self, rows: Rows) -> np.ndarray:
        y, c = rows.x_n, float(self.shift)
        # |x + c e_N|, clamped at 0 where x_N <= 0 takes the other branch
        r = np.sqrt(np.maximum(rows.r2(0.0) + 2.0 * c * y + c * c, 0.0))
        inside = np.clip(np.minimum(y / 2.0, np.abs(r - 1.0)), 1e-6, 1.0)
        return np.where(y <= 0.0, np.maximum(-y / 2.0, 1e-6), inside)

    def breakpoints(self, rows: Rows) -> np.ndarray:
        # the unit sphere about -c e_N, from whose centre a row has b + c xi_N and
        # d2 = |(x - b xi) + c (e_N - xi_N xi)|^2: it cancels only where 1 - d2 ~ 1
        c, b, xi_n = float(self.shift), rows.b, rows.xi_n
        d2 = np.maximum(rows.d2 + 2.0 * c * (rows.x_n - b * xi_n)
                        + c * c * ((1.0 - xi_n) * (1.0 + xi_n)), 0.0)
        return np.concatenate((_plane_crossings(rows),
                               _sphere_crossings(b + c * xi_n, d2, 1.0, _GRAZE)), axis=1)


class PowerProfile(Field):
    """z(x) = coefficient * (x_N)_+^mu."""

    def __init__(self, mu: float, coefficient: float = 1.0) -> None:
        if mu <= 0.0:
            raise ExponentOutOfRange("mu must be positive")
        self.mu = mu
        self.coefficient = coefficient
        self.growth_alpha = mu

    def line(self, rows: Rows) -> Callable[[np.ndarray], np.ndarray]:
        coefficient, mu = float(self.coefficient), float(self.mu)

        def at(t: np.ndarray) -> np.ndarray:
            y = rows.x_n + t * rows.xi_n
            return np.where(y > 0.0, coefficient * np.maximum(y, 0.0) ** mu, 0.0)
        return at

    def c2_radius(self, rows: Rows) -> np.ndarray:
        return np.maximum(np.abs(rows.x_n) / 2.0, 1e-9)

    def breakpoints(self, rows: Rows) -> np.ndarray:
        return _plane_crossings(rows)

    def d2_along(self, rows: Rows) -> np.ndarray:
        t = rows.x_n
        return np.where(t > 0.0, self.coefficient * self.mu * (self.mu - 1.0)
                        * rows.xi_n ** 2 * np.where(t > 0.0, t, 1.0) ** (self.mu - 2.0), 0.0)


class MinField(Field):
    """Pointwise minimum of two fields (the min composition w = min{phi, z}).

    Its C^2 radius is the smaller of its fields' radii.  Where the fields
    cross, w is not C^2; each section's crossings, found by ``_crossings``,
    are among its breakpoints, so they cap each row's window instead.
    """

    def __init__(self, first: Field, second: Field, scale: float = 1.0) -> None:
        self.first = first
        self.second = second
        self.scale = scale
        self.growth_alpha = 0.0  # min of a bounded and a growing profile is bounded

    def line(self, rows: Rows) -> Callable[[np.ndarray], np.ndarray]:
        first, second = self.first.line(rows), self.second.line(rows)
        scale = float(self.scale)
        return lambda t: scale * np.minimum(first(t), second(t))

    def c2_radius(self, rows: Rows) -> np.ndarray:
        return np.maximum(np.minimum(self.first.c2_radius(rows), self.second.c2_radius(rows)),
                          1e-6)

    def _crossings(self, rows: Rows, span: np.ndarray) -> np.ndarray:
        """Sign changes of first - second along each row's line within
        |t| <= its ``span``, sampled on 801 nodes per row in one scan;
        ``(m, K)``, inf padded, inf also where |t| <= 1e-9.

        Adjacent nodes of opposite sign bracket a root, refined to within
        2e-12 + 8.88e-16*|t|.  A sign change across a run of exact zeros (both
        fields vanish there) keeps the ends of the run instead.
        """
        grid = np.linspace(-span, span, 801, axis=-1)
        vals = self.first.line(rows[:, None])(grid) - self.second.line(rows[:, None])(grid)
        # each node's nearest nonzero node up to it in its row (-1 if none);
        # a change is a nonzero node whose sign differs from the one before it
        last = np.maximum.accumulate(np.where(vals != 0.0, np.arange(801), -1), axis=1)
        row, right = np.nonzero((vals[:, 1:] != 0.0) & (last[:, :-1] >= 0))
        right += 1
        left = last[row, right - 1]
        change = (vals[row, left] < 0.0) != (vals[row, right] < 0.0)
        row, left, right = row[change], left[change], right[change]
        ends = np.stack((grid[row, left + 1], grid[row, right - 1]), axis=1)
        for i in np.flatnonzero(right == left + 1):
            r, a, b = row[i], left[i], right[i]
            first, second = self.first.line(rows[r]), self.second.line(rows[r])
            ends[i] = _bracketed_root(lambda t: float(first(t) - second(t)), float(grid[r, a]),
                                      float(grid[r, b]), float(vals[r, a]), float(vals[r, b]),
                                      xtol=2e-12, rtol=8.88e-16).root, np.inf
        # the j-th change of a row fills its columns 2j and 2j + 1
        j = np.arange(row.size) - np.searchsorted(row, row)
        out = np.full((len(rows), j.max(initial=-1) + 1, 2), np.inf)
        out[row, j] = ends
        return np.where(np.abs(out) > 1e-9, out, np.inf).reshape(len(rows), -1)

    def breakpoints(self, rows: Rows) -> np.ndarray:
        span = np.maximum(10.0, 2.0 * np.sqrt(rows.r2(0.0)) + 4.0)
        return np.concatenate((self.first.breakpoints(rows), self.second.breakpoints(rows),
                               self._crossings(rows, span)), axis=1)


def build_thIN_supersolution(N: int, s: float, p: float) -> tuple[MinField, dict]:
    """Supersolution eps*min{phi, z} for the full-frame minimal operator.

    ``phi`` is the half-space power tail shifted by R = sqrt(N/(N-1)) along
    e_N; ``z`` the mu-power profile with mu = s/2.  Requires
    p > 1 + 2s/gamma_plus so that gamma = 2s/(p-1) lies below the critical
    root and both constants are positive.
    """
    from .constants import c_n_plus  # local import to keep module load cheap

    gamma_plus = find_gamma_plus(N, s).root
    threshold = 1.0 + 2.0 * s / gamma_plus
    if not p > threshold:
        raise ExponentOutOfRange(
            f"p must exceed 1 + 2s/gamma_plus = {threshold:.6f}")
    gamma = 2.0 * s / (p - 1.0)
    mu = s / 2.0
    Cs = normalizing_constant(s)
    alpha = -c_n_plus(gamma, s, N) * Cs
    beta = -c_s_mu(mu, s) * Cs
    if alpha <= 0.0 or beta <= 0.0:
        raise InvariantViolation("supersolution constants must be positive")
    eps = min(alpha, beta) ** (1.0 / (p - 1.0))
    R = math.sqrt(N / (N - 1.0))
    phi = HalfSpacePowerTail(gamma, shift=R)
    z = PowerProfile(mu, 1.0)
    w = MinField(phi, z, scale=eps)
    params = {"alpha": alpha, "beta": beta, "eps": eps, "gamma": gamma,
              "mu": mu, "R": R, "p": p, "threshold": threshold}
    return w, params


def build_singular_supersolution(s: float, p: float, op_kind: str,
                                 N: int) -> tuple[PowerProfile, float, float]:
    """Singular-power supersolution M (x_N)_+^mu with mu = 2s/(1-p), p < -1."""
    if not p < -1.0:
        raise ExponentOutOfRange("p must be < -1")
    if op_kind not in ("ik_minus", "in_plus"):
        raise ValueError("op_kind must be 'ik_minus' or 'in_plus'")
    mu = 2.0 * s / (1.0 - p)
    big_c = normalizing_constant(s) * c_s_mu(mu, s)
    if not big_c < 0.0:
        raise InvariantViolation("the power constant must be negative for mu < s")
    scale = 1.0 if op_kind == "ik_minus" else N**s
    M = (scale / abs(big_c)) ** (1.0 / (1.0 - p))
    return PowerProfile(mu, M), M, mu


# ---------------------------------------------------------------------------
# power transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransformParams:
    """Exponent bookkeeping for the supersolution power transform."""

    p: float
    q: float

    @property
    def beta_exp(self) -> float:
        if self.q == self.p:
            return 1.0
        return (self.p - 1.0) / (self.q - 1.0)

    @property
    def alpha_coef(self) -> float:
        if self.q == self.p:
            return 1.0
        return self.beta_exp ** (1.0 / (self.q - 1.0))

    def validate(self) -> None:
        if self.q == 1.0 and self.p != self.q:
            raise ExponentOutOfRange("transform requires q != 1 when p != q")
        b, a = self.beta_exp, self.alpha_coef
        if not 0.0 < b <= 1.0:
            raise ExponentOutOfRange(
                "transform requires beta in (0,1]: need 1<p<q or q<p<1")
        if abs(b - 1.0 + self.p - b * self.q) > 1e-12:
            raise InvariantViolation("identity beta-1+p = beta*q fails")
        if abs(a * b - a**self.q) > 1e-12 * max(1.0, abs(a**self.q)):
            raise InvariantViolation("identity alpha*beta = alpha^q fails")


def power_transform(u: PowerProfile, p: float, q: float) -> PowerProfile:
    """v = ((p-1)/(q-1))^{1/(q-1)} * u^{(p-1)/(q-1)} of a power profile ``u``.

    The result is again a power profile, with coefficient alpha*M^beta and
    exponent mu*beta.
    """
    tp = TransformParams(p, q)
    tp.validate()
    return PowerProfile(u.mu * tp.beta_exp, tp.alpha_coef * u.coefficient**tp.beta_exp)
