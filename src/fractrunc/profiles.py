"""Explicit barrier and supersolution profiles on R^N and the half-space.

Every constructed function is an *evaluable field*: restrictable to lines
(``line(x, xi)`` returns the array-valued function ``t -> u(x + t*xi)``,
evaluated elementwise on an ndarray of any shape, which the operator module
calls once per batch of quadrature nodes; ``xi`` of shape ``(..., N)``
holds the directions of rows of (point, direction) and ``x`` their points,
stacked like ``xi``, both broadcasting against ``t``), callable on
points (the line through the point at ``t = 0``), and carrying the metadata the
operator module needs (C^2 window radius, non-smooth crossing locations
along a line, growth exponent).  Radial profiles are cap/tail
constructions: a power of |x| beyond a junction radius, glued C^3 to the
third-order Taylor cubic of the same power inside.

Each construction is one class: the radial profile and its derivative
along e_N, the subsolution candidate psi, the bump train, the half-space
power tail, the power profile and the min composition; the power transform
of a power profile is again a power profile.  A field's crossings with the
hyperplanes {x_N = level} and with spheres come from ``_plane_crossings``
and ``_sphere_crossings``.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .constants import (
    DomainError,
    NoRootError,
    _bracketed_root,
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

def _components(x: np.ndarray, xi: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The pairs (x[..., i], xi[..., i]) of the rows' points and directions.

    Each is an array over the rows (0-d for one row of shape (N,)), which
    broadcasts against t.
    """
    x, xi = np.asarray(x, float), np.asarray(xi, float)
    return [(x[..., i], xi[..., i]) for i in range(xi.shape[-1])]


def _squared_norm(
        pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> Callable[[np.ndarray], np.ndarray]:
    """t -> |x + t*xi|^2 over the given component pairs, summed in order."""
    def r2(t: np.ndarray) -> np.ndarray:
        acc = 0.0
        for a, b in pairs:
            v = a + t * b
            acc += v * v
        return acc
    return r2


def _plane_crossings(x: np.ndarray, xi: np.ndarray,
                     levels: Sequence[float] = (0.0,)) -> list[float]:
    """The sorted t with |t| > 1e-9 at which x_N + t*xi_N meets a level."""
    if abs(xi[-1]) < 1e-15:
        return []
    t = (np.asarray(levels, float) - x[-1]) / xi[-1]
    t = t[np.abs(t) > 1e-9]
    t.sort()
    return t.tolist()


def _sphere_crossings(x: np.ndarray, xi: np.ndarray, radius: float) -> list[float]:
    """The sorted t with |t| > 1e-9 at which |x + t*xi| = radius; ``x`` is
    taken relative to the sphere's centre."""
    b = float(x @ xi)
    disc = b * b - float(x @ x) + radius**2
    if disc <= 0.0:
        return []
    root = math.sqrt(disc)
    return [t for t in (-b - root, -b + root) if abs(t) > 1e-9]


# ---------------------------------------------------------------------------
# cap/tail machinery
# ---------------------------------------------------------------------------

class _PiecewiseG:
    """g(r) in the squared-radius variable: cubic cap for r <= junction, power tail.

    The tail is sign * r^{-sign*gamma/2}: ``sign=+1`` decays, ``sign=-1``
    grows like -r^{gamma/2}.  The cap is the tail's third-order Taylor cubic
    at the junction, in powers of (r - junction_r2); ``value`` gives it and
    its first two derivatives.
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
        """g^(order), order 0, 1 or 2, at every element of ``r``; the branches
        are taken with np.where, each on arguments where it is finite."""
        j = self.junction_r2
        a = self.cap
        d = np.minimum(r, j) - j
        if order == 0:
            cap = a[0] + d * (a[1] + d * (a[2] + d * a[3]))
        elif order == 1:
            cap = a[1] + d * (2.0 * a[2] + 3.0 * d * a[3])
        else:
            cap = 2.0 * a[2] + 6.0 * d * a[3]
        coeff, e = self._tail(order)
        return np.where(r <= j, cap, coeff * np.maximum(r, j) ** e)


# ---------------------------------------------------------------------------
# evaluable field base
# ---------------------------------------------------------------------------

class Field:
    """Base evaluable field; subclasses fill in metadata hooks."""

    growth_alpha: float = 0.0
    growth_const: Optional[float] = None
    is_radial: bool = False

    def line(self, x: np.ndarray, xi: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """The restriction t -> u(x + t*xi), elementwise on an array of t."""
        raise NotImplementedError

    def __call__(self, y: np.ndarray) -> float:
        y = np.asarray(y, float)
        return float(self.line(y, np.zeros_like(y))(0.0))

    def c2_radius(self, x: np.ndarray) -> float:
        return 1.0

    def breakpoints(self, x: np.ndarray, xi: np.ndarray) -> list[float]:
        return []


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
    def line(self, x: np.ndarray, xi: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        r2, value = _squared_norm(_components(x, xi)), self.g.value
        return lambda t: value(r2(t))

    def breakpoints(self, x: np.ndarray, xi: np.ndarray) -> list[float]:
        return _sphere_crossings(np.asarray(x, float), np.asarray(xi, float),
                                 math.sqrt(self.junction_r2))

    def d2_along(self, x: np.ndarray, xi: np.ndarray) -> float:
        r2 = float(np.dot(x, x))
        b = float(np.dot(x, xi))
        return float(self.g.value(r2, 2) * 4.0 * b * b + self.g.value(r2, 1) * 2.0)

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
            for r in np.linspace(0.0, 1.0, 101):
                if self.g.value(r) > -r ** (self.gamma / 2.0) + 1e-12:
                    raise InvariantViolation(
                        f"growth cap fails dominance at r={r}")


class _PartialN(Field):
    """D_{x_N} v = 2 y_N g'(|y|^2) of a radial profile v = g(|y|^2).

    It is dimension-free: the derivative is along the last axis of whatever
    point it is given.  Decay: the derivative decays; growth (gamma <= 2s-1
    < 1): |Dv| ~ |y|^{gamma-1} is bounded.  So growth_alpha stays 0.
    """

    def __init__(self, base: RadialProfile) -> None:
        self.base = base

    def line(self, x: np.ndarray, xi: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        pairs = _components(x, xi)
        r2, value = _squared_norm(pairs), self.base.g.value
        a, b = pairs[-1]
        return lambda t: 2.0 * (a + t * b) * value(r2(t), 1)

    def c2_radius(self, x: np.ndarray) -> float:
        # Dv is C^2 away from the junction sphere (v is only C^3 there)
        r = float(np.linalg.norm(x))
        rj = math.sqrt(self.base.junction_r2)
        return float(np.clip(abs(r - rj), 0.02, 1.0))

    def breakpoints(self, x: np.ndarray, xi: np.ndarray) -> list[float]:
        return self.base.breakpoints(x, xi)


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
    breakpoints are those of the parts.
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

    def line(self, x: np.ndarray, xi: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        lines, factor = [p.line(x, xi) for p in self.parts], -1.0 / self.gamma_lead

        def at(t: np.ndarray) -> np.ndarray:
            acc = 0.0
            for f in lines:
                acc += f(t)
            return factor * acc
        return at

    def c2_radius(self, x: np.ndarray) -> float:
        return min(p.c2_radius(x) for p in self.parts)

    def breakpoints(self, x: np.ndarray, xi: np.ndarray) -> list[float]:
        return sorted({t for p in self.parts for t in p.breakpoints(x, xi)})


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


# the moment series of one bump seen from outside: the terms summed, and the
# rounding of one summed bump in units of 2^-53 -- c_0 through math.gamma
# (up to ~10), the coefficient recurrence and Horner weighted by the terms
# (~12 at eps/d = 1/2), r = eps/d, r^{2s}, the products and a row's
# |xi_N|^{2s} (~8); against mpmath it misses by at most ~6
_MOMENT_TERMS = 32
_BUMP_ROUNDING = 48.0 * 2.0**-53
# the narrowest bump a train takes; epsilon_threshold's grid starts here
_EPS_MIN = 1e-6


def _far_bump(eps: float, a: float, s: float,
              d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(F, error) of the bump (eps^2 - h^2)_+^a seen from distance d >= 2*eps
    of its centre by the kernel of order s.

    F(d) = integral of (eps^2 - h^2)_+^a |d - h|^{-1-2s} dh is the bump's
    whole contribution to the e_N section integral through a point outside
    it.  Expanding the kernel in h/d leaves the bump's even Beta moments
    (Dyda, Fract. Calc. Appl. Anal. 15, 2012): with r = eps/d,
    F = eps^{2(a-s)} r^{1+2s} sum_i c_i r^{2i}, where
    c_0 = sqrt(pi) Gamma(1+a)/Gamma(3/2+a) and
    c_{i+1} = c_i (2s+2i+1)(2s+2i+2)/((2i+2)(2i+2a+3)).  The terms are
    positive and, past index I, their ratio is at most q = (1 + s/(I+1)) r^2,
    below 1/4 + 1/132, so the omitted tail is at most the first omitted term
    over 1 - q.  The error adds that tail and the rounding.  Elementwise on
    an array d; d = inf gives (0, 0).
    """
    i = np.arange(_MOMENT_TERMS, dtype=float)
    ratios = ((2.0 * s + 2.0 * i + 1.0) * (2.0 * s + 2.0 * i + 2.0)
              / ((2.0 * i + 2.0) * (2.0 * i + 2.0 * a + 3.0)))
    c = (math.sqrt(math.pi) * math.gamma(1.0 + a) / math.gamma(1.5 + a)
         * np.concatenate(([1.0], np.cumprod(ratios))))
    r = eps / d
    x = r * r
    # eps^{2(a-s)} is exactly 1 for a train seen by its own order
    lead = r * r ** (2.0 * s) * eps ** (2.0 * a - 2.0 * s)
    value = lead * np.polynomial.polynomial.polyval(x, c[:-1])
    q = (1.0 + s / (_MOMENT_TERMS + 1.0)) * x
    tail = lead * c[-1] * x**_MOMENT_TERMS / (1.0 - q)
    # the rounding of 2a - 2s moves eps^{2(a-s)} by up to |2(a-s) log eps| 2^-53
    rounding = _BUMP_ROUNDING + abs(2.0 * (a - s) * math.log(eps)) * 2.0**-53
    return value, tail + rounding * value


class BumpTrain(Field):
    """Train of disjoint bumps sum_n (eps^2 - (x_N - n - eps)^2)_+^s.

    Only the first ``window`` bumps are retained.  The train depends on x_N
    alone, so the section along a unit xi is the e_N section scaled by
    |xi_N| in t, and its integral is |xi_N|^{2s} times the e_N one.

    The operator engine integrates ``near()``, the train whose section
    through a point shows only the bumps centred within 2*eps of it
    (eps/d > 1/2 at d = |x_N - n - eps|), and adds ``far_part``: every other
    retained bump in closed form (``_far_bump``), and the bound
    eps^{2s} * distance^{-2s} / s on the bumps beyond the window as error.
    So a section costs a few quadrature pieces, not two per retained bump.
    """

    def __init__(self, eps: float, s: float, window: int = 400) -> None:
        if not _EPS_MIN <= eps < 0.5:
            raise ExponentOutOfRange(f"eps must lie in [{_EPS_MIN:g}, 1/2)")
        self.eps = eps
        self.s = s
        self.window = int(window)
        self.growth_alpha = 0.0
        self.growth_const = eps ** (2.0 * s)
        self.near_only = False
        # the support edges n and n + 2*eps of every retained bump, in order
        starts = np.arange(self.window, dtype=float)
        self.centres = starts + eps
        self.edges = np.column_stack((starts, starts + 2.0 * eps)).reshape(-1)

    def near(self) -> "BumpTrain":
        """The train whose section through a point shows only its near bumps."""
        train = copy.copy(self)
        train.near_only = True
        return train

    def _shown_edges(self, x: np.ndarray) -> np.ndarray:
        """The edges of the bumps the sections through ``x`` show."""
        if not self.near_only:
            return self.edges
        y = float(np.asarray(x, float).reshape(-1)[-1])
        close = np.abs(self.centres - y) < 2.0 * self.eps
        return self.edges.reshape(-1, 2)[close].reshape(-1)

    def line(self, x: np.ndarray, xi: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        a, b = _components(x, xi)[-1]
        eps, s, window, near_only = float(self.eps), float(self.s), self.window, self.near_only
        eps2 = eps**2

        def at(t: np.ndarray) -> np.ndarray:
            y = a + t * b
            n = np.floor(y)
            arg = eps2 - (y - n - eps) ** 2
            inside = (n >= 0.0) & (n < window) & (arg > 0.0)
            if near_only:
                inside &= np.abs(n + eps - a) < 2.0 * eps
            return np.where(inside, np.maximum(arg, 0.0) ** s, 0.0)
        return at

    def c2_radius(self, x: np.ndarray) -> float:
        edges = self._shown_edges(x)
        if not edges.size:
            return 1.0
        t = float(np.asarray(x, float).reshape(-1)[-1])
        d = float(np.min(np.abs(t - edges)))
        return max(d / 2.0, 1e-6)

    def breakpoints(self, x: np.ndarray, xi: np.ndarray) -> list[float]:
        return _plane_crossings(np.asarray(x, float), np.asarray(xi, float),
                                self._shown_edges(x))

    def far_part(self, x: np.ndarray, xi: np.ndarray,
                 s: float) -> tuple[np.ndarray, np.ndarray]:
        """(values, errors) of the part of the order-s section integrals that
        the train does not show, before C_s, for rows of points ``x`` and unit
        directions ``xi``.

        The value is |xi_N|^{2s} times the sum of ``_far_bump`` over the
        retained bumps at d >= 2*eps of the row's point when the train shows
        only near bumps, and 0 otherwise.  The error adds each summed bump's
        error, the rounding of d and of the sum, and the truncation bound
        |xi_N|^{2s} eps^{2a} * distance^{-2s} / s of the bumps beyond the
        window (a = the train's own s), 0 along xi_N = 0.
        """
        y, xi_n = np.broadcast_arrays(np.asarray(x, float)[..., -1],
                                      np.asarray(xi, float)[..., -1])
        eps, a = float(self.eps), float(self.s)
        scale = np.abs(xi_n) ** (2.0 * s)
        dist = np.maximum(self.window - y, 1.0)
        beyond = scale * eps ** (2.0 * a) * dist ** (-2.0 * s) / s
        if not self.near_only:
            return np.zeros_like(beyond), beyond
        points, at = np.unique(y, return_inverse=True)
        d = np.abs(self.centres - points[:, None])
        # the shown bumps sit at d = inf, where _far_bump gives (0, 0)
        d[d < 2.0 * eps] = np.inf
        value, error = _far_bump(eps, a, s, d)
        # d = |fl(n + eps) - y| is off by up to 2^-53 (n + eps + d), and F moves
        # by at most 6 times the relative change of d
        error += value * (6.0 * 2.0**-53) * (self.centres / d + 1.0)
        total = value.sum(axis=1)
        error = error.sum(axis=1) + self.window * 2.0**-53 * total
        at = at.reshape(y.shape)
        return scale * total[at], scale * error[at] + beyond


class HalfSpacePowerTail(Field):
    """Cap/tail radial profile restricted to the open half-space, 0 elsewhere.

    ``shift`` evaluates the profile at ``x + shift*e_N`` (used by the min
    composition); the vanishing region stays {x_N <= 0} of the *argument*.
    """

    def __init__(self, gamma: float, shift: float = 0.0) -> None:
        self.gamma = gamma
        self.shift = shift
        self.radial = RadialProfile(gamma, 1.0, "decay")
        self.growth_alpha = 0.0
        self.growth_const = float(self.radial.g.value(0.0))

    def line(self, x: np.ndarray, xi: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        pairs = _components(x, xi)
        head, value = _squared_norm(pairs[:-1]), self.radial.g.value
        (a, b), shift = pairs[-1], float(self.shift)

        def at(t: np.ndarray) -> np.ndarray:
            y = a + t * b
            z = y + shift
            return np.where(y > 0.0, value(head(t) + z * z), 0.0)
        return at

    def c2_radius(self, x: np.ndarray) -> float:
        x = np.asarray(x, float)
        if x[-1] <= 0.0:
            return max(-x[-1] / 2.0, 1e-6)
        z = x.copy()
        z[-1] += self.shift
        r = float(np.linalg.norm(z))
        return float(np.clip(min(x[-1] / 2.0, abs(r - 1.0)), 1e-6, 1.0))

    def breakpoints(self, x: np.ndarray, xi: np.ndarray) -> list[float]:
        x = np.asarray(x, float)
        xi = np.asarray(xi, float)
        z = x.copy()
        z[-1] += self.shift
        return sorted(set(_plane_crossings(x, xi) + _sphere_crossings(z, xi, 1.0)))


class PowerProfile(Field):
    """z(x) = coefficient * (x_N)_+^mu."""

    def __init__(self, mu: float, coefficient: float = 1.0) -> None:
        if mu <= 0.0:
            raise ExponentOutOfRange("mu must be positive")
        self.mu = mu
        self.coefficient = coefficient
        self.growth_alpha = mu

    def line(self, x: np.ndarray, xi: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        a, b = _components(x, xi)[-1]
        coefficient, mu = float(self.coefficient), float(self.mu)

        def at(t: np.ndarray) -> np.ndarray:
            y = a + t * b
            return np.where(y > 0.0, coefficient * np.maximum(y, 0.0) ** mu, 0.0)
        return at

    def c2_radius(self, x: np.ndarray) -> float:
        t = float(np.asarray(x, float).reshape(-1)[-1])
        return max(abs(t) / 2.0, 1e-9)

    def breakpoints(self, x: np.ndarray, xi: np.ndarray) -> list[float]:
        return _plane_crossings(np.asarray(x, float), np.asarray(xi, float))

    def d2_along(self, x: np.ndarray, xi: np.ndarray) -> float:
        t = float(np.asarray(x, float).reshape(-1)[-1])
        if t <= 0.0:
            return 0.0
        return (self.coefficient * self.mu * (self.mu - 1.0)
                * float(xi[-1]) ** 2 * t ** (self.mu - 2.0))


class MinField(Field):
    """Pointwise minimum of two fields (the min composition w = min{phi, z})."""

    def __init__(self, first: Field, second: Field, scale: float = 1.0) -> None:
        self.first = first
        self.second = second
        self.scale = scale
        self.growth_alpha = 0.0  # min of a bounded and a growing profile is bounded

    def line(self, x: np.ndarray, xi: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        first, second = self.first.line(x, xi), self.second.line(x, xi)
        scale = float(self.scale)
        return lambda t: scale * np.minimum(first(t), second(t))

    def c2_radius(self, x: np.ndarray) -> float:
        base = min(self.first.c2_radius(x), self.second.c2_radius(x))
        cross = self._crossings(x, None, radius=2.0 * base)
        if cross:
            base = min(base, min(abs(t) for t in cross))
        return max(base, 1e-6)

    def _crossings(self, x: np.ndarray, xi: Optional[np.ndarray],
                   radius: float = 0.0) -> list[float]:
        """Sign changes of first - second along the line, sampled on 801 nodes.

        Adjacent nodes of opposite sign bracket a root, refined to within
        2e-12 + 8.88e-16*|t|.  A sign change across a run of exact zeros (both
        fields vanish there) keeps the ends of the run instead.
        """
        x = np.asarray(x, float)
        if xi is None:
            xi = np.zeros_like(x)
            xi[-1] = 1.0
        span = max(10.0, 2.0 * float(np.linalg.norm(x)) + 4.0)
        if radius > 0.0:
            span = radius

        first, second = self.first.line(x, xi), self.second.line(x, xi)

        def diff(t: float) -> float:
            return float(first(t) - second(t))

        grid = np.linspace(-span, span, 801)
        vals = first(grid) - second(grid)
        nonzero = np.flatnonzero(vals != 0.0)
        signs = vals[nonzero] < 0.0
        change = np.flatnonzero(signs[:-1] != signs[1:])
        out = []
        for left, right in zip(nonzero[change].tolist(), nonzero[change + 1].tolist()):
            if right == left + 1:
                out.append(_bracketed_root(diff, float(grid[left]), float(grid[right]),
                                           float(vals[left]), float(vals[right]),
                                           xtol=2e-12, rtol=8.88e-16).root)
            else:
                out.extend(sorted({float(grid[left + 1]), float(grid[right - 1])}))
        return [t for t in out if abs(t) > 1e-9]

    def breakpoints(self, x: np.ndarray, xi: np.ndarray) -> list[float]:
        xi = np.asarray(xi, float)
        out = list(self.first.breakpoints(x, xi))
        out.extend(self.second.breakpoints(x, xi))
        out.extend(self._crossings(np.asarray(x, float), xi))
        return sorted(set(out))


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
