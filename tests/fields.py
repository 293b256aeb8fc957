"""Fields the tests integrate that no suite of the package uses, the
derivative-commutation check that the tests run on psi, and every field
class's sections in mpmath."""

from typing import Callable

import mpmath
import numpy as np

from fractrunc import operators as op
from fractrunc import profiles as pr


class BallBump(pr.Field):
    """Compactly supported bump (r^2 - |x|^2)_+^s inside the ball B_r(0)."""

    def __init__(self, r: float, s: float) -> None:
        self.r, self.s = r, s

    def line(self, rows: pr.Rows) -> Callable[[np.ndarray], np.ndarray]:
        r2, s = float(self.r) ** 2, float(self.s)

        def at(t: np.ndarray) -> np.ndarray:
            arg = r2 - rows.r2(t)
            return np.where(arg > 0.0, np.maximum(arg, 0.0) ** s, 0.0)
        return at

    def c2_radius(self, rows: pr.Rows) -> np.ndarray:
        return np.maximum(np.abs(np.sqrt(rows.r2(0.0)) - self.r) / 2.0, 1e-6)

    def breakpoints(self, rows: pr.Rows) -> np.ndarray:
        return pr._sphere_crossings(rows.b, rows.d2, self.r)

    def d2_along(self, rows: pr.Rows) -> np.ndarray:
        # A(t) = r^2 - |x + t xi|^2, A' = -2b and A'' = -2 at t = 0
        return _power_d2(self.r**2 - rows.r2(0.0), 2.0 * rows.b, 2.0, self.s)

    far_law = staticmethod(pr._settled_law)  # each section vanishes past the sphere


class CompactBump(pr.Field):
    """(1 - |t|^2)_+^s along the last axis; zero metadata elsewhere."""

    far_law = staticmethod(pr._settled_law)  # each section vanishes past x_N = +-1

    def __init__(self, s):
        self.s = s

    def line(self, rows):
        x_n, xi_n, s = rows.x_n, rows.xi_n, self.s
        return lambda t: np.maximum(1.0 - (x_n + t * xi_n) ** 2, 0.0) ** s

    def c2_radius(self, rows):
        return np.maximum(np.abs(1.0 - np.abs(rows.x_n)) / 2.0, 1e-6)

    def breakpoints(self, rows):
        # where each section meets x_N = -1 and x_N = 1; a row with xi_N ~ 0 meets neither
        x_n, xi_n = rows.x_n[:, None], rows.xi_n[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (np.array([-1.0, 1.0]) - x_n) / xi_n
        return np.where(np.abs(xi_n) < 1e-14, np.inf, t)

    def d2_along(self, rows):
        # A(t) = 1 - (x_N + t xi_N)^2, A' = -2 x_N xi_N and A'' = -2 xi_N^2 at t = 0
        return _power_d2(1.0 - rows.x_n**2, 2.0 * rows.x_n * rows.xi_n, 2.0 * rows.xi_n**2,
                         self.s)


def _power_d2(a, slope, curve, s):
    """The second derivative at t = 0 of A(t)_+^s, given A(0) = ``a``,
    -A'(0) = ``slope`` and -A''(0) = ``curve``: s A^{s-2} ((s-1) A'^2 + A A''), 0
    where A(0) <= 0."""
    inside = a > 0.0
    a = np.where(inside, a, 1.0)
    return np.where(inside, s * a ** (s - 2.0) * ((s - 1.0) * slope * slope - a * curve), 0.0)


def commutation_residual(v, dv, scale, x, xi, s):
    """|d/dx_N I_xi v(x) - scale * I_xi dv(x)|, with d/dx_N taken as a central
    difference of step 1e-4: about 0 where scale * dv = D_N v, since D_N and
    I_xi commute."""
    h, e = 1e-4, np.eye(len(x))[-1]
    plus, minus = (op.directional(v, x + d * h * e, xi, s).value for d in (1.0, -1.0))
    return abs((plus - minus) / (2.0 * h) - scale * op.directional(dv, x, xi, s).value)


def _mp_radial(v, order):
    """r -> g^(order)(r), order 0 or 1, of a ``RadialProfile`` in mpmath, its
    cap from its float coefficients."""
    j, cap = mpmath.mpf(v.junction_r2), [mpmath.mpf(a) for a in v.cap]
    c, e = (mpmath.mpf(a) for a in v._tail(order))

    def g(r):
        if r > j:
            return c * r**e
        d = r - j
        if order == 0:
            return cap[0] + d * (cap[1] + d * (cap[2] + d * cap[3]))
        return cap[1] + d * (2 * cap[2] + 3 * d * cap[3])
    return g


def mp_section(u, row):
    """t -> the section of ``u`` along the one row of ``row`` in mpmath, from
    its four projections: every field class of the package and of this
    module.  A bump train shows the bump that holds x_N + t xi_N."""
    if isinstance(u, pr.MinField):
        first, second = (mp_section(f, row) for f in (u.first, u.second))
        return lambda t: mpmath.mpf(u.scale) * min(first(t), second(t))
    b, d2, x_n, xi_n = (mpmath.mpf(float(a[0])) for a in (row.b, row.d2, row.x_n, row.xi_n))
    zero = mpmath.mpf(0)

    def r2(t):
        return d2 + (t + b) ** 2

    def y(t):
        return x_n + t * xi_n

    def power(a, s):  # a_+^s
        return a ** mpmath.mpf(s) if a > 0 else zero

    if isinstance(u, pr.PowerProfile):
        return lambda t: mpmath.mpf(u.coefficient) * power(y(t), u.mu)
    if isinstance(u, pr.HalfSpacePowerTail):
        c, g = mpmath.mpf(u.shift), _mp_radial(u.radial, 0)
        return lambda t: g(r2(t) + 2 * c * y(t) + c * c) if y(t) > 0 else zero
    if isinstance(u, pr.RadialProfile):
        g = _mp_radial(u, 0)
        return lambda t: g(r2(t))
    if isinstance(u, pr.PsiField):
        # psi = -(2/gamma_lead) y_N sum_j g_j'(|y|^2)
        gs, lead = [_mp_radial(v, 1) for v in u.profiles], mpmath.mpf(u.gamma_lead)
        return lambda t: -2 * y(t) * sum(g(r2(t)) for g in gs) / lead
    if isinstance(u, pr.BumpTrain):
        eps = mpmath.mpf(u.eps)

        def bump(t):
            n = mpmath.floor(y(t))
            return power(eps * eps - (y(t) - n - eps) ** 2, u.s) if n >= 0 else zero
        return bump
    if isinstance(u, BallBump):
        return lambda t: power(mpmath.mpf(u.r) ** 2 - r2(t), u.s)
    if isinstance(u, CompactBump):
        return lambda t: power(1 - y(t) ** 2, u.s)
    raise TypeError(f"no mpmath section for {type(u).__name__}")
