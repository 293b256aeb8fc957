"""Fields the tests integrate that no suite of the package uses, and the
derivative-commutation check that the tests run on psi."""

from typing import Callable

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

    far_law = staticmethod(pr._settled_law)  # each section vanishes past the sphere


class CompactBump:
    """(1 - |t|^2)_+^s along the last axis; zero metadata elsewhere."""

    far_law = staticmethod(pr._settled_law)  # each section vanishes past x_N = +-1

    def __init__(self, s):
        self.s = s
        self.is_radial = False

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


def commutation_residual(v, dv, scale, x, xi, s):
    """|d/dx_N I_xi v(x) - scale * I_xi dv(x)|, with d/dx_N taken as a central
    difference of step 1e-4: about 0 where scale * dv = D_N v, since D_N and
    I_xi commute."""
    h, e = 1e-4, np.eye(len(x))[-1]
    plus, minus = (op.directional(v, x + d * h * e, xi, s).value for d in (1.0, -1.0))
    return abs((plus - minus) / (2.0 * h) - scale * op.directional(dv, x, xi, s).value)
