"""Fields the tests integrate that no suite of the package uses."""

from typing import Callable

import numpy as np

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
