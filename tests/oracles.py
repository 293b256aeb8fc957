"""Independent oracles for the special constants and critical exponents.

Everything here is derived from Gamma-function identities, written without
importing the package under test, or frozen from an independent
high-precision mpmath computation (50 digits for the roots, 80 for c_iso,
whose recipe is given with its values).  Tests compare package output
against these values; the package itself computes everything by quadrature.
"""

import math


def G(x: float) -> float:
    """Gamma, with the values ``scipy.special.gamma`` takes at its poles:
    an infinity of the zero's sign at 0, nan at the negative integers."""
    if x == 0.0:
        return math.copysign(math.inf, x)
    if x < 0.0 and x == math.floor(x):
        return math.nan
    return math.gamma(x)


def normalizing_constant_oracle(s: float) -> float:
    return 4.0**s * s * G(0.5 + s) / (math.sqrt(math.pi) * G(1.0 - s))


def beta_oracle(s: float) -> float:
    # Beta(1-s, s) via the reflection formula
    return math.pi / math.sin(math.pi * s)


def hat_c_dec_oracle(gamma: float, s: float) -> float:
    """Decay-case kernel constant via the 1D fractional power identity.

    lambda(gamma) = 2^{2s} G((gamma+2s)/2) G((1-gamma)/2)
                    / (G(gamma/2) G((1-gamma-2s)/2))
    normalized by the 1D constant 4^s G(1/2+s) / (sqrt(pi) |G(-s)|).
    """
    lam = (2.0 ** (2.0 * s) * G((gamma + 2.0 * s) / 2.0) * G((1.0 - gamma) / 2.0)
           / (G(gamma / 2.0) * G((1.0 - gamma - 2.0 * s) / 2.0)))
    c1 = 4.0**s * G(0.5 + s) / (math.sqrt(math.pi) * abs(G(-s)))
    return -lam / c1


def c_perp_oracle(gamma: float, s: float) -> float:
    return G(-s) * G(gamma / 2.0 + s) / G(gamma / 2.0)


def c_s_mu_oracle(mu: float, s: float) -> float:
    """Valid away from s = 1/2 (removable singularity of this form)."""
    if mu == s:
        return 0.0
    return (mu / (2.0 * s)) * G(1.0 - 2.0 * s) * (
        G(2.0 * s - mu) / G(1.0 - mu) - G(mu) / G(1.0 + mu - 2.0 * s))


# value of c_{s,mu} at the removable point s = 1/2, mu = 1/4
C_HALF_QUARTER = -math.pi / 4.0


def gamma_bar_k1_oracle(s: float):
    """k = 1: the root is exactly 1 - 2s for s < 1/2, and absent otherwise."""
    return 1.0 - 2.0 * s if s < 0.5 else None


# Frozen roots from an independent 50-digit computation of the defining
# Gamma-series, rounded to the digits shown.
FROZEN_ROOTS = {
    ("gamma_bar", 2, 0.25): 0.72149165,
    ("gamma_bar", 2, 0.5): 0.42505160090493,
    ("gamma_bar", 2, 0.75): 0.15515077,
    ("gamma_tilde", 2, 0.5): 2.0,  # exact: the isotropic constant is odd about 2
    ("gamma_tilde", 3, 0.5): 3.73359061625,
    ("gamma_tilde", 3, 0.9): 1.41841678800,
    ("gamma_tilde", 3, 0.99): 1.04017005672,
    ("gamma_plus", 3, 0.5): 3.74284353188,
}

# c_iso(gamma, s, N) has no closed form; these values are frozen from an
# independent 80-digit mpmath quadrature, rounded to the digits shown:
#
#     mp.dps = 80; a = 1/sqrt(N); p = -gamma/2
#     pair(t) = ((1+t^2+2at)^p + (1+t^2-2at)^p - 2)/t^2, evaluated with
#               2*floor(-log10 t) + 10 extra digits (mpmath.extradps), and as
#               its limit 4a^2 p(p-1) + 2p below t = 1e-100
#     k = 1/(2-2s)    # t = u^k turns pair(t) t^(1-2s) dt into k pair(u^k) du
#     c_iso = k * quad(lambda u: pair(u^k), [0, a^(1/k), 1])
#             + quad(lambda t: pair(t) t^(1-2s), [1, sqrt(N), 10, inf])
#
# The same recipe at 60 digits agrees to 1e-38 relative.  gamma = N - 2 is
# where the kernel's d^2 coefficient 2*C_2^(gamma/2)(1/sqrt(N)) vanishes.
FROZEN_C_ISO = {  # (gamma, s, N) -> c_iso
    (2.0, 0.5, 4): -1.8137993642342179,
    (3.0, 0.98, 5): -1.6921066675935485,
    (3.0, 0.6, 5): -1.9495692182950383,
    (0.7, 0.5, 3): -1.0537106981456088,
    (2000.0, 0.5, 20): 2.1274638384624886e22,
    (5000.0, 0.5, 9): 2.3000651415603092e127,
}

BUMP_IDENTITY = {  # raw second-difference integral of (1-t^2)_+^s: -G(s)G(1-s)
    0.25: -math.pi * math.sqrt(2.0),
    0.5: -math.pi,
}
