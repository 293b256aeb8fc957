"""Independent oracles for the special constants and critical exponents.

Everything here is derived from Gamma-function identities, written without
importing the package under test, or frozen from an independent
high-precision mpmath computation (50 digits for the roots, the defining
integrals of the 1-D kernel constants, c_iso's 80 and the 40 of c_N^+'s
one-sided correction, each recipe given with its values).  Tests compare
package output against these values.  The package computes c_iso from a
hypergeometric series, c_N^+'s correction by quadrature, and the 1-D kernel
constants from Gamma closed forms written differently from the ones here (a
reciprocal Gamma, an lgamma ratio, the reflected c_{s,mu}); the frozen
integrals check all of them against the definitions themselves.
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

# c_iso(gamma, s, N) = c_perp(gamma, s) 2F1(gamma/2+s, -s; 1/2; 1/N), which the
# package sums; these values are frozen from an independent 80-digit mpmath
# quadrature of the defining integral, which shares no formula with it,
# rounded to the digits shown:
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

# c_n_plus(gamma, s, N) = N*c_iso - corr at the finite FROZEN_C_ISO keys with
# gamma <= 3, N*c_iso taken from the frozen double above and corr from an
# independent 40-digit mpmath quadrature, rounded to double:
#
#     mp.dps = 40; a = 1/sqrt(N)
#     corr = quad(lambda t: (1+t^2-2at)^(-gamma/2) t^(-1-2s),
#                 [sqrt(N), 2 sqrt(N), 10, 100, inf])
#
# The same integral in v = log t over [log sqrt(N), 3, 6, 20, inf], and the
# first recipe at 50 digits, agree with it to 2e-42.
FROZEN_C_N_PLUS = {  # (gamma, s, N) -> c_n_plus
    (2.0, 0.5, 4): -7.309056526671944,
    (3.0, 0.98, 5): -8.465649017740127,
    (3.0, 0.6, 5): -9.758929106073285,
    (0.7, 0.5, 3): -3.4194136539335056,
}

# c_iso and c_N^+ near s = 1, where the kernel's exponent at t = 0, 1 - 2s, is
# near -1 and the constants grow like 1/(2-2s).  Frozen from FROZEN_C_ISO's
# 80-digit recipe and FROZEN_C_N_PLUS's 40-digit corr, each a function of
# (gamma, s, N) taking the doubles themselves, rounded to double:
#
#     gamma, s = mp.mpf(float(gamma)), mp.mpf(float(s))
#     c_iso = c_iso(gamma, s, N)
#     c_n_plus = N * c_iso(gamma, s, N) - corr(gamma, s, N)    # all in mpmath
#
#     c_iso(1.5, 0.99995, 3)            2498.972472443664789292804
#     c_iso(2.0, 0.99999, 3)            33331.88263685689878587849
#     c_iso(1.00002365148, 0.99999, 3)  -0.2724844483223399796747609
#     c_iso(1.5, 0.99995, 4)            -1875.874549248619479080947
#     corr(1.5, 0.99995, 4)             0.03074598031804882083070074
#
# The same recipes at 30 and 60 digits print the same 25 digits, and so does an
# independent 50-digit one that integrates (0, 1) in v = -log t, the pair's
# limit times exp(-(2-2s) v) in closed form and the rest over [0, 1, 3, 10, 30,
# 60, 120].
FROZEN_NEAR_ONE = {  # (constant, gamma, s, N) -> value
    ("c_iso", 1.5, 0.99995, 3): 2498.9724724436646,
    ("c_iso", 2.0, 0.99999, 3): 33331.8826368569,
    ("c_iso", 1.00002365148, 0.99999, 3): -0.27248444832234,
    ("c_n_plus", 1.5, 0.99995, 4): -7503.528942974796,
}

# The defining integrals of the 1-D kernel constants, frozen from an
# independent 50-digit mpmath quadrature, rounded to double:
#
#     c_perp(g, s)    = 2 int_0^inf ((1+t^2)^(-g/2) - 1) t^(-1-2s) dt
#     hat_c_dec(g, s) =   int_0^inf ((1+t)^(-g) + |1-t|^(-g) - 2) t^(-1-2s) dt
#     hat_c_gro(g, s) = -hat_c_dec(-g, s)
#     c_s_mu(mu, s)   =   int_0^inf ((1+t)^mu + (1-t)_+^mu - 2) t^(-1-2s) dt
#
#     mp.dps = 50
#     on (0, 1), with pair(t) the bracket over t^2:
#         k = 1/(2-2s)    # t = u^k turns pair(t) t^(1-2s) dt into k pair(u^k) du
#         k * quad(lambda u: pair(u^k), [0, 1]), pair evaluated with
#         2*floor(-log10 t) + 10 extra digits (mpmath.extradps), and as its
#         limit (-g, g(g+1), mu(mu-1)) below t = 1e-100
#     on (1, inf), in v = log t: the pure powers 2 t^(-g-1-2s) (c_perp,
#         hat_c_dec), t^(mu-1-2s) (c_s_mu) and -2 t^(-1-2s) integrate exactly
#         to 2/(g+2s), 1/(2s-mu) and -1/s; the rest is
#         quad(lambda v: e^(-(g+2s)v) * rest(v), [0, 1, inf]) with rest in
#         expm1/log1p: 2 expm1(-g/2 log1p(e^-2v)) for c_perp,
#         expm1(-g log1p(e^-v)) + expm1(-g log(-expm1(-v))) for hat_c_dec,
#         and, with 2s-mu in place of g+2s, expm1(mu log1p(e^-v)) for c_s_mu
#
# The same recipe at 40 digits gives the same doubles, and every value agrees
# with the Gamma closed forms, taken at 50 digits, to 1e-26 relative.  A plain
# 30-digit mp.quad of the c_perp integral over [0, 1, inf] misses by 70% at
# (g, s) = (0.01, 0.005) and by 18% at (0.5, 0.98).
FROZEN_KERNEL = {  # (constant, gamma or mu, s) -> value
    ('c_perp', 0.01, 0.005): -100.00819522335513,
    ('hat_c_dec', 0.01, 0.005): -99.98330778983862,
    ('c_perp', 0.5, 0.005): -196.42861853624316,
    ('hat_c_dec', 0.5, 0.005): -194.16345283639765,
    ('c_s_mu', 0.0025, 0.005): -66.66668159195609,
    ('c_s_mu', 0.0075, 0.005): 200.00004477586822,
    ('c_perp', 0.01, 0.02): -10.008199453727826,
    ('hat_c_dec', 0.01, 0.02): -9.983302899573419,
    ('c_perp', 0.5, 0.02): -46.64786486592336,
    ('hat_c_dec', 0.5, 0.02): -44.378728708039574,
    ('c_s_mu', 0.01, 0.02): -16.66690084652724,
    ('c_s_mu', 0.03, 0.02): 50.00070253958171,
    ('c_perp', 0.01, 0.5): -0.031200194607741445,
    ('hat_c_dec', 0.01, 0.5): 0.0004935208111819206,
    ('c_perp', 0.5, 0.5): -1.1981402347355923,
    ('hat_c_dec', 0.5, 0.5): 1.5707963267948966,
    ('c_s_mu', 0.25, 0.5): -0.7853981633974483,
    ('c_s_mu', 0.75, 0.5): 2.356194490192345,
    ('c_perp', 0.01, 0.98): -0.2552275138735994,
    ('hat_c_dec', 0.01, 0.98): 0.257501157334076,
    ('c_perp', 0.5, 0.98): -12.673373121276036,
    ('hat_c_dec', 0.5, 0.98): 20.080591389611406,
    ('c_s_mu', 0.49, 0.98): -6.4776089349701484,
    ('c_s_mu', 1.47, 0.98): 19.432826804910448,
    ('hat_c_gro', 0.5, 0.98): 6.062815998195062,
}

BUMP_IDENTITY = {  # raw second-difference integral of (1-t^2)_+^s: -G(s)G(1-s)
    0.25: -math.pi * math.sqrt(2.0),
    0.5: -math.pi,
}
