"""Seeded item streams for the three workloads, with the check for every item.

``deck(workload, seed)`` yields an endless stream of ``Item``s.  The stream
is made of passes; every pass has the same fixed structure (which
constructions, strata of s, dimensions), and its parameters are drawn from
``random.Random(f"{workload}-{seed}-{pass}")``.  The same seed therefore
gives the same items in the same order, and the program receives only the
drawn inputs.  Fresh draws in every pass let a long run average over many
parameter sets instead of repeating one.

Every item carries its own check, prepared when the item is drawn so that
the timed call is only the call into the package.  Items whose outcome is
known to be wrong at the seed commit stay in the stream and count as failed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

import oracles as oc  # tests/oracles.py: Gamma closed forms and frozen roots
from fractrunc import constants as cn
from fractrunc import operators as op
from fractrunc import profiles as pr
from fractrunc import verify as vf
from fractrunc.quad import Tolerance

# The tolerances the package is driven at: the CLI defaults for verify
# suites, a loose request for frame searches, and the constants' own default.
VERIFY_TOL = Tolerance(1e-10, 1e-9)
SEARCH_TOL = Tolerance(1e-7, 1e-6)
ORACLE_TOL = 1e-8  # |value - oracle| <= ORACLE_TOL * max(1, |oracle|)
ROOT_PROBE = 1e-7  # a root passes when the oracle changes sign across root +- this
FROZEN_TOL = 5e-8  # the frozen roots are rounded; the package's own tests use 5e-8

LOW, MID, HIGH = (0.05, 0.1), (0.45, 0.55), (0.95, 0.96)
# Frame searches run at the package defaults (10 restarts, 3 sweeps, 32
# angles), except on non-radial fields: there the defaults take 110-140 s for
# a min-field search and about 50 s for a half-space tail with k = 2 (x86_64,
# 2 vCPUs).  So those make one restart, and min-field ones one sweep: over
# seven seeds each then made 0.8k-10k panels in 0.3-4.3 s, 4.6k panels and
# 1.8 s on average.
FIELD_BUDGET = 1
MIN_FIELD_SWEEPS = 1
CONSTANT_STRATA = (0.02, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95, 0.98)

TOLERANCES = {
    "verify": [VERIFY_TOL.abs_tol, VERIFY_TOL.rel_tol],
    "search": [SEARCH_TOL.abs_tol, SEARCH_TOL.rel_tol],
    "constants": "package default",
    "oracle_rel": ORACLE_TOL,
    "root_probe": ROOT_PROBE,
    "frozen_root_abs": FROZEN_TOL,
}


@dataclass
class Outcome:
    """What the check of one item found."""

    failure: Optional[str]  # None when the item passed
    error_bars: list[float]  # nonzero error estimates the item reported


@dataclass
class Item:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


def _fmt(x: float) -> str:
    return f"{x:.4g}"


# ---------------------------------------------------------------------------
# certify: verify-suite calls, as the CLI makes them
# ---------------------------------------------------------------------------

def _check_report(report: vf.VerificationReport) -> Outcome:
    bars = [float(c.error) for c in report.residuals if c.error > 0.0]
    failure = None if report.verdict == "pass" else f"verdict {report.verdict}"
    return Outcome(failure, bars)


def _verify_item(name: str, call: Callable[[], vf.VerificationReport]) -> Item:
    return Item(name, call, _check_report)


def _bump_train(rng, band, N):
    s, p, k = rng.uniform(*band), rng.uniform(1.3, 1.7), rng.randint(1, N - 1)
    return _verify_item(
        f"bump-train s={_fmt(s)} p={_fmt(p)} N={N} k={k}",
        lambda: vf.verify_bump_train(s, p, eps=None, k=k, N=N, tol=VERIFY_TOL))


def _t49_2(rng, band, N):
    s = rng.uniform(*band)
    return _verify_item(f"t49-2 s={_fmt(s)} N={N}",
                        lambda: vf.verify_T49_2(N, s, gamma=None, tol=VERIFY_TOL))


def _psi(kind):
    def build(rng, band, N):
        k = N - 1  # the suite works in dimension k + 1
        s = 0.5 if kind == "halfint" else rng.uniform(*band)
        return _verify_item(f"psi {kind} s={_fmt(s)} k={k}",
                            lambda: vf.verify_psi_subsolution(kind, k, s))
    return build


def _singular(op_kind):
    def build(rng, band, N):
        s, p, seed = rng.uniform(*band), rng.uniform(-3.0, -2.5), rng.randrange(2**31)
        return _verify_item(
            f"singular {op_kind} s={_fmt(s)} p={_fmt(p)} N={N}",
            lambda: vf.verify_singular_supersolution(s, p, op_kind, N, seed=seed,
                                                     tol=VERIFY_TOL))
    return build


def _transform(rng, band, _N):
    s, p = rng.uniform(*band), rng.uniform(-3.0, -2.5)
    q, seed = p - rng.uniform(0.8, 1.2), rng.randrange(2**31)
    return _verify_item(f"transform s={_fmt(s)} p={_fmt(p)} q={_fmt(q)}",
                        lambda: vf.verify_transform(s, p, q, seed=seed, tol=VERIFY_TOL))


def _avoidance(rng, band, N):
    s, r = rng.uniform(*band), rng.uniform(0.4, 0.8)
    y_n = -math.sqrt(2.0) * r - rng.uniform(0.05, 1.0)

    def call():
        y = np.zeros(N)
        y[-1] = y_n
        return vf.verify_avoidance_example(N, s, r, y, tol=VERIFY_TOL)

    return _verify_item(f"avoidance s={_fmt(s)} r={_fmt(r)} y_N={_fmt(y_n)} N={N}", call)


def _power_identity(rng, band, _N):
    s = rng.uniform(*band)
    mu = rng.uniform(0.8, 1.2) * s
    return _verify_item(f"power-identity s={_fmt(s)} mu={_fmt(mu)}",
                        lambda: vf.verify_power_identity(mu, s, tol=VERIFY_TOL))


# One pass is three rounds of about equal cost.  Each entry pairs a band of
# s with a dimension N.  The bands are narrow: item costs swing with s and p,
# and a run is one pass, so wide bands would make run times hinge on draws.  Over a pass every construction meets s <= 0.1,
# mid-range s and s >= 0.95, and N in {2, 3, 4}, where its admissible range
# allows: psi decay with k = 1 needs s < 1/2, psi growth needs s > 1/2 and
# k = 1, and the halfint variant is defined at s = 1/2 only.  Heavy and light
# items alternate, so a run that stops inside a round still sees the mix.
_CERTIFY_ROUNDS = [
    [(_bump_train, LOW, 2), (_avoidance, LOW, 4), (_t49_2, LOW, 3),
     (_singular("ik_minus"), HIGH, 2), (_singular("in_plus"), MID, 3),
     (_power_identity, LOW, 3), (_psi("decay"), (0.35, 0.45), 2),
     (_transform, LOW, 2), (_psi("growth"), (0.65, 0.75), 2), (_psi("halfint"), None, 2)],
    [(_bump_train, MID, 3), (_avoidance, MID, 2), (_t49_2, MID, 4),
     (_singular("ik_minus"), LOW, 3), (_singular("in_plus"), HIGH, 2),
     (_power_identity, HIGH, 3), (_psi("decay"), HIGH, 4),
     (_transform, HIGH, 2), (_psi("growth"), HIGH, 2)],
    [(_bump_train, HIGH, 4), (_avoidance, HIGH, 3), (_t49_2, HIGH, 2),
     (_singular("ik_minus"), MID, 4), (_singular("in_plus"), LOW, 4),
     (_power_identity, MID, 3), (_psi("decay"), LOW, 3), (_transform, MID, 2)],
]


def _certify_pass(rng: random.Random) -> list[Item]:
    return [build(rng, band, N) for rnd in _CERTIFY_ROUNDS for build, band, N in rnd]


# ---------------------------------------------------------------------------
# constants: kernel constants, roots and the exponent table
# ---------------------------------------------------------------------------

def check_close(oracle: float) -> Callable[[object], Outcome]:
    """Check a bare-float constant against an oracle value."""
    def check(value) -> Outcome:
        miss = abs(float(value) - oracle)
        bad = not miss <= ORACLE_TOL * max(1.0, abs(oracle))
        return Outcome(f"misses oracle {oracle:.12g} by {miss:.3g}" if bad else None, [])
    return check


def _check_finite(value) -> Outcome:
    return Outcome(None if math.isfinite(value) else f"value {value}", [])


def _c_k_oracle(gam: float, s: float, k: int) -> float:
    return oc.hat_c_dec_oracle(gam, s) + (k - 1) * oc.c_perp_oracle(gam, s)


def _brackets(fn: Callable[[float], float], root: float) -> bool:
    return fn(root - ROOT_PROBE) * fn(root + ROOT_PROBE) <= 0.0


def constant_item(name: str, fn: Callable, args: tuple,
                  check: Callable[[object], Outcome]) -> Item:
    label = " ".join(f"{a}" if isinstance(a, (int, str)) else _fmt(a) for a in args)
    return Item(f"{name} {label}", lambda: fn(*args), check)


def _gamma_bar_item(k: int, s: float) -> Item:
    def check(res) -> Outcome:
        exists = k >= 2 or s < 0.5  # the existence dichotomy
        if res is None:
            return Outcome(None if not exists else "no root, but one exists", [])
        if not exists:
            return Outcome(f"root {res.root:.6g} where none exists", [])
        if k == 1:
            miss = abs(res.root - oc.gamma_bar_k1_oracle(s))
            return Outcome(f"misses 1-2s by {miss:.3g}" if miss > ORACLE_TOL else None, [])
        ok = _brackets(lambda g: _c_k_oracle(g, s, k), res.root)
        return Outcome(None if ok else f"oracle c_k has no sign change at {res.root:.10g}", [])
    return constant_item("find_gamma_bar", cn.find_gamma_bar, (k, s), check)


def _frozen_root_item(which: str, nk: int, s: float, root: float) -> Item:
    finder = {"gamma_bar": cn.find_gamma_bar, "gamma_tilde": cn.find_gamma_tilde,
              "gamma_plus": cn.find_gamma_plus}[which]

    def check(res) -> Outcome:
        miss = abs(res.root - root)
        return Outcome(f"misses frozen root {root} by {miss:.3g}"
                       if miss > FROZEN_TOL else None, [])
    return constant_item(f"find_{which}", finder, (nk, s), check)


def _residual_root_item(name: str, finder: Callable, N: int, s: float) -> Item:
    def check(res) -> Outcome:
        lo, hi = res.bracket
        ok = lo <= res.root <= hi and abs(res.residual) <= ORACLE_TOL
        return Outcome(None if ok else f"root {res.root:.10g} residual {res.residual:.3g}", [])
    return constant_item(name, finder, (N, s), check)


def _table_item(N: int, s: float) -> Item:
    def check(table) -> Outcome:
        rows = {r["operator"]: r for r in table.rows}
        for k in range(1, N):
            if rows[f"I_{k}^-"]["p_star"] != 1.0:
                return Outcome(f"I_{k}^- p* != 1", [])
        if not rows[f"I_{N}^-"]["p_star_upper"] > 1.0:
            return Outcome(f"I_{N}^- p* bound <= 1", [])
        first = rows["I_1^+"]
        if s < 0.5:
            want = 1.0 + 2.0 * s / (oc.gamma_bar_k1_oracle(s) + 1.0)
            got = first.get("p_star_lower", math.nan)
        else:
            want, got = 1.0 / (1.0 - s), first.get("p_star_lower", math.nan)
        if not abs(got - want) <= ORACLE_TOL * want:
            return Outcome(f"I_1^+ p* bound {got:.10g} != oracle {want:.10g}", [])
        for k in range(2, N + 1):
            bar = 2.0 * s / (rows[f"I_{k}^+"]["p_star_upper_ref"] - 1.0)
            if not _brackets(lambda g: _c_k_oracle(g, s, k), bar):
                return Outcome(f"I_{k}^+ gamma_bar {bar:.10g} fails the oracle", [])
        return Outcome(None, [])
    return constant_item("exponent_table", cn.exponent_table, (N, s), check)


def _constants_pass(rng: random.Random) -> list[Item]:
    items: list[Item] = []
    bands = list(zip(CONSTANT_STRATA[:-1], CONSTANT_STRATA[1:]))
    for i, band in enumerate(bands):
        s = rng.uniform(*band)
        k, N = 1 + i % 3, 2 + i % 3
        g_dec, g_perp, g_iso = rng.uniform(0.05, 0.95), rng.uniform(0.05, 3.0), rng.uniform(0.1, 4.0)
        mu = rng.uniform(0.02, 0.99) * 2.0 * s
        s_gro = 0.5 + 0.5 * s  # the growth case needs s > 1/2
        # one draw per pass sits on the growth-case root gamma = 2s - 1
        g_gro = (2.0 * s_gro - 1.0) * (1.0 if i == 3 else rng.uniform(0.05, 0.95))
        items += [
            constant_item("hat_c_dec", cn.hat_c_dec, (g_dec, s),
                          check_close(oc.hat_c_dec_oracle(g_dec, s))),
            constant_item("c_perp", cn.c_perp, (g_perp, s),
                          check_close(oc.c_perp_oracle(g_perp, s))),
            constant_item("c_k_fn", cn.c_k_fn, (g_dec, s, k),
                          check_close(_c_k_oracle(g_dec, s, k))),
            # hat_c_gro(g) = -hat_c_dec(-g): the decay closed form at -gamma
            constant_item("hat_c_gro", cn.hat_c_gro, (g_gro, s_gro),
                          check_close(-oc.hat_c_dec_oracle(-g_gro, s_gro))),
            constant_item("c_iso", cn.c_iso, (g_iso, s, N), _check_finite),
            constant_item("c_n_plus", cn.c_n_plus, (g_iso, s, N), _check_finite),
            constant_item("c_s_mu", cn.c_s_mu, (mu, s, "primary"),
                          check_close(oc.c_s_mu_oracle(mu, s))),
            constant_item("c_s_mu", cn.c_s_mu, (mu, s, "alternate"),
                          check_close(oc.c_s_mu_oracle(mu, s))),
            _gamma_bar_item(k, s),
        ]
        if i % 2 == 0:
            items.append(_residual_root_item("find_gamma_tilde", cn.find_gamma_tilde, N, s))
        else:
            items.append(_residual_root_item("find_gamma_plus", cn.find_gamma_plus, N, s))
        if i % 4 == 1:
            items.append(_table_item(N, s))
    for (which, nk, s), root in oc.FROZEN_ROOTS.items():
        items.append(_frozen_root_item(which, nk, s, root))
    return items


# ---------------------------------------------------------------------------
# frame-search: heuristic extremal searches at loose tolerance
# ---------------------------------------------------------------------------

def _search_outcome(found, frame, k: int) -> Optional[str]:
    if not (math.isfinite(found.value) and math.isfinite(found.abs_error_estimate)
            and found.abs_error_estimate >= 0.0):
        return f"search returned {found.value} +- {found.abs_error_estimate}"
    if frame.k != k:
        return f"frame has {frame.k} vectors, expected {k}"
    return None


def _unit(rng: random.Random, N: int, upper: bool) -> np.ndarray:
    v = np.array([rng.gauss(0.0, 1.0) for _ in range(N)])
    if upper:
        v[-1] = abs(v[-1]) + 0.3
    return v / np.linalg.norm(v)


def _radial_search(rng, variant: str, N: int, k: int) -> Item:
    gam, s = rng.uniform(0.3, 1.5), rng.uniform(0.2, 0.7)
    x = rng.uniform(1.5, 2.5) * _unit(rng, N, upper=False)
    seed = rng.randrange(2**31)
    closed_variant = "minus_full" if variant == "minus" else "plus"
    w = pr.make_w_gamma(gam)

    def call():
        found, frame = op.extremal_search(w, x, s, k, variant, seed=seed, tol=SEARCH_TOL)
        closed = op.extremal_radial(w, x, s, k, closed_variant, VERIFY_TOL)
        return found, frame, closed

    def check(out) -> Outcome:
        found, frame, closed = out
        bars = [found.abs_error_estimate, closed.abs_error_estimate]
        failure = _search_outcome(found, frame, k)
        slack = found.abs_error_estimate + closed.abs_error_estimate
        # plus bounds the sup from below, minus bounds the inf from above
        beyond = (found.value - closed.value if variant == "plus"
                  else closed.value - found.value)
        if failure is None and beyond > slack:
            failure = f"search beats the closed form by {beyond:.3g} > {slack:.3g}"
        return Outcome(failure, [b for b in bars if b > 0.0])

    return Item(f"radial {variant} gamma={_fmt(gam)} s={_fmt(s)} N={N} k={k}", call, check)


def _field_search(name: str, field, x: np.ndarray, s: float, k: int,
                  variant: str, seed: int, **settings) -> Item:
    def call():
        return op.extremal_search(field, x, s, k, variant, budget=FIELD_BUDGET, seed=seed,
                                  tol=SEARCH_TOL, **settings)

    def check(out) -> Outcome:
        found, frame = out
        bar = found.abs_error_estimate
        return Outcome(_search_outcome(found, frame, k), [bar] if bar > 0.0 else [])

    return Item(name, call, check)


def _tail_search(rng, variant: str, N: int, k: int) -> Item:
    gam, s = rng.uniform(0.5, 1.5), rng.uniform(0.2, 0.6)
    x = rng.uniform(1.5, 2.5) * _unit(rng, N, upper=True)
    return _field_search(f"halfspace-tail {variant} gamma={_fmt(gam)} s={_fmt(s)} N={N} k={k}",
                         pr.HalfSpacePowerTail(gam), x, s, k, variant,
                         rng.randrange(2**31))


def _min_search(rng, variant: str) -> Item:
    # p well above the existence threshold 1 + 2s/gamma_plus for s in (0.3, 0.6)
    s, p = rng.uniform(0.3, 0.6), rng.uniform(3.5, 4.5)
    x = np.array([rng.uniform(-0.5, 0.5), rng.uniform(1.0, 1.5)])
    field, _ = pr.build_thIN_supersolution(2, s, p)
    return _field_search(f"min-field {variant} s={_fmt(s)} p={_fmt(p)} N=2 k=1",
                         field, x, s, 1, variant, rng.randrange(2**31),
                         sweeps=MIN_FIELD_SWEEPS)


# The cost of a search swings with s, gamma and the point: non-radial ones at
# s > 0.7 cost up to 60x the others, and min-field "minus" searches 3x its
# "plus" ones; a radial one grows with k.  The ranges here are narrow and k is
# fixed per slot (minus searches take the full frame, k = N), so that a run's
# time does not hinge on a few draws; certify covers the extremes of s.
def _frame_search_pass(rng: random.Random) -> list[Item]:
    return [
        _radial_search(rng, "plus", 2, 1),
        _tail_search(rng, "plus", 3, 1),
        _radial_search(rng, "minus", 3, 3),
        _min_search(rng, "plus"),
        _radial_search(rng, "plus", 4, 2),
        _tail_search(rng, "minus", 2, 1),
        _radial_search(rng, "minus", 2, 2),
        _tail_search(rng, "plus", 4, 1),
        _radial_search(rng, "plus", 3, 3),
    ]


# ---------------------------------------------------------------------------

_PASSES = {"certify": _certify_pass, "constants": _constants_pass,
           "frame-search": _frame_search_pass}


def deck(workload: str, seed: int) -> Iterator[Item]:
    """The endless seeded item stream of a workload."""
    make_pass = _PASSES[workload]
    n = 0
    while True:
        yield from make_pass(random.Random(f"{workload}-{seed}-{n}"))
        n += 1


# Reference seconds (speed.py) one pass of each stream took at the commit
# that sized the decks, over ten seeds on x86_64 with 2 vCPUs.
PASS_REF_S = {"certify": 14.3, "constants": 1.5, "frame-search": 6.3}
MIN_SAMPLES = 25  # items a timed run needs for its tail to lie above p60


def pass_size(workload: str) -> int:
    return len(_PASSES[workload](random.Random(0)))


def passes(workload: str, seconds: float) -> int:
    """Whole passes in a timed run: as many as took ``seconds`` reference
    seconds when the decks were sized, and at least MIN_SAMPLES items.  The
    count depends on nothing measured, so a run of a faster or slower program
    times the same items, and its tail sits at the same percentile."""
    by_time = round(seconds / PASS_REF_S[workload])
    return max(1, by_time, math.ceil(MIN_SAMPLES / pass_size(workload)))


def warmup_item(workload: str) -> Item:
    """A fixed, cheap item that runs the workload's code paths once."""
    if workload == "certify":
        return _verify_item("warm-up t49-2 s=0.5 N=2",
                            lambda: vf.verify_T49_2(2, 0.5, tol=VERIFY_TOL))
    if workload == "constants":
        return _table_item(2, 0.5)
    return _radial_search(random.Random(0), "plus", 2, 1)
