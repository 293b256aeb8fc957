"""Command-line surface: constants, roots, exponent table, verification, sweeps.

Exit codes: 0 success/pass, 1 verification fail, 2 usage/domain error,
3 inconclusive verification.  Configuration precedence: command-line flags,
then ``FRACTRUNC_*`` environment variables, then a ``key = value`` config
file, then built-in defaults.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import constants as cn
from . import verify as vf
from .quad import QuadResult, Tolerance

__all__ = ["main", "Config", "load_config", "write_atomic",
           "render_csv", "render_svg"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

_ENV_PREFIX = "FRACTRUNC_"

_CONFIG_KEYS = {
    "abs_tol": float,
    "rel_tol": float,
    "seed": int,
}


@dataclass(frozen=True)
class Config:
    abs_tol: float = Tolerance.abs_tol
    rel_tol: float = Tolerance.rel_tol
    seed: int = 42

    def __post_init__(self) -> None:
        Tolerance(self.abs_tol, self.rel_tol)  # raises on non-finite or non-positive values

    @property
    def tolerance(self) -> Tolerance:
        return Tolerance(self.abs_tol, self.rel_tol)


def _parse_config_file(path: str) -> dict:
    """Read a minimal ``key = value`` file (comments with '#')."""
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _CONFIG_KEYS[key](val.strip().strip('"'))
    return values


def load_config(path: Optional[str] = None,
                overrides: Optional[dict] = None) -> Config:
    """Merge defaults < config file < environment < explicit overrides."""
    values: dict = {}
    if path is not None:
        values.update(_parse_config_file(path))
    for key, cast in _CONFIG_KEYS.items():
        env = os.environ.get(_ENV_PREFIX + key.upper())
        if env is not None:
            values[key] = cast(env)
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return Config(**values)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def write_atomic(path: str, data: str) -> None:
    """Write a file via a temp sibling and an atomic rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fractrunc-")
    except OSError as exc:  # name the path asked for, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(doc: dict, out: Optional[str]) -> None:
    text = json.dumps(doc, indent=2, allow_nan=True) + "\n"
    if out:
        write_atomic(out, text)
    else:
        sys.stdout.write(text)


def render_csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def render_svg(title: str, x_label: str, y_label: str,
               series: dict[str, list[tuple[float, float]]]) -> str:
    """Minimal SVG 1.1 line chart, 640 x 420: axes, one polyline per series, labels."""
    width, height, margin = 640, 420, 60
    pts = [p for data in series.values() for p in data
           if math.isfinite(p[0]) and math.isfinite(p[1])]
    if pts:
        x0, x1 = min(p[0] for p in pts), max(p[0] for p in pts)
        y0, y1 = min(p[1] for p in pts), max(p[1] for p in pts)
    else:
        x0, x1, y0, y1 = 0.0, 1.0, 0.0, 1.0
    if x1 - x0 < 1e-30:
        x1 = x0 + 1.0
    if y1 - y0 < 1e-30:
        y1 = y0 + 1.0

    def sx(x: float) -> float:
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        f'<line x1="{margin}" y1="{height-margin}" x2="{width-margin}" '
        f'y2="{height-margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height-margin}" stroke="black"/>',
        f'<text x="{width/2:.1f}" y="{height-16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>',
        f'<text x="18" y="{height/2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {height/2:.1f})">{y_label}</text>',
        f'<text x="{margin}" y="{height-margin+16}" font-family="sans-serif" '
        f'font-size="10">{x0:.4g}</text>',
        f'<text x="{width-margin}" y="{height-margin+16}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{x1:.4g}</text>',
        f'<text x="{margin-6}" y="{height-margin}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{y0:.4g}</text>',
        f'<text x="{margin-6}" y="{margin+4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{y1:.4g}</text>',
    ]
    for i, (name, data) in enumerate(series.items()):
        finite = [(x, y) for x, y in data
                  if math.isfinite(x) and math.isfinite(y)]
        if not finite:
            continue
        color = palette[i % len(palette)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in finite)
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{coords}"/>')
        parts.append(f'<text x="{width-margin+4}" y="{margin + 14*i}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_constants(args: argparse.Namespace, cfg: Config) -> int:
    s, N, k = args.s, args.N, args.k
    params = cn.ProblemParams(N=N, k=k, s=s)  # validates ranges
    doc: dict = {
        "schema": 1,
        "params": {"s": s, "N": N, "k": k, "gamma": args.gamma, "mu": args.mu},
        "C_s": cn.normalizing_constant(s),
        "beta": cn.beta_1ms_s(s),
        # c_iso's series bound, and that of c_N_plus's correction series
        "error_estimates": {"closed_form": None, "correction": None},
    }
    notes = []
    bars = {}

    def attempt(name, fn, *fargs):
        try:
            value = fn(*fargs)
        except (cn.DomainError, ValueError) as exc:
            doc[name] = None
            notes.append(f"{name}: {exc}")
            return
        if isinstance(value, QuadResult):
            bars[name] = value.abs_error_estimate
            value = value.value
        doc[name] = value

    gamma = args.gamma
    if gamma is not None:
        attempt("c_hat", cn.hat_c_dec, gamma, s)
        attempt("c_perp", cn.c_perp, gamma, s)
        attempt("c_k", cn.c_k_fn, gamma, s, k)
        attempt("c_iso", lambda: cn.iso_stack([gamma], s, N, False)[0])
        attempt("c_N_plus", lambda: cn.iso_stack([gamma], s, N, True)[0])
    else:
        doc.update({"c_hat": None, "c_perp": None, "c_k": None,
                    "c_iso": None, "c_N_plus": None})
        notes.append("gamma not supplied; gamma-dependent constants omitted")
    if "c_N_plus" in bars:  # c_N_plus = N c_iso - corr, and its bar is their bars' sum
        doc["error_estimates"] = {"closed_form": bars["c_iso"],
                                  "correction": bars["c_N_plus"] - N * bars["c_iso"]}
    if args.mu is not None:
        attempt("c_s_mu", cn.c_s_mu, args.mu, s)
    else:
        doc["c_s_mu"] = None
    if notes:
        doc["notes"] = notes
    _emit(doc, args.out)
    return EXIT_OK


def cmd_roots(args: argparse.Namespace, cfg: Config) -> int:
    which = args.which
    if which == "gamma-bar":
        result = cn.find_gamma_bar(args.k, args.s)
    elif which == "gamma-tilde":
        result = cn.find_gamma_tilde(args.N, args.s)
    elif which == "gamma-plus":
        result = cn.find_gamma_plus(args.N, args.s)
    else:  # argparse choices prevent this
        raise AssertionError(which)
    doc: dict = {"schema": 1, "which": which,
                 "params": {"N": args.N, "k": args.k, "s": args.s}}
    if result is None:
        doc.update({"exists": False, "root": None,
                    "note": "no root in the admissible range"})
    else:
        doc.update({"exists": True, "root": result.root,
                    "residual": result.residual,
                    "bracket": list(result.bracket),
                    "iterations": result.iterations})
    _emit(doc, args.out)
    return EXIT_OK


_TABLE_HEADER = ["operator", "p_star", "p_lower_star", "notes"]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, tuple):
        return f"({value[0]:.6g}, {value[1]:.6g})"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _p_star_cell(row: dict) -> tuple[str, str]:
    """Collapse the p > 1 threshold variants into one cell plus a note."""
    if "p_star" in row:
        return _cell(row["p_star"]), ""
    if "p_star_upper" in row:
        return f"<= {row['p_star_upper']:.10g}", "existence above is open"
    note = ""
    if "p_star_upper_ref" in row:
        note = f"<= {row['p_star_upper_ref']:.10g} conjectured"
    return f">= {row['p_star_lower']:.10g}", note


def cmd_table(args: argparse.Namespace, cfg: Config) -> int:
    table = cn.exponent_table(args.N, args.s)
    rows = []
    for row in table.rows:
        p_cell, note = _p_star_cell(row)
        rows.append([row["operator"], p_cell,
                     _cell(row["p_lower_star"]), note])
    if args.format == "csv":
        text = render_csv(_TABLE_HEADER, rows)
        if args.out:
            write_atomic(args.out, text)
        else:
            sys.stdout.write(text)
    else:
        _emit({"schema": 1, "params": {"N": args.N, "s": args.s},
               "header": _TABLE_HEADER,
               "rows": table.rows}, args.out)
    return EXIT_OK


def _report_exit(report: vf.VerificationReport, out: Optional[str]) -> int:
    _emit(report.to_json(), out)
    if report.verdict == "pass":
        return EXIT_OK
    if report.verdict == "fail":
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE


# parameters a construction cannot run without (dest names of the flags)
_VERIFY_REQUIRES = {
    "power-identity": ("mu",),
    "bump-train": ("p",),
    "singular": ("p",),
    "transform": ("p", "q"),
}


def cmd_verify(args: argparse.Namespace, cfg: Config) -> int:
    tol = cfg.tolerance
    construction = args.construction
    missing = [f"--{name}" for name in _VERIFY_REQUIRES.get(construction, ())
               if getattr(args, name) is None]
    if missing:
        raise ValueError(f"verify {construction} requires {' and '.join(missing)}")
    if construction == "power-identity":
        report = vf.verify_power_identity(args.mu, args.s, tol=tol)
    elif construction == "bump-train":
        eps = None if args.eps in (None, "auto") else float(args.eps)
        report = vf.verify_bump_train(args.s, args.p, eps=eps, k=args.k,
                                      N=args.N, tol=tol)
    elif construction == "t49-2":
        gamma = None if args.gamma in (None, "auto") else float(args.gamma)
        report = vf.verify_T49_2(args.N, args.s, gamma=gamma, tol=tol)
    elif construction == "psi":
        report = vf.verify_psi_subsolution(args.kind, args.k, args.s)
    elif construction == "singular":
        report = vf.verify_singular_supersolution(args.s, args.p, args.op_kind,
                                                  args.N, tol=tol)
    elif construction == "avoidance":
        y = np.zeros(args.N)
        y[-1:] = args.y_N  # a no-op for N < 1, which the verifier rejects
        report = vf.verify_avoidance_example(args.N, args.s, args.r, y, tol=tol)
    elif construction == "transform":
        report = vf.verify_transform(args.s, args.p, args.q, seed=cfg.seed,
                                     tol=tol)
    else:  # argparse choices prevent this
        raise AssertionError(construction)
    return _report_exit(report, args.report)


_SWEEP_TARGETS = {
    "roots": ["gamma_bar", "gamma_tilde", "gamma_plus"],
    "bounds": ["c_hat", "c_perp", "c_k"],
}


def _sweep_row(target: str, N: int, k: int, s: float,
               gamma: float) -> Optional[float]:
    if target == "gamma_bar":
        r = cn.find_gamma_bar(k, s)
        return None if r is None else r.root
    if target == "gamma_tilde":
        return cn.find_gamma_tilde(N, s).root
    if target == "gamma_plus":
        return cn.find_gamma_plus(N, s).root
    if target == "c_hat":
        return cn.hat_c_dec(gamma, s)
    if target == "c_perp":
        return cn.c_perp(gamma, s)
    if target == "c_k":
        return cn.c_k_fn(gamma, s, k)
    raise AssertionError(target)


def cmd_sweep(args: argparse.Namespace, cfg: Config) -> int:
    lo, hi = args.s_min, args.s_max
    if args.steps < 1:
        raise cn.DomainError("steps must be >= 1")
    if not (0.0 < lo < hi < 1.0):
        raise cn.DomainError("sweep range must satisfy 0 < s_min < s_max < 1")
    cn.ProblemParams(N=args.N, k=args.k, s=hi)  # validates N and k as constants does
    grid = np.linspace(lo, hi, args.steps)
    targets = _SWEEP_TARGETS[args.targets]
    header = ["s"] + targets + ["status"]
    rows: list[list] = []
    series: dict[str, list[tuple[float, float]]] = {t: [] for t in targets}
    for s in grid:
        row: list = [f"{s:.10g}"]
        failed = []
        for t in targets:
            try:
                val = _sweep_row(t, args.N, args.k, float(s), args.gamma)
            except (cn.DomainError, cn.NoRootError, cn.BracketFailure) as exc:
                row.append("")  # record, keep sweeping; any other error is a bug
                failed.append(f"{t}:{type(exc).__name__}")
                continue
            row.append("" if val is None else f"{val:.12g}")
            if val is not None:
                series[t].append((float(s), val))
        row.append("error:" + ";".join(failed) if failed else "ok")
        rows.append(row)
    base = args.out_prefix
    write_atomic(base + ".csv", render_csv(header, rows))
    svg = render_svg(f"{args.targets} vs s (N={args.N}, k={args.k})",
                     "s", args.targets, series)
    write_atomic(base + ".svg", svg)
    sys.stdout.write(json.dumps({"schema": 1, "csv": base + ".csv",
                                 "svg": base + ".svg",
                                 "rows": len(rows)}) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractrunc",
        description="Constants, critical exponents, and certified "
                    "constructions for truncated fractional Laplacians "
                    "on the half-space.")
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--seed", type=int,
                        help="RNG seed (default 42); only `verify transform` reads it")
    ignored = ("; constants, roots, table and sweep run no quadrature, and verify psi "
               "ignores it and runs at 1e-12 absolute, 1e-11 relative")
    parser.add_argument("--abs-tol", type=float, dest="abs_tol",
                        help="absolute quadrature tolerance of the verify suites (default "
                             f"{Tolerance.abs_tol:g})" + ignored)
    parser.add_argument("--rel-tol", type=float, dest="rel_tol",
                        help="relative quadrature tolerance of the verify suites (default "
                             f"{Tolerance.rel_tol:g})" + ignored)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="special constants at (s, N, k)")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--N", type=int, default=3)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--gamma", type=float, help="error_estimates then holds c_iso's series "
                   "bound (closed_form) and the bound of c_N_plus's correction series "
                   "(correction)")
    p.add_argument("--mu", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("roots", help="critical exponent roots")
    p.add_argument("--which", required=True,
                   choices=["gamma-bar", "gamma-tilde", "gamma-plus"])
    p.add_argument("--N", type=int, default=3)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("table", help="existence/nonexistence exponent table")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("construction",
                   choices=["power-identity", "bump-train", "t49-2", "psi",
                            "singular", "avoidance", "transform"])
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--p", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--gamma", default=None)
    p.add_argument("--eps", default=None)
    p.add_argument("--kind", default="decay",
                   choices=["decay", "halfint", "growth"])
    p.add_argument("--op-kind", dest="op_kind", default="ik_minus",
                   choices=["ik_minus", "in_plus"])
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--y-N", type=float, dest="y_N", default=-1.0)
    p.add_argument("--report", help="write the JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="sweep s and emit CSV + SVG")
    p.add_argument("--s-min", type=float, default=0.1)
    p.add_argument("--s-max", type=float, default=0.9)
    p.add_argument("--steps", type=int, default=9)
    p.add_argument("--N", type=int, default=3)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--targets", choices=["roots", "bounds"], default="roots")
    p.add_argument("--out-prefix", default="sweep")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, {
            "seed": args.seed, "abs_tol": args.abs_tol,
            "rel_tol": args.rel_tol})
        return args.func(args, cfg)
    except (cn.DomainError, cn.NoRootError, cn.BracketFailure,
            vf.GeometryViolation, vf.NotFound, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        # a --config, --out or --report path that cannot be used; a failed
        # rename names its target second, after write_atomic's temporary file
        path = exc.filename2 or exc.filename
        sys.stderr.write(f"error: {exc.strerror}: {path}\n" if path else f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
