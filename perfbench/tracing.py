"""Span recorder for the traced run.

The recorder wraps each layer's public functions at the places where their
callers look them up (``fractrunc.constants.integrate`` as well as
``fractrunc.quad.integrate``, ``fractrunc.profiles.c_s_mu`` as well as
``fractrunc.constants.c_s_mu``, and so on), and the ``__call__`` of every
``Field`` subclass.  Nothing inside the package changes; the wrappers are
installed only while a traced item runs.

A span records name, layer, item, parent span, start, end and self time (its
duration minus the time its child spans cover).  Spans stay in memory and
are written out at the end.  Field evaluations are too many to keep one by
one (a bump-train item makes ~400k), so they are folded into their nearest
recorded ancestor as a count and a self time per field class.  Per-layer
times are raw wall seconds of the traced run.  Integrand closures that the
constants hand to ``integrate`` are not spans of their own: their time is
``quad`` self time.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Callable, Iterator

from fractrunc import constants as cn
from fractrunc import operators as op
from fractrunc import profiles as pr
from fractrunc import quad as qd
from fractrunc import verify as vf

CONSTANTS = ("hat_c_dec", "c_perp", "c_k_fn", "hat_c_gro", "c_iso", "c_n_plus",
             "c_s_mu", "find_gamma_bar", "find_gamma_tilde", "find_gamma_plus",
             "exponent_table")
ROOT_FINDERS = ("find_gamma_bar", "find_gamma_tilde", "find_gamma_plus")
OPERATORS = ("directional", "directional_at", "frame_sum", "extremal_search",
             "extremal_radial")
VERIFIERS = tuple(n for n in vf.__all__ if n.startswith("verify_"))

# (layer, module, attribute): every place a caller looks a public function up
SEAMS = (
    [("quad", m, n) for m in (qd, cn) for n in ("integrate", "integrate_pv")]
    + [("constants", cn, n) for n in CONSTANTS]
    + [("constants", pr, n) for n in ("c_s_mu", "find_gamma_bar", "find_gamma_plus")]
    + [("operators", op, n) for n in OPERATORS]
    + [("verify", vf, n) for n in VERIFIERS]
)

PROFILES = "profiles"


def _field_classes() -> list[type]:
    """Every Field subclass that defines its own ``__call__``."""
    found, todo = [], [pr.Field]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls is not pr.Field and "__call__" in cls.__dict__:
            found.append(cls)
    return found


def _details(layer: str, name: str, args: tuple, kwargs: dict, result) -> dict:
    """The counts a span carries, read from the call and its result."""
    if layer == "quad" or name == "directional":
        return {"n_evals": int(result.n_evals)}
    if layer == "constants":
        out = {"key": repr((name, args, sorted(kwargs.items())))}
        if name in ROOT_FINDERS and result is not None:
            out["iterations"] = int(result.iterations)
        return out
    if layer == "verify":
        return {"claims": len(result.residuals),
                "inconclusive": sum(c.status() == "inconclusive" for c in result.residuals)}
    return {}


class Recorder:
    """Keeps the spans of traced items in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.fields: dict[tuple, list] = {}  # (parent span, class) -> [calls, self_s]
        self._stack: list[list] = []  # open frames: [span id, layer, child seconds]
        self._next_id = 0
        self.item: str | None = None

    # -- wrappers -----------------------------------------------------------
    def _open(self, layer: str) -> tuple[list, list]:
        parent = self._stack[-1] if self._stack else [None, None, 0.0]
        frame = [self._next_id, layer, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return parent, frame

    def _close(self, parent: list, frame: list, name: str, item: str,
               start: float, details: dict) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent[2] += end - start
        self.spans.append({"id": frame[0], "name": name, "layer": frame[1],
                           "item": item, "parent": parent[0],
                           "parent_layer": parent[1], "start": start, "end": end,
                           "self_s": end - start - frame[2], **details})

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, frame = self._open(layer)
            start = time.perf_counter()
            details: dict = {}
            try:
                result = fn(*args, **kwargs)
                details = _details(layer, name, args, kwargs, result)
                return result
            except Exception as exc:
                details = {"raised": type(exc).__name__}
                raise
            finally:
                self._close(parent, frame, name, self.item, start, details)
        return wrapper

    def _wrap_field(self, cls: type) -> Callable:
        stack, folded, clock = self._stack, self.fields, time.perf_counter
        orig, name = cls.__dict__["__call__"], cls.__name__

        def __call__(field, y):
            parent = stack[-1]
            frame = [parent[0], PROFILES, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return orig(field, y)
            finally:
                took = clock() - start
                stack.pop()
                parent[2] += took
                entry = folded.get((frame[0], name))
                if entry is None:
                    entry = folded[(frame[0], name)] = [0, 0.0]
                if parent[1] != PROFILES:  # count calls entering the layer
                    entry[0] += 1
                entry[1] += took - frame[2]
        return __call__

    # -- installing ---------------------------------------------------------
    @contextmanager
    def active(self) -> Iterator[None]:
        saved = []
        for layer, module, attr in SEAMS:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(layer, attr, fn))
        for cls in _field_classes():
            saved.append((cls, "__call__", cls.__dict__["__call__"]))
            setattr(cls, "__call__", self._wrap_field(cls))
        try:
            yield
        finally:
            for obj, attr, fn in reversed(saved):
                setattr(obj, attr, fn)

    def run_item(self, item_name: str, call: Callable[[], object]):
        """Run one item under an item span, with every layer wrapped."""
        self.item = item_name
        with self.active():
            parent, frame = self._open("item")
            start = time.perf_counter()
            try:
                return call()
            finally:
                self._close(parent, frame, "item", item_name, start, {})

    # -- results ------------------------------------------------------------
    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer counts and self times, as ``name -> (value, unit)``."""
        def spans(layer=None, names=None):
            return [s for s in self.spans
                    if (layer is None or s["layer"] == layer)
                    and (names is None or s["name"] in names)]

        def self_s(group):
            return sum(s["self_s"] for s in group)

        quad = spans("quad")
        quad_entry = [s for s in quad if s["parent_layer"] != "quad"]
        consts = spans("constants")
        directional = spans(names=("directional",))
        verifiers = spans("verify")
        return {
            "profiles.field_calls": (sum(c for c, _ in self.fields.values()), "count"),
            "profiles.field_self_s": (sum(t for _, t in self.fields.values()), "s"),
            "quad.integrate_calls": (len(quad_entry), "count"),
            "quad.integrate_self_s": (self_s(quad), "s"),
            "quad.evals": (sum(s.get("n_evals", 0) for s in quad_entry), "count"),
            "constants.calls": (len(consts), "count"),
            "constants.self_s": (self_s(consts), "s"),
            "constants.root_iterations": (sum(s.get("iterations", 0) for s in consts), "count"),
            "constants.distinct_ratio": (
                len({s["key"] for s in consts if "key" in s}) / len(consts) if consts else 0.0,
                "fraction"),
            "operators.directional_calls": (len(directional), "count"),
            "operators.directional_self_s": (
                self_s(spans(names=("directional", "directional_at"))), "s"),
            "operators.evals_per_directional": (
                sum(s.get("n_evals", 0) for s in directional) / len(directional)
                if directional else 0.0, "count"),
            "operators.frame_sum_calls": (len(spans(names=("frame_sum",))), "count"),
            "operators.search_self_s": (
                self_s(spans(names=("extremal_search", "extremal_radial"))), "s"),
            "verify.self_s": (self_s(verifiers), "s"),
            "verify.claims": (sum(s.get("claims", 0) for s in verifiers), "count"),
            "verify.inconclusive_claims": (
                sum(s.get("inconclusive", 0) for s in verifiers), "count"),
        }

    def write(self, path: str) -> None:
        """Write the spans, then the folded field evaluations, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for (parent, cls), (calls, took) in self.fields.items():
                fh.write(json.dumps({"folded": cls, "layer": PROFILES, "parent": parent,
                                     "calls": calls, "self_s": took}) + "\n")

