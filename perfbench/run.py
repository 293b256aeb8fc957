"""Time-to-verdict benchmark for fractrunc.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run it from anywhere; it works on the checkout it sits in and needs only
``src/`` and ``tests/oracles.py`` there (nothing to build).  Workloads, the
seeded item streams and each item's check are in ``decks.py``:

- ``certify``: verify-suite calls for every CLI construction, s over each
  construction's admissible range, N in {2, 3, 4}.
- ``constants``: kernel constants, root finders and exponent tables.
- ``frame-search``: loose-tolerance extremal frame searches, radial ones
  paired with their closed form.

Load is one process with one closed-loop client: the next item starts only
when the previous item and its check are done.  No threads are started.

``--trace 0`` runs a fixed number of whole passes of the stream, as many as
took ``--seconds`` reference seconds when the decks were sized
(``decks.passes``), and reports the end-to-end metrics.  All times are in
reference seconds: wall seconds scaled by the machine-speed probes of
``speed.py``, so a run takes longer in wall time while the machine is slow.
Percentiles are Harrell-Davis estimates.  ``--trace 1`` runs one pass of
the stream, each item once plain and once with every layer wrapped
(``tracing.py``), and reports per-layer counts and self times plus the
tracing overhead.  Either way ``setup_s`` and
``cli.import_s`` come from fresh interpreters that import ``fractrunc.cli``
and finish the workload's warm-up item.

Every metric is printed by name with its unit, with the failed items,
``failed_frac`` and ``error_bar_p50`` (the median over items of the error
estimates each reports: claims on certify, ``QuadResult``s on
frame-search; constants return bare floats and report none); the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
``failed`` counts items that raised, returned a verdict other than ``pass``,
missed their oracle or broke the one-sided search bound; ``correct`` is
false when an item raised.  A result file with provenance, raw wall times
and the spans of a traced run go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("certify", "constants", "frame-search")
SETUP_RUNS = 5
PROBE_EVERY_S = 0.02  # item seconds between two machine-speed probes
SETUP_PROBES = 3  # machine-speed probes after each set-up process
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
NEEDED = ("src/fractrunc/__init__.py", "tests/oracles.py")


def use_checkout() -> None:
    """Import the package from ``src/`` and the oracles from ``tests/``."""
    for sub in ("tests", "src"):
        path = os.path.join(ROOT, sub)
        if path not in sys.path:
            sys.path.insert(0, path)


@dataclass
class Record:
    name: str
    wall_s: float
    failure: Optional[str]
    error_bar: Optional[float]  # median error estimate the item reported
    raised: bool = False
    scaled_s: Optional[float] = None  # wall_s scaled to reference seconds (speed.py)


def run_item(item, runner: Optional[Callable] = None) -> Record:
    """Time one call into the package, then check its output."""
    start = time.perf_counter()
    try:
        out = runner(item) if runner else item.call()
    except Exception as exc:  # an item that raises is a failed item
        wall = time.perf_counter() - start
        return Record(item.name, wall, f"raised {type(exc).__name__}: {exc}", None, True)
    wall = time.perf_counter() - start
    outcome = item.check(out)
    bar = statistics.median(outcome.error_bars) if outcome.error_bars else None
    return Record(item.name, wall, outcome.failure, bar)


def measure_setup(workload: str, runs: int) -> dict:
    """Fresh set-up processes: wall and import times, and the wall times
    scaled by the speed probes taken between them."""
    import speed

    out: dict = {"walls_s": [], "import_s": [], "probes": [speed.probe()]}
    for _ in range(runs):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), workload],
                              cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        out["walls_s"].append(time.perf_counter() - start)
        out["import_s"].append(json.loads(done.stdout.splitlines()[-1])["import_s"])
        out["probes"] += [speed.probe() for _ in range(SETUP_PROBES)]
    scale = speed.factor(out["probes"])
    out["scaled_s"] = [w * scale for w in out["walls_s"]]
    return out


def quantile(xs: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics.  Deck items have widely spread costs, so a single order
    statistic jumps across gaps between them from one run to the next."""
    import numpy as np
    from scipy.special import betainc  # the Beta distribution function

    n = len(xs)
    weights = np.diff(betainc((n + 1) * q, (n + 1) * (1.0 - q), np.arange(n + 1) / n))
    return float(weights @ np.sort(xs))


def tail(times: list[float]) -> dict:
    """The highest percentile with TAIL_BEYOND samples beyond it (the
    maximum when there are too few samples)."""
    n = len(times)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    q = (n - beyond) / n
    return {"value": quantile(times, q) if beyond else max(times),
            "percentile": 100.0 * q, "beyond": beyond, "samples": n}


def _git_commit() -> Optional[str]:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None  # not a git checkout, or a packed ref


def provenance(workload: str, seed: int, seconds: float, trace: int, setup_runs: int) -> dict:
    import numpy
    import scipy

    import decks
    import fractrunc
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "fractrunc": fractrunc.__version__, "git_commit": _git_commit(),
            "machine": platform.machine(), "workload": workload, "seed": seed,
            "seconds": seconds, "trace": trace, "setup_runs": setup_runs,
            "pass_size": decks.pass_size(workload),
            "passes": decks.passes(workload, seconds) if not trace else 1,
            "tolerances": decks.TOLERANCES,
            "load": "one process, one closed-loop client"}


def timed_run(items: Iterable) -> tuple[list[Record], list]:
    """Run the items, probing the machine's speed before the first, after
    the last, and after each item once PROBE_EVERY_S of item time has passed
    since the last probe.  Dense probes make the run's mean probe track the
    slow phases the items met; a probe after every item would make a
    constants run, with its 720 short items, 60% longer."""
    import speed

    probes = [speed.probe()]
    records: list[Record] = []
    since = 0.0
    for item in items:
        rec = run_item(item)
        records.append(rec)
        since += rec.wall_s
        if since >= PROBE_EVERY_S:
            probes.append(speed.probe())
            since = 0.0
    probes.append(speed.probe())
    return records, probes


def traced_run(items: Iterable) -> tuple[list[Record], float, "Recorder"]:
    """Each item plain and traced, alternating which goes first."""
    from tracing import Recorder

    recorder = Recorder()
    traced = lambda item: recorder.run_item(item.name, item.call)  # noqa: E731
    records, plain_s, traced_s = [], 0.0, 0.0
    for i, item in enumerate(items):
        for with_trace in ((True, False) if i % 2 else (False, True)):
            rec = run_item(item, traced if with_trace else None)
            if with_trace:
                traced_s += rec.wall_s
                records.append(rec)
            else:
                plain_s += rec.wall_s
    return records, traced_s / plain_s - 1.0, recorder


def collect(workload: str, seed: int, seconds: float, trace: int,
            items: Optional[Iterable] = None, setup_runs: int = SETUP_RUNS) -> dict:
    """Run one workload and return the result document."""
    use_checkout()
    import speed

    with warnings.catch_warnings(), speed.one_core():
        warnings.simplefilter("ignore")  # overflow warnings the package emits by design
        return _collect(workload, seed, seconds, trace, items, setup_runs)


def _collect(workload: str, seed: int, seconds: float, trace: int,
             items: Optional[Iterable], setup_runs: int) -> dict:
    import decks
    import speed

    setup = measure_setup(workload, setup_runs)
    warm = decks.warmup_item(workload)
    warm.check(warm.call())
    doc = {"provenance": provenance(workload, seed, seconds, trace, setup_runs)}
    if trace:
        if items is None:
            items = itertools.islice(decks.deck(workload, seed), decks.pass_size(workload))
        records, overhead, recorder = traced_run(items)
        metrics = recorder.layer_metrics()
        metrics["cli.import_s"] = (statistics.median(setup["import_s"]), "s")
        metrics["trace.overhead_frac"] = (overhead, "fraction")
        os.makedirs(OUT, exist_ok=True)
        recorder.write(os.path.join(OUT, f"{workload}-seed{seed}-spans.jsonl"))
    else:
        if items is None:
            n = decks.pass_size(workload) * decks.passes(workload, seconds)
            items = itertools.islice(decks.deck(workload, seed), n)
        records, doc["probes"] = timed_run(items)
        scale = speed.factor(doc["probes"])
        for rec in records:
            rec.scaled_s = rec.wall_s * scale
        scaled = [r.scaled_s for r in records]
        doc["tail"] = tail(scaled)
        bars = [r.error_bar for r in records if r.error_bar is not None]
        doc["error_bar_p50"] = statistics.median(bars) if bars else None
        failed = sum(r.failure is not None for r in records)
        metrics = {
            "items_per_s": (len(records) / sum(scaled), "1/s"),
            "item_p50_s": (quantile(scaled, 0.5), "s"),
            "item_tail_s": (doc["tail"]["value"], "s"),
            "setup_s": (statistics.median(setup["scaled_s"]), "s"),
            "passed_frac": (1.0 - failed / len(records), "fraction"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }
    doc["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    doc["setup"] = setup
    doc["records"] = [asdict(r) for r in records]
    return doc


def summary(doc: dict) -> dict:
    records = doc["records"]
    return {"correct": not any(r["raised"] for r in records), "attempted": len(records),
            "failed": sum(r["failure"] is not None for r in records),
            "metrics": doc["metrics"]}


def report(doc: dict) -> str:
    prov = doc["provenance"]
    lines = [f"workload {prov['workload']}  seed {prov['seed']}  trace {prov['trace']}  "
             f"items {len(doc['records'])} ({prov['passes']} passes of {prov['pass_size']})"]
    for name, m in doc["metrics"].items():
        line = f"  {name:32s} {m['value']:.6g} {m['unit']}"
        if name == "item_tail_s":
            t = doc["tail"]
            line += (f"   (p{t['percentile']:.1f}, {t['beyond']} samples beyond,"
                     f" {t['samples']} samples)")
        lines.append(line)
    failed = [r for r in doc["records"] if r["failure"] is not None]
    if "error_bar_p50" in doc:
        bar = doc["error_bar_p50"]
        lines.append(f"  {'error_bar_p50':32s} "
                     + (f"{bar:.6g} abs" if bar is not None else "n/a (items report none)"))
    lines.append(f"  {'failed_frac':32s} {len(failed) / len(doc['records']):.6g} fraction")
    lines.append(f"failed items: {len(failed)} of {len(doc['records'])}")
    lines += [f"  {r['name']}: {r['failure']}" for r in failed]
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in NEEDED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: {', '.join(missing)} missing under {ROOT}; "
              "the benchmark runs on a fractrunc source checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # one client, no helper threads
    try:
        doc = collect(args.workload, args.seed, args.seconds, args.trace)
    except subprocess.SubprocessError as exc:
        print(f"perfbench: set-up probe failed: {exc}", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print(report(doc))
    print(f"result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps(summary(doc)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
