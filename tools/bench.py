"""Record one benchmark run per workload into a JSON file.

    python3 tools/bench.py OUT.json

For each workload of ``perfbench/run.py`` it clears every ``__pycache__``
under ``src/``, then runs ``perfbench/run.py --workload W --seed 4321
--trace 0`` in a fresh interpreter with ``PYTHONDONTWRITEBYTECODE=1``, so
every run compiles the package from source as a first run would.  Each run
gets the ``--seconds`` that makes 10 passes of its deck.  The file holds
each workload's end-to-end metrics, passes and items, and the provenance of
the run: commit (and whether tracked files differ from it), Python, numpy
and the CPU model.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 4321
# reference seconds that make 10 passes of each deck (perfbench/decks.py's PASS_REF_S)
SECONDS = {"certify": 143, "constants": 15, "frame-search": 63}


def clear_bytecode() -> None:
    for top, dirs, _ in os.walk(os.path.join(ROOT, "src")):
        if "__pycache__" in dirs:
            shutil.rmtree(os.path.join(top, "__pycache__"))
            dirs.remove("__pycache__")


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run(workload: str) -> dict:
    """One harness run of ``workload``: its metrics, passes and items."""
    clear_bytecode()
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", str(SECONDS[workload]), "--trace", "0"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    result = os.path.join(ROOT, "perfbench", "out", f"{workload}-seed{SEED}-trace0.json")
    with open(result, encoding="utf-8") as fh:
        prov = json.load(fh)["provenance"]
    return {"seconds": SECONDS[workload], "passes": prov["passes"], "pass_size": prov["pass_size"],
            "attempted": summary["attempted"], "failed": summary["failed"],
            "metrics": {name: m["value"] for name, m in summary["metrics"].items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", metavar="OUT.json")
    args = parser.parse_args(argv)
    import numpy

    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True).stdout

    # dirty: tracked files differ from the commit, so the numbers are not the commit's alone
    doc = {"provenance": {"commit": git("rev-parse", "HEAD").strip() or None,
                          "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
                          "python": platform.python_version(),
                          "numpy": numpy.__version__, "cpu": cpu_model(),
                          "nproc": os.cpu_count(), "seed": SEED},
           "workloads": {w: run(w) for w in SECONDS}}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
