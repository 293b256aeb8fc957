"""The benchmark's own checks, each on a tiny deck."""

import itertools
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


@pytest.fixture(scope="module")
def bench():
    """The benchmark's modules, importable only while this module's tests run."""
    with pytest.MonkeyPatch.context() as mp:
        for path in (os.path.join(ROOT, "tests"), os.path.join(ROOT, "src"), HERE):
            mp.syspath_prepend(path)
        import decks
        import oracles
        import run
        from fractrunc import constants
        yield SimpleNamespace(run=run, decks=decks, oracles=oracles, constants=constants)


def tiny(decks, workload):
    """A few of the cheapest items from the first pass of the stream."""
    first = list(itertools.islice(decks.deck(workload, 3), decks.pass_size(workload)))
    if workload == "certify":
        cheap = [i for i in first if i.name.startswith("avoidance")]
        return cheap + [i for i in first if i.name.startswith("singular ik_minus")][:2]
    if workload == "constants":
        return first[:8]
    return first[:1]


def _no_probe(run, monkeypatch):
    monkeypatch.setattr(run, "measure_setup", lambda workload, runs: {
        "walls_s": [1.0], "import_s": [0.5], "scaled_s": [1.0]})


def _units(doc):
    return {name: m["unit"] for name, m in doc["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_has_its_unit(bench, workload):
    doc = bench.run.collect(workload, 3, 0.0, 0, items=tiny(bench.decks, workload),
                            setup_runs=1)
    assert _units(doc) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in doc["metrics"].values())
    out = bench.run.summary(doc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_repeat_for_a_seed(bench, workload, monkeypatch):
    _no_probe(bench.run, monkeypatch)
    first, second = (bench.run.collect(workload, 3, 0.0, 1, items=tiny(bench.decks, workload))
                     for _ in range(2))
    assert _units(first) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    counts = [name for name, unit in _units(first).items()
              if unit == "count" or name == "constants.distinct_ratio"]
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_wrong_oracle_counts_as_failed(bench, monkeypatch):
    _no_probe(bench.run, monkeypatch)
    decks, cn = bench.decks, bench.constants
    gam, s = 0.5, 0.3
    truth = bench.oracles.hat_c_dec_oracle(gam, s)
    items = [decks.constant_item("hat_c_dec", cn.hat_c_dec, (gam, s), decks.check_close(o))
             for o in (truth + 1e-3, truth)]
    out = bench.run.summary(bench.run.collect("constants", 3, 60.0, 0, items=items))
    assert (out["attempted"], out["failed"]) == (2, 1)
    assert out["correct"]


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
