"""Self-test of the benchmark: each workload once at toy size, both modes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""
import functools
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
with open(os.path.join(HERE, "layers.json")) as _fh:
    LAYERS = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "toy"],
        capture_output=True, text=True, cwd=root, timeout=170)


@functools.lru_cache(maxsize=None)
def toy_run(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    with open(os.path.join(ROOT, ".perfbench", "out",
                           f"{workload}-seed3-trace{trace}.json")) as fh:
        record = json.load(fh)
    return lines, json.loads(lines[-1]), record


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    lines, result, record = toy_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert f"# error_rate = 0.0 (0/{result['attempted']})" in lines
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in named]
    for m in named:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
    assert all(lib["threads"] == 1 for lib in record["env"]["openblas"])


def test_every_layer_metric_is_measured_on_some_workload():
    measured = set()
    for workload in WORKLOADS:
        measured |= set(toy_run(workload, 1)[2]["measured"])
    missing = [m["name"] for m in SPEC["per_layer"]
               if m["name"] not in measured]
    assert not missing


def test_layer_map_lists_each_per_layer_metric_once():
    listed = [name for layer in LAYERS["layers"].values()
              for name in layer["metrics"]]
    assert sorted(listed) == sorted(m["name"] for m in SPEC["per_layer"])
    assert len(listed) == len(set(listed))
    gated = {name for name, f in LAYERS["figures"].items() if f["gated"]}
    assert gated == {m["name"] for m in SPEC["end_to_end"]}


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("wide", 0, root=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
