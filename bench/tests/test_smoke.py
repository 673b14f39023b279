"""Smoke test of the benchmark itself: every workload at one round of
inputs (``--smoke``), untraced and traced.  These runs check the plumbing;
their numbers are not measurements.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# counts the traced run must repeat exactly for one seed
REPEATED_COUNTS = ("scheduling.drop_walk.calls", "curves.crossing_time.calls",
                   "traffic.leftover_arrivals.packets", "simulate.slots")


def bench(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    command = [sys.executable, *SPEC["command"][1:]]
    return subprocess.run(
        [*command, "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: result_of(bench(ROOT, w, 1, "--smoke")) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_emitted_with_their_units(workload):
    result = result_of(bench(ROOT, workload, 0, "--smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_are_emitted_with_their_units(workload, traced):
    result = traced[workload]
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_traced_counts_repeat_exactly(traced):
    for workload in WORKLOADS:
        again = result_of(bench(ROOT, workload, 1, "--smoke"))["metrics"]
        for name in REPEATED_COUNTS:
            assert again[name]["value"] == traced[workload]["metrics"][name]["value"], (workload, name)


def test_each_layer_is_exercised_where_the_benchmark_says(traced):
    def value(workload, name):
        return traced[workload]["metrics"][name]["value"]

    assert value("sweep-tib", "scheduling.drop_walk.calls") > 0
    assert value("sweep-tib", "simulate.run.calls") == 0
    assert value("compare-offgrid", "simulate.run.calls") > 0
    assert value("compare-offgrid", "scheduling.drop_walk_slotted.calls") > 0
    assert value("simulate-heavy", "traffic.leftover_arrivals.packets") > 100_000
    assert value("simulate-heavy", "scheduling.drop_walk.calls") == 0
    assert value("bound-rigorous", "curves.crossing_time.calls") > 10_000
    assert value("bound-rigorous", "cli.main.self_s") == 0


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
