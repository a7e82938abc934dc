"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def test_benchmark_json_matches_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    doc = run.measure(name, workloads.DEFAULT_SEED, 0.2, bool(trace), size="tiny")
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in doc["metrics"].values())
    assert doc["failed"] == 0, doc["problems"]
    assert doc["attempted"] > 0


def test_wrong_golden_raises_the_error_rate():
    goldens = copy.deepcopy(workloads.load_goldens())
    tiny = goldens["checksums"]["dag-text"]["tiny"]
    tiny["posting"] = "%016x" % (int(tiny["posting"], 16) ^ 1)
    doc = run.measure("dag-text", workloads.DEFAULT_SEED, 0.2, False, size="tiny",
                      goldens=goldens)
    assert doc["failed"] / doc["attempted"] > 0
    assert any("golden" in p for p in doc["problems"])


def test_command_prints_one_json_result_line():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dag-numeric",
                           "--seed", "3", "--seconds", "0.5", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "dag-text",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
