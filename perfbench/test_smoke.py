"""Smoke test of the benchmark: a miniature of every workload, both modes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each run prints its result line last, passes its own
correctness checks, and reports exactly the metrics that BENCHMARK.json
names, each with its unit, both in the result line and in the readable
report above it.  A copy of the benchmark without the package must fail
without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# every workload run.py defines; BENCHMARK.json names a subset of them
WORKLOADS = ["square", "redundant", "wide"]


def _run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_miniature_reports_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    report = lines[:-1]
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
            for line in report
        ), metric["name"]
    if not trace:
        for metric in SPEC["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]
    assert any(line.startswith("machine: nproc") for line in report)
    assert any(line.startswith("output digest") for line in report)


def test_benchmark_names_defined_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
