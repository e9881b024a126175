"""Schema of the committed benchmark records, ``BENCH_<workload>.json``
and ``BENCH_tier1.json``.

Each workload file holds the paired perfbench runs of the changes that
measured the workload (``records``) and the earlier ``sweep_s`` figures
quoted in CHANGES.md (``trajectory``).  A record names the commit
measured, its parent, the host, and for every end-to-end metric
BENCHMARK.json declares, with that metric's unit, both sides' median and
quartiles and the number of pairs the change won.  A Tier-1 record holds
one suite run of the change and one of its parent on one host: the test
counts, pytest's session time and the 15 slowest test phases.
"""

import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
END_TO_END = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
TIER1 = ROOT / "BENCH_tier1.json"
RECORDS = sorted(p for p in ROOT.glob("BENCH_*.json") if p != TIER1)
SHA = re.compile(r"[0-9a-f]{40}")


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def test_square_and_wide_are_recorded():
    assert {"BENCH_square.json", "BENCH_wide.json"} <= {p.name for p in RECORDS}


@pytest.mark.parametrize("path", RECORDS, ids=[p.stem for p in RECORDS])
def test_bench_record_schema(path):
    bench = json.loads(path.read_text())
    assert bench["workload"] == path.stem[len("BENCH_"):]
    assert isinstance(bench["about"], str) and bench["records"]
    for record in bench["records"]:
        assert record["source"] == "perfbench"
        assert SHA.fullmatch(record["commit"]) and SHA.fullmatch(record["parent"])
        assert re.fullmatch(r"\d{4}-\d{2}-\d{2}", record["date"])
        host = record["host"]
        assert isinstance(host["cpu"], str) and isinstance(host["blas"], str)
        assert isinstance(host["nproc"], int) and host["nproc"] >= 1
        assert record["command"].startswith("python3 perfbench/run.py --workload " + bench["workload"])
        pairs = record["pairs"]
        assert isinstance(pairs, int) and pairs >= 1
        assert set(record["metrics"]) == set(END_TO_END)
        for name, metric in record["metrics"].items():
            assert metric["unit"] == END_TO_END[name]["unit"], name
            for side in ("parent", "change"):
                q = metric[side]
                assert all(_number(q[k]) for k in ("q1", "median", "q3", "iqr")), (name, side)
                assert q["q1"] <= q["median"] <= q["q3"]
                assert q["iqr"] == pytest.approx(q["q3"] - q["q1"], rel=1e-4, abs=1e-12)
            assert isinstance(metric["change_better"], int) and 0 <= metric["change_better"] <= pairs
    for step in bench["trajectory"]:
        assert step["source"] == "CHANGES.md"
        assert step["metric"] in END_TO_END
        assert _number(step["before"]) and _number(step["after"])
        assert step["before"] > 0 and step["after"] > 0


def test_tier1_record_schema():
    bench = json.loads(TIER1.read_text())
    assert bench["suite"] == "tier1" and isinstance(bench["about"], str) and bench["records"]
    assert "pytest" in bench["command"] and "--durations=15" in bench["command"]
    for record in bench["records"]:
        assert record["source"] == "pytest"
        assert SHA.fullmatch(record["commit"]) and SHA.fullmatch(record["parent"])
        assert re.fullmatch(r"\d{4}-\d{2}-\d{2}", record["date"])
        host = record["host"]
        assert isinstance(host["cpu"], str) and isinstance(host["nproc"], int) and host["nproc"] >= 1
        for side in ("parent_run", "change_run"):
            run = record[side]
            assert isinstance(run["passed"], int) and run["passed"] >= 1, side
            assert isinstance(run["failed"], int) and run["failed"] >= 0, side
            assert _number(run["total_s"]) and run["total_s"] > 0, side
            slowest = run["slowest"]
            assert len(slowest) == 15, side
            seconds = [phase["seconds"] for phase in slowest]
            assert all(_number(x) and 0 <= x <= run["total_s"] for x in seconds), side
            assert seconds == sorted(seconds, reverse=True), side
            for phase in slowest:
                assert phase["test"].startswith("tests/") and "::" in phase["test"], side
                assert phase["phase"] in ("setup", "call", "teardown"), side
