"""Smoke test of the benchmark: all workloads at tiny sizes, in both modes.

Run from the root of the repository with

    python3 -m pytest perfbench/test_smoke.py

It checks that every operation passes its checks and that each run
prints every metric that BENCHMARK.json declares, with that unit.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_all(trace: int) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(trace, section):
    results = run_all(trace)
    assert len(results) == len(SPEC["workloads"])
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == declared
        for m in result["metrics"].values():
            assert isinstance(m["value"], (int, float))
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())
