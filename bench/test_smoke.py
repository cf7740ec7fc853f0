"""Smoke test of the benchmark: every workload at its smallest size,
untraced and traced.  It asserts correctness and the metric names, never
a time.  Run from the root of the repository:

    python3 -m pytest bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
WORKLOADS = ("census", "large", "cli")


def bench(workload, trace):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_correctly(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = bench(workload, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    def counts():
        metrics = bench(workload, 1)["metrics"]
        return {name: m["value"] for name, m in metrics.items()
                if m["unit"] in ("count", "bytes")}
    assert counts() == counts()
