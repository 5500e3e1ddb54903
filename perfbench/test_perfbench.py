"""The benchmark's own test: two traced passes with different seeds give
identical exact counts (calls, nodes, children and the count ratios).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from tracer import layer_metrics

HERE = Path(__file__).resolve().parent


def traced_pass(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=300)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["verify-21", "trace-41", "oracles"])
def test_traced_counts_repeat_exactly(workload):
    runs = [traced_pass(workload, seed) for seed in (1, 2)]
    assert all(r["failed"] == 0 for r in runs), [r["messages"] for r in runs]
    exact = [
        {name: value for name, (value, unit) in layer_metrics(r["stats"], r["counts"]).items() if unit != "s"}
        for r in runs
    ]
    assert exact[0] == exact[1]
    busiest = "oracle.brute_force.candidates" if workload == "oracles" else "construction.nodes"
    assert exact[0][busiest] > 0
