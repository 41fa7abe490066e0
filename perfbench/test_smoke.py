"""Smoke test: every workload at tiny size (n=3, a 16-element covering),
untraced and traced, emits every metric BENCHMARK.json names, with its
unit, and checks its outputs.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    detail, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    for key in ("python", "nproc", "git_sha", "seed", "inputs"):
        assert key in detail
    if trace:
        assert detail["counts_repeat"]
        assert result["metrics"]["cli.run.calls"]["value"] > 0
    else:
        assert all(s["n"] >= 1 for s in detail["samples"].values())


def test_inputs_repeat_for_a_seed():
    first, _ = run("large-reducible", 0)
    second, _ = run("large-reducible", 0)
    assert first["inputs"] == second["inputs"]
    assert first["inputs"]["files"][0]["reducible"] == 4
