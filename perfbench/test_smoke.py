"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs for about a second, untraced and traced. The test
checks that every metric BENCHMARK.json names is reported with its unit,
that every verdict is right, and that in the traced run the layer self
times plus the wrappers' bookkeeping account for the pass wall time.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _check_result(result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec_metrics]
    for m in spec_metrics:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    rows, result = _run(workload, 0)
    _check_result(result, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0
        assert f" {m['name']}=" in rows[-1]
    assert "wrong_verdicts=0 count" in rows[-1]
    assert "failed_frac=0 ratio" in rows[-1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_accounts_for_its_wall_time(workload):
    _, result = _run(workload, 1)
    _check_result(result, SPEC["per_layer"])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # nesting is right only if no layer's self time comes out negative
    assert all(v >= -1e-6 for k, v in values.items() if k.endswith(".self_s"))
    assert sum(v for k, v in values.items() if k.endswith(".self_s")) > 0
    # what no span covers is the benchmark's own loop around the requests
    assert 0 <= values["trace.unattributed_frac"] < 0.05
    assert 0 < values["trace.wrapper_frac"] < 1
    assert values["trace.spans"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
