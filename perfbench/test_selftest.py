"""Fast self-test of the benchmark at tiny input sizes.

    python3 -m pytest -q perfbench/test_selftest.py

Runs every workload once timed and once traced with ``--size tiny`` and
checks the result lines against BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3
# shares that a tiny input can legitimately leave at zero
MAY_BE_ZERO = ("assignment.resolves_per_solve", "assignment.hungarian.empty_share")


def _run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _record(workload, trace):
    path = HERE / "_work" / "records" / f"{workload}-seed{SEED}-trace{trace}-tiny.json"
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_emits_every_end_to_end_metric(results, workload):
    result = results[workload, 0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units(SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(results, workload):
    # every workload runs every stage, so every layer is exercised in each
    result = results[workload, 1]
    assert result["correct"] and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units(SPEC["per_layer"])
    unexercised = [k for k, m in result["metrics"].items()
                   if m["value"] <= 0 and not k.startswith("overhead.") and k not in MAY_BE_ZERO]
    assert unexercised == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_outputs_unchanged(results, workload):
    assert _record(workload, 0)["digests"] == _record(workload, 1)["digests"]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
