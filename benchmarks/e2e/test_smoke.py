"""Smoke pass of the end-to-end benchmark (outside tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Each workload runs once at ``--budget smoke`` (small sizes, 3
repetitions, a seed other than the default) in its own interpreter, the
way the benchmark contract runs it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
SERIAL = [entry["name"] for entry in CONTRACT["workloads"]]
# serve_sharded is runnable by hand and kept working, off the contract.
WORKLOADS = SERIAL + ["serve_sharded"]


def run(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def names(family):
    return {metric["name"] for metric in CONTRACT[family]}


@pytest.fixture(scope="module", params=WORKLOADS)
def traced(request):
    done = run("--workload", request.param, "--budget", "smoke", "--seed", "7", "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads((HERE / "out" / f"{request.param}.result.json").read_text())
    return request.param, done.stdout.strip().splitlines(), result


def test_last_line_is_the_contract_object(traced):
    _, lines, _ = traced
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == names("per_layer")
    units = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    for name, metric in last["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert metric["unit"] == units[name]


def test_end_to_end_metrics_present_and_positive(traced):
    _, _, result = traced
    assert set(result["end_to_end"]) == names("end_to_end")
    for name, value in result["end_to_end"].items():
        assert math.isfinite(value) and value > 0, name
    assert result["failed_frac"] == 0 and not result["failures"]


def test_layer_self_times_sum_to_the_traced_wall(traced):
    _, _, result = traced
    covered = sum(row[3] for row in result["layer_table"])
    assert covered == pytest.approx(result["traced_wall_s"], rel=0.02)
    assert math.isfinite(result["per_layer"]["trace.overhead_frac"])


def test_sharding_counters_are_zero_on_serial_workloads(traced):
    workload, lines, result = traced
    metrics = json.loads(lines[-1])["metrics"]
    sharding = {n: m["value"] for n, m in metrics.items()
                if n.startswith(("stateship.", "backend."))}
    if workload in SERIAL:
        assert not any(sharding.values()), sharding
    else:
        assert sharding["backend.pools_created"] == 1
        assert sharding["stateship.blob_ships"] > 0
        assert sharding["backend.worker_cpu_s"] > 0


def test_why_matches_the_contract(traced):
    workload, lines, _ = traced
    if workload not in SERIAL:
        pytest.skip("off the contract")
    why = next(e["why"] for e in CONTRACT["workloads"] if e["name"] == workload)
    assert lines[0] == f"# {workload}: {why}"


def test_untraced_run_prints_the_end_to_end_family():
    done = run("--workload", "engine_ycsb", "--budget", "smoke", "--seed", "7", "--trace", "0")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert set(last["metrics"]) == names("end_to_end")


def test_no_result_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files the command must fail and print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run("--workload", "engine_ycsb", "--budget", "smoke", cwd=tmp_path,
               script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert done.returncode != 0
    assert done.stdout == ""
