"""Smoke tests for the benchmark itself, at tiny inputs.

    python3 -m pytest bench/test_bench.py -q

They check that every metric is printed by name with its unit, that no op
fails, that one seed gives one answer digest, and that the benchmark refuses
to run without the dmlab sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("dyadic_scan", "tree_brackets", "certify_cli")


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bench(workload: str, seed: int, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def result(done: subprocess.CompletedProcess) -> tuple[dict, list[str]]:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def check_metrics(out: dict, declared: list[dict]) -> None:
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1 and out["failed"] == 0
    assert {name: m["unit"] for name, m in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_digest(workload):
    first, first_lines = result(bench(workload, 5, 0))
    check_metrics(first, spec()["end_to_end"])
    assert first["metrics"]["ok_frac"]["value"] == 1.0
    assert any(line.endswith("failed_frac 0.0") for line in first_lines)
    again, again_lines = result(bench(workload, 5, 0))
    digest = [line for line in first_lines if line.startswith("digest cycle=0 ")]
    assert digest and digest == [line for line in again_lines if line.startswith("digest cycle=0 ")]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    out, _ = result(bench(workload, 5, 1))
    check_metrics(out, spec()["per_layer"])
    assert out["metrics"]["cli.main.calls"]["value"] > 0 or workload == "tree_brackets"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = bench("certify_cli", 5, 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
