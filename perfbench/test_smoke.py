"""Smoke test of the benchmark itself, at tiny input sizes (about a minute):

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int, *extra: str):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_reports_every_declared_metric(workload, trace):
    out = bench(ROOT, workload, trace, "--tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        totals = json.loads(next(ln for ln in lines if ln.startswith("iterations: "))
                            .split(": ", 1)[1])["totals"]
        assert values["acceleration.iterations"] == sum(totals.values())
        assert values["geometry.project_calls"] >= values["operators.apply_calls"] > 0
    else:
        assert all(v > 0 for v in values.values())
    assert not (ROOT / ".bench_work").exists()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(tmp_path, "angle-sweep", 0)
    assert out.returncode != 0
    assert out.stdout == ""
