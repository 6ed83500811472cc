"""Smoke test of the benchmark at tiny sizes (a few seconds per workload).

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
LAYERS = ("rational", "words", "psi", "simplex", "lipschitz_lp",
          "mixing", "martingale", "montecarlo", "problemfile", "cli")
SEED = 3


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCH[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    metrics = _result(_run(workload, 0))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


def test_traced_runs_emit_every_layer_metric_and_span():
    seen = set()
    for workload in WORKLOADS:
        metrics = _result(_run(workload, 1))["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == _units("per_layer")
        spans = json.loads((ROOT / ".perfbench_out" / f"spans-{workload}-{SEED}.json").read_text())
        seen.update(span[0].split(".")[0] for span in spans["spans"])
    assert seen == set(LAYERS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("lp_verify", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
