"""The benchmark's own tests, at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run as bench_run
from perfbench import tracing, workloads
from repro.experiments import parallel
from repro.sim.engine import Engine

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "anchor-ssf-edf": ["--n-jobs", "40"],
    "anchor-fa-faults": ["--n-jobs", "40"],
    "sweep-mtbf": ["--n-jobs", "4", "--reps", "1"],
}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), *TINY[workload]]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_prints_every_named_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_corrupted_anchor_output_counts_as_failed(monkeypatch):
    workload = workloads.AnchorWorkload("anchor-ssf-edf", "ssf-edf", False, seed=3,
                                        n_jobs=40)
    workload.setup()
    real = workloads.anchor_fingerprint
    corrupted = []

    def corrupt_first(result):
        fingerprint = real(result)
        if not corrupted:
            corrupted.append(fingerprint)
            fingerprint["max_stretch"] += 1e-9
        return fingerprint

    monkeypatch.setattr(workloads, "anchor_fingerprint", corrupt_first)
    passes = [[call() for call in workload.calls()]]
    monkeypatch.setattr(workloads, "anchor_fingerprint", real)
    assert workload.count_failed(passes, workload.expected()) == 1


def test_corrupted_sweep_cell_counts_as_failed(monkeypatch, tmp_path):
    workload = workloads.SweepWorkload("sweep-mtbf", seed=3, out_dir=str(tmp_path),
                                       n_jobs=4, reps=1)
    workload.setup()
    real = parallel.unpack_rows
    corrupted = []

    def corrupt_first_cell(blob):
        rows = real(blob)
        if not corrupted:
            corrupted.append(rows[0])
            rows[0] = dataclasses.replace(rows[0], max_stretch=2 * rows[0].max_stretch)
        return rows

    monkeypatch.setattr(parallel, "unpack_rows", corrupt_first_cell)
    passes = [[call() for call in workload.calls()]]
    monkeypatch.setattr(parallel, "unpack_rows", real)
    assert workload.count_failed(passes, workload.expected()) == 1


def test_traced_and_untraced_fingerprints_agree():
    workload = workloads.AnchorWorkload("anchor-fa-faults", "ssf-edf-fa", True, seed=3,
                                        n_jobs=40)
    workload.setup()
    untraced = [call() for call in workload.calls()]
    metrics, _, outputs, _, checks = bench_run.traced_anchor(tracing, workload, untraced)
    assert all(checks.values()), checks
    assert outputs == [untraced, untraced]
    assert metrics["scheduler.decisions"] > 0 and metrics["ledger.calls"] > 0
    assert metrics["hooks.calls"] == 0
    assert not hasattr(Engine.run, "__wrapped__")  # the wrappers are gone again


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "anchor-ssf-edf", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_plan_names_every_per_layer_metric():
    plan = json.loads((ROOT / "perfbench" / "plan.json").read_text())
    planned = sorted(m for layer in plan["layers"] for m in layer["metrics"])
    assert planned == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert set(plan["workloads"]) == {w["name"] for w in BENCHMARK["workloads"]}
