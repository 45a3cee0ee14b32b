"""Seconds-long checks of the benchmark itself, on the ring scenario.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src on the path first)

RING = workloads.Window("ring-smoke", ["--kind", "ring"], steps=50, pass_s=0.1)


def _measure(tmp_path: Path, trace: bool) -> dict:
    bench = workloads.Bench(ROOT, tmp_path, seed=0)
    return workloads.measure(RING, bench, seconds=0.5, trace=trace)


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(tmp_path, trace, kind):
    result = _measure(tmp_path, trace)["result"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared(kind)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_declared_workloads_exist():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_forced_check_failure_counts_in_failed_ops(tmp_path, monkeypatch):
    import physanet.analysis

    real = physanet.analysis.certificate

    def dual_above_primal(*args, **kwargs):
        cert = real(*args, **kwargs)
        return dataclasses.replace(cert, dual=2.0 * cert.primal)

    monkeypatch.setattr(physanet.analysis, "certificate", dual_above_primal)
    outcome = _measure(tmp_path, trace=False)
    result = outcome["result"]
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert outcome["details"]["failed_ops"] == 1.0
    assert all("weak duality" in " ".join(op["failures"])
               for op in outcome["details"]["ops"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "bowtie-sweep", "--seed", "0", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
