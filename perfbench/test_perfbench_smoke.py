"""Smoke test of the benchmark command at tiny size.

Runs ``perfbench/run.py --size tiny`` for every workload in both modes
and checks the result line against ``BENCHMARK.json``: exactly the
contract's keys, every check passing, and every metric present with its
unit. Also checks that the command refuses to report without the
program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).with_name("run.py")
ROOT = RUN.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload: str, trace: int) -> None:
    done = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1",
        "--trace", str(trace), "--size", "tiny",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])
        if not trace:
            assert reported["value"] > 0, metric["name"]


def test_refuses_without_program_sources(tmp_path: Path) -> None:
    shutil.copytree(
        RUN.parent, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(
        tmp_path, "--workload", "kernel-zipf", "--seed", "1", "--seconds", "1",
        "--trace", "0",
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
