"""Self-test of the benchmark at its tiny size.

Run from the repository root (takes about a minute)::

    python3 -m pytest perfbench/tests -q

Each workload must emit every metric named in ``BENCHMARK.json`` with
its unit and a sample count, untraced and traced, and must count a
deliberately tampered answer as a failure.  Without the program's
sources the benchmark must refuse to run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "3",
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, details, result = proc.stdout.strip().splitlines()
    return json.loads(details)["details"], json.loads(result)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted(workload: str, trace: str) -> None:
    details, result = result_of(
        bench("--workload", workload, "--trace", trace, "--size", "tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], details["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    for metric in named:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        assert metric["name"] in details["samples"]
    assert set(result["metrics"]) == {metric["name"] for metric in named}
    assert details["error_rate"]["value"] == 0
    assert details["exact"], "exact-repeat counts recorded"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tampered_answer_counts_as_error(workload: str) -> None:
    details, result = result_of(
        bench("--workload", workload, "--size", "tiny", "--tamper"))
    assert result["failed"] >= 1
    assert not result["correct"]
    assert details["error_rate"]["value"] > 0


def test_refuses_without_program_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
