"""Smoke tests of the benchmark itself: every workload on tiny inputs.

Run from the repository root with ``python -m pytest perfbench`` (the
``pytest.ini`` here collects ``check_*.py``, so the repository's own
test run does not pick these up).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run(workload: str, seed: "int | None", trace: int, cwd: Path = ROOT):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    if seed is not None:
        command += ["--seed", str(seed)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    assert record_line.startswith("perfbench-record ")
    return json.loads(result_line), json.loads(record_line.split(" ", 1)[1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    result, record = parse(run(workload, 3, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
        if not trace:
            assert metric["value"] > 0
    for key in ("nproc", "kernel", "python", "git_rev", "seed", "input_fingerprint"):
        assert key in record
    assert record["seed"] == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_gives_one_input_fingerprint(workload):
    _, first = parse(run(workload, 5, 0))
    _, again = parse(run(workload, 5, 0))
    _, other = parse(run(workload, 6, 0))
    assert first["input_fingerprint"] == again["input_fingerprint"]
    assert other["input_fingerprint"] != first["input_fingerprint"]


def test_default_seed_matches_the_pinned_csv():
    result, record = parse(run("detect-small", None, 0))
    assert result["correct"] is True and record["problems"] == []


def test_layer_spans_cover_the_traced_detect():
    result, _ = parse(run("detect-small", 3, 1))
    assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("detect-small", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
