"""The benchmark's own tests: every workload at a tiny scale.

Run from the root of a checkout (the file is named so that the
repository's test suite does not collect it)::

    python3 -m pytest -q perfbench/smoke.py

Each case runs ``perfbench/run.py --smoke`` for a couple of seconds and
checks the output contract: the last line is the result object, every
metric of the run's section is present, finite and carries its unit,
and the output checks ran and passed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: The listed workloads plus remote_mixed, which run.py still runs by
#: name but BENCHMARK.json does not list (see README.md).
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["remote_mixed"]


def _run(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, str(RUN), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_output_contract(workload, trace, tmp_path):
    out = tmp_path / "record.json"
    proc = _run(
        "--workload", workload, "--seed", "3", "--seconds", "2",
        "--trace", str(trace), "--smoke", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name], name
        assert isinstance(metric["value"], float), name
        assert math.isfinite(metric["value"]), name
    if not trace:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name
    checks = [
        line for line in proc.stdout.splitlines()
        if line.startswith("check ")
    ]
    assert checks and all(": ok (" in line for line in checks)
    record = json.loads(out.read_text())
    assert record["host"]["nproc"] >= 1
    assert record["graphs"] and record["checks"]
    assert not (ROOT / "perfbench" / ".work").exists()


def test_diff_compares_records(tmp_path):
    records = []
    for seed in ("4", "5"):
        path = tmp_path / f"r{seed}.json"
        proc = _run(
            "--workload", "paper_inproc", "--seed", seed, "--seconds", "1",
            "--smoke", "--out", str(path),
        )
        assert proc.returncode == 0, proc.stderr[-4000:]
        records.append(str(path))
    proc = _run("--diff", *records)
    assert proc.returncode == 0, proc.stderr
    for metric in SPEC["end_to_end"]:
        assert metric["name"] in proc.stdout


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark: exit non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path,
            ignore=shutil.ignore_patterns(".work", "__pycache__"),
        )
    proc = subprocess.run(
        [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
