"""Smoke tests of the end-to-end benchmark (small fleet, 48 slots).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py``.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def _run(cwd: pathlib.Path, out: pathlib.Path, *extra: str):
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--smoke", "--out", str(out), *extra],
        capture_output=True, text=True, cwd=cwd, timeout=120,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    return result


def test_timed_pass_reports_every_end_to_end_metric(tmp_path):
    result = _result(_run(HERE.parents[1], tmp_path))
    names = {m["name"] for m in SPEC["end_to_end"]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        for name in names:
            value = result["metrics"][f"{workload}.{name}"]["value"]
            assert value > 0, (workload, name)
    rows = (tmp_path / "results.jsonl").read_text().splitlines()
    assert len(rows) == len(SPEC["workloads"])
    assert json.loads(rows[0])["host"]["cpus"] >= 1


def test_traced_pass_reports_every_per_layer_metric(tmp_path):
    result = _result(_run(HERE.parents[1], tmp_path, "--workload", "serve-2week", "--trace", "1"))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["trace.coverage_frac"]["value"] >= 0.95
    assert (tmp_path / "serve-2week.spans.jsonl").stat().st_size > 0


def test_fails_without_the_program_source(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", bare)
    proc = _run(bare, tmp_path / "out", "--workload", "year-auto")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
