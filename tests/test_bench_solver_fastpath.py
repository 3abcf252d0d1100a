"""Tests for the ``--check`` gate of ``benchmarks/bench_solver_fastpath.py``.

``measure`` is patched to return a canned report (the committed full-run
reference, or an edited copy of it), so no GSD or coordinate-descent chain
runs here; only the script's gate and its file handling are exercised.
"""

import copy
import importlib.util
import json
import pathlib

import pytest

BENCH = pathlib.Path(__file__).parents[1] / "benchmarks" / "bench_solver_fastpath.py"
REFERENCE = BENCH.parent / "results" / "BENCH_solver_fastpath.json"


@pytest.fixture
def bench():
    spec = importlib.util.spec_from_file_location("bench_solver_fastpath", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _run(bench, monkeypatch, report: dict, ref_path, out_path) -> int:
    monkeypatch.setattr(bench, "measure", lambda *, repeats: copy.deepcopy(report))
    return bench.main(["--quick", "--check", str(ref_path), "-o", str(out_path)])


def test_reference_read_before_report_written(bench, monkeypatch, reference, tmp_path):
    # A reference the canned report regresses against, checked by a run
    # whose -o is that same file: the gate must see the reference's numbers,
    # not the report that run just wrote over them.
    tight = copy.deepcopy(reference)
    tight["cases"]["gsd_200g_500it"]["shipped"]["inner_solves"] = 100
    ref_path = tmp_path / "BENCH_solver_fastpath.json"
    ref_path.write_text(json.dumps(tight))
    assert _run(bench, monkeypatch, reference, ref_path, tmp_path / "out.json") == 1
    assert _run(bench, monkeypatch, reference, ref_path, ref_path) == 1
    assert json.loads(ref_path.read_text()) == reference


def test_committed_reference_passes_its_own_gate(bench, monkeypatch, reference, tmp_path):
    assert _run(bench, monkeypatch, reference, REFERENCE, tmp_path / "out.json") == 0


@pytest.mark.parametrize(
    "case, mode, counter",
    [
        ("cd_hetero", "shipped", "evaluations"),
        ("gsd_200g_500it", "shipped", "evaluations"),
        ("gsd_200g_500it", "cold", "cold_solves"),
    ],
)
def test_counter_regression_fails(bench, monkeypatch, reference, tmp_path, case, mode, counter):
    report = copy.deepcopy(reference)
    entry = report["cases"][case][mode]
    entry[counter] = int(round(entry[counter] * 1.25))
    assert _run(bench, monkeypatch, report, REFERENCE, tmp_path / "out.json") == 1
    failures = bench.check_against(report, reference)
    assert failures == [
        f"{case}/{mode}: {counter} {entry[counter]} vs reference "
        f"{reference['cases'][case][mode][counter]} (tolerance 20%)"
    ]
