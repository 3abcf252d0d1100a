"""Tests for repro.profile: sampler, flame export, bench ledger, CLI.

The sampler's contract is the same as telemetry's: observe, never
participate -- a profiled run's outputs are bit-identical to an unprofiled
one.  Its mechanics are deterministic given a clock, so tests inject one.
The ledger tests drive ``repro bench --check`` through both verdicts with a
stub suite, so the pass/fail exit codes are pinned without paying for a
real benchmark run.
"""

from __future__ import annotations

import json
import sys
import textwrap

import numpy as np
import pytest

from repro.cli import main
from repro.core import COCA
from repro.profile import (
    StackSampler,
    check_rows,
    discover_benches,
    flamegraph_html,
    flatten_metrics,
    git_revision,
    load_rows,
    make_row,
    run_suite,
    write_flamegraph,
    write_folded,
)
from repro.profile.ledger import BenchResult, BenchSuite, append_row, host_stamp
from repro.sim import simulate
from repro.telemetry import JsonlTracer, Telemetry


class _SteppingClock:
    """Advances a fixed amount per reading -- every hook event samples."""

    def __init__(self, step: float) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def _busy(n: int) -> float:
    total = 0.0
    for i in range(n):
        total += _leaf(i)
    return total


def _leaf(i: int) -> float:
    return float(i) * 0.5


class TestStackSampler:
    def test_deterministic_under_injected_clock(self):
        def run():
            sampler = StackSampler(interval_ms=1.0, clock=_SteppingClock(1e-3))
            with sampler:
                _busy(50)
            return sampler.folded()

        first, second = run(), run()
        assert first == second
        assert sum(first.values()) > 0
        assert any("_leaf" in stack for stack in first)

    def test_stacks_are_root_first(self):
        sampler = StackSampler(interval_ms=1.0, clock=_SteppingClock(1e-3))
        with sampler:
            _busy(10)
        stack = next(s for s in sampler.folded() if "_leaf" in s)
        frames = stack.split(";")
        assert frames.index(f"{__name__}._busy") < frames.index(
            f"{__name__}._leaf"
        )

    def test_catchup_weights_long_calls(self):
        sampler = StackSampler(interval_ms=1.0, clock=lambda: 0.0105)
        sampler._next = 0.001  # pretend start() ran at t=0
        sampler._hook(sys._getframe(), "call", None)
        # the clock sits 9.5 periods past the deadline -> one stack with
        # weight 10, and the deadline advances past the clock
        assert sampler.total_samples == 10
        assert sampler._next == pytest.approx(0.011)

    def test_span_path_prefixes_samples(self):
        tele = Telemetry.recording()
        sampler = StackSampler(
            interval_ms=1.0, clock=lambda: 1.0, telemetry=tele
        )
        sampler._next = 0.5
        with tele.span("slot"):
            with tele.span("gsd.solve"):
                sampler._hook(sys._getframe(), "call", None)
        stack = next(iter(sampler._samples))
        assert stack[0] == "span:slot" and stack[1] == "span:gsd.solve"

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            StackSampler(interval_ms=0)
        with pytest.raises(ValueError):
            StackSampler(max_depth=0)
        sampler = StackSampler()
        sampler.start()
        try:
            with pytest.raises(RuntimeError):
                sampler.start()
        finally:
            sampler.stop()

    def test_profiled_run_bit_identical(self, week_scenario):
        def run(profiled: bool):
            controller = COCA(
                week_scenario.model,
                week_scenario.environment.portfolio,
                v_schedule=120.0,
            )
            if profiled:
                with StackSampler(interval_ms=1.0):
                    return simulate(
                        week_scenario.model,
                        controller,
                        week_scenario.environment,
                    )
            return simulate(
                week_scenario.model, controller, week_scenario.environment
            )

        plain, profiled = run(False), run(True)
        for field in ("cost", "brown_energy", "active_servers", "queue"):
            np.testing.assert_array_equal(
                getattr(plain, field), getattr(profiled, field)
            )


class TestFlame:
    FOLDED = {"a;b;c": 3, "a;b": 1, "x": 2}

    def test_write_folded_heaviest_first(self, tmp_path):
        path = tmp_path / "p.folded"
        write_folded(self.FOLDED, str(path))
        assert path.read_text() == "a;b;c 3\nx 2\na;b 1\n"

    def test_html_is_self_contained(self, tmp_path):
        html = flamegraph_html(self.FOLDED, title="t<est>")
        assert html.startswith("<!DOCTYPE html>")
        assert "t&lt;est&gt;" in html
        assert "src=" not in html and "http" not in html  # no external assets
        assert html.count('class="f"') >= 4  # a, b, c, x cells
        path = tmp_path / "p.html"
        write_flamegraph(self.FOLDED, str(path))
        assert path.read_text() == flamegraph_html(self.FOLDED)

    def test_empty_profile_renders_placeholder(self):
        assert "no samples collected" in flamegraph_html({})


def _write_stub_suite(bench_dir, *, inner_solves=100, exit_code=0):
    """A stub bench_solver_fastpath.py following the standalone-CLI
    convention (and reusing that suite's gated-counter config)."""
    bench_dir.mkdir(exist_ok=True)
    (bench_dir / "bench_solver_fastpath.py").write_text(
        textwrap.dedent(
            f"""
            import argparse, json

            def main(argv=None):
                p = argparse.ArgumentParser()
                p.add_argument("--quick", action="store_true")
                p.add_argument("--check", default=None)
                p.add_argument("-o", "--output", required=True)
                args = p.parse_args(argv)
                report = {{
                    "suites": {{"gsd": {{"inner_solves": {inner_solves}}}}},
                    "quick": args.quick,
                }}
                with open(args.output, "w") as fh:
                    json.dump(report, fh)
                return {exit_code}
            """
        )
    )


class TestLedger:
    def test_discovers_real_benchmarks(self):
        suites = discover_benches("benchmarks")
        assert suites["solver_fastpath"].runnable
        assert suites["span_overhead"].runnable
        assert not suites["fig4_gsd"].runnable

    def test_flatten_metrics(self):
        flat = flatten_metrics(
            {"a": 1, "b": {"c": 2.5, "ok": True}, "d": [3, "skip"], "e": "no"}
        )
        assert flat == {"a": 1.0, "b.c": 2.5, "b.ok": 1.0, "d.0": 3.0}

    def test_run_suite_and_row_round_trip(self, tmp_path):
        _write_stub_suite(tmp_path / "benches")
        suites = discover_benches(str(tmp_path / "benches"))
        result = run_suite(
            suites["solver_fastpath"], out_dir=str(tmp_path / "out")
        )
        assert result.exit_code == 0
        assert result.report["quick"] is True  # default args were applied
        row = make_row(result, git_rev="abc1234", timestamp="2026-01-01T00:00:00Z")
        assert row["metrics"]["suites.gsd.inner_solves"] == 100.0
        ledger = tmp_path / "trend.jsonl"
        append_row(str(ledger), row)
        append_row(str(ledger), row)
        assert load_rows(str(ledger)) == [row, row]

    def test_check_rows_verdicts(self):
        def row(inner, *, exit_code=0):
            return {
                "suite": "solver_fastpath",
                "exit_code": exit_code,
                "git_rev": "aaa",
                "timestamp": "t",
                "wall_s": 1.0,
                "metrics": {"suites.gsd.inner_solves": float(inner)},
            }

        # no prior row: seeds the trend, passes
        ok, messages = check_rows([], [row(100)])
        assert ok and any("seeding" in m for m in messages)
        # within tolerance: passes
        ok, _ = check_rows([row(100)], [row(115)])
        assert ok
        # beyond tolerance: fails and names the counter
        ok, messages = check_rows([row(100)], [row(130)])
        assert not ok
        assert any("inner_solves" in m and "regressed" in m for m in messages)
        # the suite's own contract failed: always fails
        ok, messages = check_rows([row(100)], [row(100, exit_code=1)])
        assert not ok and any("exited 1" in m for m in messages)

    def test_rows_are_host_stamped(self, tmp_path):
        stamp = host_stamp()
        assert stamp["cpus"] >= 1
        assert stamp["python"].count(".") == 1
        suite = BenchSuite(name="x", path="x.py", runnable=True)
        result = BenchResult(suite=suite, args=(), exit_code=0, wall_s=1.0, report={})
        row = make_row(result, git_rev="abc", timestamp="t")
        assert row["host"] == stamp

    def test_check_rows_refuses_unlike_hosts(self):
        def row(inner, host):
            return {
                "suite": "solver_fastpath",
                "exit_code": 0,
                "git_rev": "aaa",
                "timestamp": "t",
                "wall_s": 1.0,
                "host": host,
                "metrics": {"suites.gsd.inner_solves": float(inner)},
            }

        two = {"cpus": 2, "python": "3.12"}
        one = {"cpus": 1, "python": "3.12"}
        older = {"cpus": 2, "python": "3.10"}
        # Only unlike history: never compared, the fresh row seeds its host.
        for other in (one, older, None):
            ok, messages = check_rows([row(100, other)], [row(500, two)])
            assert ok
            assert any("like host" in m and "seeding" in m for m in messages)
        # The like-host row is the baseline even when an unlike one is newer.
        history = [row(100, two), row(1000, one)]
        ok, messages = check_rows(history, [row(130, two)])
        assert not ok
        assert any("100 -> 130" in m for m in messages)
        ok, _ = check_rows(history, [row(110, two)])
        assert ok

    def test_git_revision_is_short_string(self):
        rev = git_revision()
        assert isinstance(rev, str) and rev
        assert git_revision("/nonexistent-dir") == "unknown"


class TestBenchCLI:
    def _bench(self, tmp_path, *extra):
        return main(
            [
                "bench",
                "--bench-dir", str(tmp_path / "benches"),
                "--ledger", str(tmp_path / "trend.jsonl"),
                "--out-dir", str(tmp_path / "out"),
                *extra,
            ]
        )

    def test_check_pass_then_fail_on_regression(self, tmp_path, capsys):
        benches = tmp_path / "benches"
        _write_stub_suite(benches, inner_solves=100)
        assert self._bench(tmp_path, "--check") == 0
        assert "seeding trend" in capsys.readouterr().out
        # same counters again: passes against the seeded row
        assert self._bench(tmp_path, "--check") == 0
        assert "check passed" in capsys.readouterr().out
        # the counter regresses past 20%: exit 1
        _write_stub_suite(benches, inner_solves=200)
        assert self._bench(tmp_path, "--check") == 1
        assert "REGRESSION" in capsys.readouterr().err
        assert len(load_rows(str(tmp_path / "trend.jsonl"))) == 3

    def test_failing_suite_fails_without_check(self, tmp_path, capsys):
        _write_stub_suite(tmp_path / "benches", exit_code=1)
        assert self._bench(tmp_path) == 1
        assert "exit 1" in capsys.readouterr().out

    def test_no_append_leaves_ledger_alone(self, tmp_path, capsys):
        _write_stub_suite(tmp_path / "benches")
        assert self._bench(tmp_path, "--no-append") == 0
        assert load_rows(str(tmp_path / "trend.jsonl")) == []

    def test_unknown_suite_rejected(self, tmp_path, capsys):
        _write_stub_suite(tmp_path / "benches")
        assert self._bench(tmp_path, "nope") == 1
        assert "not a runnable suite" in capsys.readouterr().err

    def test_list_shows_runnable_state(self, tmp_path, capsys):
        _write_stub_suite(tmp_path / "benches")
        assert self._bench(tmp_path, "--list") == 0
        assert "solver_fastpath" in capsys.readouterr().out


class TestProfileCLI:
    def test_profile_writes_folded_and_flame(self, tmp_path, capsys):
        rc = main(
            [
                "profile",
                "--horizon", "24",
                "--interval-ms", "0.5",
                "--out-dir", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        folded = (tmp_path / "profile.folded").read_text()
        assert folded.strip(), "short run must still collect samples"
        # span prefixes tie the flamegraph to the span tree
        assert "span:slot" in folded
        html = (tmp_path / "profile.html").read_text()
        assert html.startswith("<!DOCTYPE html>") and 'class="f"' in html
        assert "samples over" in out and "top" in out

    def test_telemetry_spans_flag(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        tracer = JsonlTracer(str(trace))
        tele = Telemetry(tracer=tracer)
        with tele.span("slot"):
            with tele.span("gsd.solve"):
                pass
        tracer.close()
        assert main(["telemetry", str(trace), "--spans"]) == 0
        out = capsys.readouterr().out
        assert "span hotspots" in out and "gsd.solve" in out
