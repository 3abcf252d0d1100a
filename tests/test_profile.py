"""Tests for repro.profile: sampler, flame export, ``repro profile``.

The sampler's contract is the same as telemetry's: observe, never
participate -- a profiled run's outputs are bit-identical to an unprofiled
one.  Its mechanics are deterministic given a clock, so tests inject one.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.cli import main
from repro.core import COCA
from repro.profile import StackSampler, flamegraph_html, write_flamegraph, write_folded
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
