"""Tests for hierarchical spans, the span CLI, /metrics.

The load-bearing guarantees of the PR-7 observability layer:

- spans observe, never participate: a span-instrumented run is bit-identical
  to an uninstrumented one;
- the tree adds up: a span's buckets and child spans fit inside it, and a
  traced run renders ``slot -> solver span -> bucket`` through
  ``repro telemetry --spans``;
- span events survive the process-pool sweep merge with resolvable parent
  links and a deterministic structure;
- the GSD hot loop's named child buckets account for >=90% of solver wall
  time (profiles must be actionable, not "misc");
- the Prometheus exposition is stable text, golden-pinned.
"""

from __future__ import annotations

import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.analysis import sweep_constant_v
from repro.cli import main
from repro.core import COCA
from repro.scenarios import paper_scenario
from repro.serve import StatusBoard, StatusServer
from repro.sim import simulate
from repro.solvers import GSDSolver
from repro.telemetry import (
    NULL_SPAN,
    MetricsRegistry,
    Telemetry,
    load_trace,
    render_prometheus,
    render_trace_summary,
    span_hotspots,
)


def _span_events(telemetry):
    return [e for e in telemetry.tracer.events if e["kind"] == "span"]


class TestSpanAPI:
    def test_nested_spans_link_parents(self):
        tele = Telemetry.recording()
        with tele.span("outer") as outer:
            with tele.span("inner"):
                pass
        events = _span_events(tele)
        assert [e["name"] for e in events] == ["inner", "outer"]
        inner, outer_ev = events
        assert inner["parent_id"] == outer_ev["span_id"]
        assert inner["depth"] == 1 and outer_ev["depth"] == 0
        assert outer_ev["parent_id"] is None
        assert outer.elapsed >= inner["elapsed_s"]

    def test_exclusive_subtracts_children(self):
        tele = Telemetry.recording()
        with tele.span("outer"):
            with tele.span("child"):
                pass
        outer_ev = _span_events(tele)[-1]
        child_ev = _span_events(tele)[0]
        assert outer_ev["exclusive_s"] == pytest.approx(
            outer_ev["elapsed_s"] - child_ev["elapsed_s"]
        )

    def test_add_buckets_ride_the_parent_event(self):
        tele = Telemetry.recording()
        with tele.span("solve") as sp:
            for _ in range(100):
                sp.add("bisect", 0.001)
            sp.add("screen", 0.002, count=3)
        (event,) = _span_events(tele)  # one event, not one per bucket
        assert event["name"] == "solve"
        children = event["children"]
        assert children["bisect"][0] == 100
        assert children["bisect"][1] == pytest.approx(0.1)
        assert children["screen"][0] == 3
        # bucket time is attributed to the parent's children (clamped at 0:
        # the fabricated 102 ms here dwarfs the real elapsed time)
        assert event["exclusive_s"] == pytest.approx(
            max(event["elapsed_s"] - 0.102, 0.0)
        )

    def test_disabled_telemetry_returns_null_span(self):
        tele = Telemetry()  # no tracer -> spans short-circuit
        sp = tele.span("anything")
        assert sp is NULL_SPAN and not sp
        with sp as inner:
            inner.add("ignored", 1.0)

    def test_exception_unwinds_the_stack(self):
        tele = Telemetry.recording()
        with pytest.raises(RuntimeError):
            with tele.span("outer"):
                with tele.span("inner"):
                    raise RuntimeError("boom")
        assert not tele.spans.active
        assert [e["name"] for e in _span_events(tele)] == ["inner", "outer"]

    def test_timer_inside_span_books_no_bucket(self):
        # A timer feeds its histogram only; the span tree is built from
        # spans alone, so the timed interval is never booked twice.
        tele = Telemetry.recording()
        with tele.span("slot"):
            with tele.timer("solve_ms"):
                pass
        (event,) = _span_events(tele)
        assert event["name"] == "slot" and "children" not in event
        assert event["exclusive_s"] == event["elapsed_s"]
        assert tele.metrics.histogram("solve_ms").count == 1

    def test_timer_without_span_is_plain(self):
        tele = Telemetry.recording()
        with tele.timer("solve_ms"):
            pass
        assert _span_events(tele) == []
        assert tele.metrics.histogram("solve_ms").count == 1


class TestSpanBitIdentity:
    """Spans observe the run; they never participate in it."""

    def test_instrumented_matches_uninstrumented(self, week_scenario):
        def run(telemetry):
            controller = COCA(
                week_scenario.model,
                week_scenario.environment.portfolio,
                v_schedule=120.0,
            )
            return simulate(
                week_scenario.model,
                controller,
                week_scenario.environment,
                telemetry=telemetry,
            )

        plain = run(None)
        spanned = run(Telemetry.recording())
        for field in ("cost", "brown_energy", "active_servers", "queue", "dropped"):
            np.testing.assert_array_equal(
                getattr(plain, field), getattr(spanned, field)
            )


def _booked_s(events: list[dict]) -> dict[tuple, float]:
    """Seconds booked under each span: its buckets plus its child spans."""
    booked = {(e["run_id"], e["span_id"]): 0.0 for e in events}
    for event in events:
        key = (event["run_id"], event["span_id"])
        booked[key] += sum(s for _, s in (event.get("children") or {}).values())
        if event["parent_id"] is not None:
            booked[(event["run_id"], event["parent_id"])] += event["elapsed_s"]
    return booked


class TestSpanTreeAddsUp:
    """Each interval is booked once, so the tree's levels add up."""

    @pytest.mark.parametrize(
        "solver",
        [["--solver", "gsd", "--iterations", "20"], []],
        ids=["gsd", "exact"],
    )
    def test_traced_paper_week(self, tmp_path, solver):
        trace = str(tmp_path / "run.jsonl")
        argv = ["run", "--scale", "paper", "--horizon", "168", *solver]
        assert main([*argv, "--trace-out", trace]) == 0
        events = [e for e in load_trace(trace) if e["kind"] == "span"]
        booked = _booked_s(events)
        for event in events:
            key = (event["run_id"], event["span_id"])
            assert booked[key] <= event["elapsed_s"] + 1e-9, event["name"]
        slots = [e for e in events if e["name"] == "slot"]
        assert len(slots) == 168
        assert all(e["exclusive_s"] > 0.0 for e in slots)
        second_level = [
            row["% total"]
            for row in span_hotspots(events, top=100)
            if row["span"].startswith("  ") and not row["span"].startswith("    ")
        ]
        assert second_level and sum(second_level) <= 100.0 + 1e-9


class TestSpansCLI:
    def test_telemetry_spans_flag(self, tmp_path, capsys):
        trace = str(tmp_path / "run.jsonl")
        assert main([
            "run", "--scale", "small", "--horizon", "24", "--solver", "gsd",
            "--iterations", "20", "--trace-out", trace,
        ]) == 0
        capsys.readouterr()
        assert main(["telemetry", trace, "--spans"]) == 0
        out = capsys.readouterr().out
        # The rows under the title, header and rule: (name, indentation).
        rows = [
            (line.split()[0], len(line) - len(line.lstrip()))
            for line in out[out.index("span hotspots"):].splitlines()[3:]
        ]
        names = [name for name, _ in rows]
        slot = names.index("slot")
        solve = names.index("gsd.solve", slot)
        inner = names.index("gsd.inner_bisection", solve)
        assert rows[slot][1] == 0
        assert rows[slot][1] < rows[solve][1] < rows[inner][1]


class TestSweepMerge:
    """Span events survive the process-pool merge deterministically."""

    def _structure(self, telemetry):
        """Sorted (indented-name, count) rows -- the tree's shape.  Sibling
        *order* in the table follows wall time, which varies run to run, so
        structure comparisons must not depend on it."""
        events = [e for e in telemetry.tracer.events if e["kind"] == "span"]
        table = span_hotspots(events, top=100)
        return sorted((row["span"], row["count"]) for row in table)

    def test_parallel_merge_matches_serial_structure(self, week_scenario):
        values = [50.0, 150.0]
        serial = Telemetry.recording()
        sweep_constant_v(week_scenario, values, telemetry=serial)
        parallel = Telemetry.recording()
        sweep_constant_v(week_scenario, values, workers=2, telemetry=parallel)
        assert self._structure(parallel) == self._structure(serial)

    def test_parallel_merge_is_reproducible(self, week_scenario):
        values = [50.0, 150.0]
        a, b = Telemetry.recording(), Telemetry.recording()
        sweep_constant_v(week_scenario, values, workers=2, telemetry=a)
        sweep_constant_v(week_scenario, values, workers=2, telemetry=b)
        assert self._structure(a) == self._structure(b)

    def test_merged_parent_links_resolve(self, week_scenario):
        tele = Telemetry.recording()
        sweep_constant_v(week_scenario, [50.0, 150.0], workers=2, telemetry=tele)
        events = [e for e in tele.tracer.events if e["kind"] == "span"]
        assert events, "parallel sweep should carry span events back"
        known = {(e["run_id"], e["span_id"]) for e in events}
        for event in events:
            if event["parent_id"] is not None:
                assert (event["run_id"], event["parent_id"]) in known


class TestGSDAttribution:
    def test_paper_scale_solve_attributes_90pct(self):
        scenario = paper_scenario(horizon=24, num_groups=200)
        model = scenario.model
        problem = model.slot_problem(
            arrival_rate=0.6 * model.fleet.capacity(model.gamma),
            onsite=0.0,
            price=40.0,
            q=0.0,
            V=100.0,
        )
        tele = Telemetry.recording()
        solver = GSDSolver(iterations=500, rng=np.random.default_rng(7))
        solver.bind_telemetry(tele)
        solver.solve(problem)
        events = _span_events(tele)
        solve_ev = next(e for e in events if e["name"] == "gsd.solve")
        child_s = sum(
            seconds for _count, seconds in solve_ev["children"].values()
        ) + sum(
            e["elapsed_s"]
            for e in events
            if e["parent_id"] == solve_ev["span_id"]
        )
        assert child_s / solve_ev["elapsed_s"] >= 0.90

    def test_hotspot_table_renders_tree(self):
        tele = Telemetry.recording()
        with tele.span("slot"):
            with tele.span("gsd.solve") as sp:
                sp.add("gsd.inner_bisection", 0.004, count=9)
        events = tele.tracer.events
        rows = span_hotspots(events)
        spans = [row["span"] for row in rows]
        assert spans[0] == "slot"
        assert any(s.strip() == "gsd.solve" for s in spans)
        assert any(s.strip() == "gsd.inner_bisection" for s in spans)
        # indentation encodes depth
        depth = {s.strip(): len(s) - len(s.lstrip()) for s in spans}
        assert depth["slot"] < depth["gsd.solve"] < depth["gsd.inner_bisection"]

    def test_render_summary_spans_flag(self):
        tele = Telemetry.recording()
        with tele.span("slot"):
            pass
        text = render_trace_summary(tele.tracer.events, spans=True)
        assert "span hotspots" in text
        legacy = render_trace_summary(
            [{"kind": "slot", "t": 0, "run_id": "r", "schema_version": 2}],
            spans=True,
        )
        assert "no span events" in legacy


class TestPrometheus:
    def test_golden_exposition(self):
        reg = MetricsRegistry()
        reg.counter("sim.slots").inc(7)
        reg.gauge("sim.queue_depth").set(2.5)
        h = reg.histogram("coca.solve_ms")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert render_prometheus(reg) == (
            "# HELP repro_coca_solve_ms Summary of histogram 'coca.solve_ms'.\n"
            "# TYPE repro_coca_solve_ms summary\n"
            'repro_coca_solve_ms{quantile="0.5"} 2.5\n'
            'repro_coca_solve_ms{quantile="0.9"} 3.7\n'
            'repro_coca_solve_ms{quantile="0.99"} 3.9699999999999998\n'
            "repro_coca_solve_ms_sum 10.0\n"
            "repro_coca_solve_ms_count 4\n"
            "# HELP repro_sim_queue_depth Gauge 'sim.queue_depth'.\n"
            "# TYPE repro_sim_queue_depth gauge\n"
            "repro_sim_queue_depth 2.5\n"
            "# HELP repro_sim_slots_total Counter 'sim.slots'.\n"
            "# TYPE repro_sim_slots_total counter\n"
            "repro_sim_slots_total 7.0\n"
        )

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_http_metrics_endpoint(self):
        board = StatusBoard()
        board.update(state="running")
        reg = MetricsRegistry()
        reg.counter("sim.slots").inc(3)
        server = StatusServer(board, port=0, registry=reg)
        try:
            with urllib.request.urlopen(f"{server.url}/metrics") as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"].startswith("text/plain")
                body = resp.read().decode("utf-8")
            assert "repro_sim_slots_total 3" in body
        finally:
            server.close()

    def test_metrics_404_without_registry(self):
        board = StatusBoard()
        server = StatusServer(board, port=0)
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{server.url}/metrics")
            assert err.value.code == 404
        finally:
            server.close()


class TestSlotAttributionGauges:
    def test_per_slot_cost_and_carbon_gauges(self, week_scenario):
        tele = Telemetry.recording()
        controller = COCA(
            week_scenario.model,
            week_scenario.environment.portfolio,
            v_schedule=120.0,
        )
        record = simulate(
            week_scenario.model,
            controller,
            week_scenario.environment,
            telemetry=tele,
        )
        gauges = tele.metrics.state()["gauges"]
        assert gauges["sim.slot"] == week_scenario.horizon - 1
        assert gauges["sim.slot_cost_dollars"] == pytest.approx(
            float(record.cost[-1])
        )
        assert "sim.queue_depth" in gauges  # the carbon-deficit series
        assert "sim.slot_solve_time_s" in gauges
