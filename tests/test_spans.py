"""Tests for hierarchical spans, timer delegation, reservoirs, /metrics.

The load-bearing guarantees of the PR-7 observability layer:

- spans observe, never participate: a span-instrumented run is bit-identical
  to an uninstrumented one;
- span events survive the process-pool sweep merge with resolvable parent
  links and a deterministic structure;
- the GSD hot loop's named child buckets account for >=90% of solver wall
  time (profiles must be actionable, not "misc");
- bounded (reservoir) histograms stay exact for count/total/max and keep
  percentiles within a pinned error band;
- the Prometheus exposition is stable text, golden-pinned.
"""

from __future__ import annotations

import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.analysis import sweep_constant_v
from repro.core import COCA
from repro.scenarios import paper_scenario
from repro.serve import StatusBoard, StatusServer
from repro.sim import simulate
from repro.solvers import GSDSolver
from repro.telemetry import (
    NULL_SPAN,
    MetricsRegistry,
    Telemetry,
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

    def test_timer_delegates_to_open_span(self):
        tele = Telemetry.recording()
        with tele.span("slot"):
            with tele.timer("solve_ms") as timer:
                pass
        (event,) = _span_events(tele)
        assert event["name"] == "slot"
        assert event["children"]["solve_ms"][0] == 1
        assert event["children"]["solve_ms"][1] == pytest.approx(timer.elapsed)
        # the histogram still observed exactly one sample
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


class TestReservoirHistogram:
    def test_exact_until_capacity_and_running_stats(self):
        reg = MetricsRegistry(reservoir=64, seed=1)
        h = reg.histogram("lat")
        for v in range(200):
            h.observe(float(v))
        assert h.count == 200
        assert h.total == pytest.approx(sum(range(200)))
        assert h.max == 199.0
        assert len(h._values) == 64

    def test_same_seed_same_samples(self):
        def build(seed):
            reg = MetricsRegistry(reservoir=32, seed=seed)
            h = reg.histogram("lat")
            for v in range(500):
                h.observe(float(v))
            return list(h._values)

        assert build(3) == build(3)
        assert build(3) != build(4)

    def test_percentile_error_bounded(self):
        # Uniform stream 0..9999: reservoir p50/p90/p99 must stay within
        # 5 percentile points of truth at N=1024 (Algorithm R is unbiased;
        # this band is generous enough to be seed-stable, tight enough to
        # catch a broken sampler).
        reg = MetricsRegistry(reservoir=1024, seed=0)
        h = reg.histogram("lat")
        values = np.arange(10_000, dtype=float)
        for v in values:
            h.observe(float(v))
        sample = np.asarray(h._values)
        for q in (50, 90, 99):
            truth = np.percentile(values, q)
            got = np.percentile(sample, q)
            assert abs(got - truth) <= 0.05 * 10_000, (q, got, truth)

    def test_unbounded_default_unchanged(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in range(100):
            h.observe(float(v))
        assert len(h._values) == 100 and h.count == 100

    def test_merge_bounded_state_preserves_exact_stats(self):
        worker = MetricsRegistry(reservoir=16, seed=2)
        h = worker.histogram("lat")
        for v in range(100):
            h.observe(float(v))
        parent = MetricsRegistry(reservoir=16, seed=2)
        parent.merge_state(worker.state())
        merged = parent.histogram("lat")
        assert merged.count == 100
        assert merged.total == pytest.approx(sum(range(100)))
        assert merged.max == 99.0

    def test_rejects_nonpositive_reservoir(self):
        with pytest.raises(ValueError):
            MetricsRegistry(reservoir=0).histogram("lat")


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
