"""Tests for the telemetry subsystem: tracing, metrics, exporters, CLI.

The load-bearing guarantee is the first class: attaching (or omitting)
telemetry must not perturb a single bit of the simulation -- the subsystem
observes the run, it never participates in it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import CarbonUnaware
from repro.core import COCA
from repro.sim import simulate
from repro.solvers import GSDSolver
from repro.telemetry import (
    NULL_TELEMETRY,
    SCHEMA_VERSION,
    InMemoryTracer,
    JsonlTracer,
    MetricsRegistry,
    Telemetry,
    TraceError,
    coerce,
    load_trace,
    metrics_to_markdown,
    read_jsonl_events,
    render_trace_summary,
    trace_summary_tables,
    write_jsonl_events,
    write_metrics,
)


def _run(scenario, telemetry=None, v=120.0):
    controller = COCA(
        scenario.model, scenario.environment.portfolio, v_schedule=v
    )
    return simulate(
        scenario.model, controller, scenario.environment, telemetry=telemetry
    )


def _gsd_problem(model, lam_frac=0.6):
    return model.slot_problem(
        arrival_rate=lam_frac * model.fleet.capacity(model.gamma),
        onsite=0.0,
        price=40.0,
        q=0.0,
        V=1.0,
    )


class TestBitIdentical:
    """Telemetry on, off, or absent -- same numbers, always."""

    def test_noop_default_matches_recording(self, week_scenario):
        plain = _run(week_scenario)
        traced = _run(week_scenario, telemetry=Telemetry.recording())
        for field in ("cost", "brown_energy", "active_servers", "queue"):
            np.testing.assert_array_equal(
                getattr(plain, field), getattr(traced, field)
            )

    def test_explicit_null_matches_none(self, week_scenario):
        a = _run(week_scenario, telemetry=None)
        b = _run(week_scenario, telemetry=NULL_TELEMETRY)
        np.testing.assert_array_equal(a.cost, b.cost)

    def test_gsd_unperturbed_by_telemetry(self, hetero_model):
        def gsd_run(telemetry):
            solver = GSDSolver(iterations=60, rng=np.random.default_rng(7))
            if telemetry is not None:
                solver.bind_telemetry(telemetry)
            problem = hetero_model.slot_problem(
                arrival_rate=0.5 * hetero_model.fleet.capacity(hetero_model.gamma),
                onsite=0.0,
                price=40.0,
                q=0.0,
                V=1.0,
            )
            return solver.solve(problem).action.rows

        assert gsd_run(None) == gsd_run(Telemetry.recording())

    def test_gsd_unperturbed_by_the_exact_shadow(self, tiny_model):
        # On a homogeneous fleet telemetry adds the exact shadow solve: the
        # chain's actions, objectives and RNG position must not see it.
        def gsd_run(telemetry):
            solver = GSDSolver(iterations=30, rng=np.random.default_rng(7))
            if telemetry is not None:
                solver.bind_telemetry(telemetry)
            solutions = [
                solver.solve(_gsd_problem(tiny_model, frac)) for frac in (0.2, 0.5, 0.8)
            ]
            return (
                [(s.action.levels.tolist(), s.action.rows, s.objective) for s in solutions],
                solver.state_dict(),
            )

        telemetry = Telemetry.recording()
        assert gsd_run(None) == gsd_run(telemetry)
        graded = [e for e in telemetry.events if e["kind"] == "gsd.solve"]
        assert len(graded) == 3 and all("gap_rel" in e for e in graded)

    def test_null_telemetry_is_inert(self):
        NULL_TELEMETRY.emit("anything", t=0)
        with NULL_TELEMETRY.timer("never.recorded"):
            pass
        assert NULL_TELEMETRY.events == []
        assert not NULL_TELEMETRY.enabled
        assert coerce(None) is NULL_TELEMETRY


class TestEventStream:
    def test_simulate_emits_slot_events(self, week_scenario):
        telemetry = Telemetry.recording()
        record = _run(week_scenario, telemetry=telemetry)
        kinds = [e["kind"] for e in telemetry.events]
        horizon = len(record.cost)
        assert kinds.count("slot.decision") == horizon
        assert kinds.count("slot.outcome") == horizon
        assert kinds.count("queue.update") == horizon
        decision = next(e for e in telemetry.events if e["kind"] == "slot.decision")
        assert {"t", "objective", "planned_cost", "solve_time_s"} <= set(decision)
        outcome = next(e for e in telemetry.events if e["kind"] == "slot.outcome")
        assert outcome["t"] == 0
        assert outcome["cost"] == pytest.approx(float(record.cost[0]))

    def test_queue_update_tracks_deficit_queue(self, week_scenario):
        telemetry = Telemetry.recording()
        record = _run(week_scenario, telemetry=telemetry)
        after = [
            e["after"] for e in telemetry.events if e["kind"] == "queue.update"
        ]
        # record.queue[t] is the depth the slot-t decision saw; the event's
        # "after" is the depth once slot t's outcome is folded in.
        np.testing.assert_allclose(after[:-1], record.queue[1:])

    def test_metrics_aggregates_match_record(self, week_scenario):
        telemetry = Telemetry.recording()
        record = _run(week_scenario, telemetry=telemetry)
        metrics = telemetry.metrics
        assert metrics.counter("sim.slots").value == len(record.cost)
        assert metrics.counter("sim.cost_dollars").value == pytest.approx(
            float(record.cost.sum())
        )
        assert metrics.histogram("sim.solve_time_s").count == len(record.cost)


class TestGSDEvents:
    def _solve(self, model, **gsd_kwargs):
        telemetry = Telemetry.recording()
        solver = GSDSolver(rng=np.random.default_rng(3), **gsd_kwargs)
        solver.bind_telemetry(telemetry)
        solution = solver.solve(_gsd_problem(model))
        return telemetry, solution

    def test_solve_event_carries_the_exact_gap(self, tiny_model):
        from repro.solvers import HomogeneousEnumerationSolver

        telemetry, solution = self._solve(tiny_model, iterations=40)
        (event,) = [e for e in telemetry.events if e["kind"] == "gsd.solve"]
        exact = HomogeneousEnumerationSolver().solve(_gsd_problem(tiny_model)).objective
        assert event["exact_objective"] == exact
        assert event["gap_rel"] == (solution.objective - exact) / max(abs(exact), 1e-12)
        assert solution.info["gap_rel"] == event["gap_rel"]
        assert "solve_index" not in event
        (span,) = [e for e in telemetry.events if e["kind"] == "span"]
        assert span["children"]["gsd.shadow"][0] == 1

    def test_heterogeneous_fleet_is_not_graded(self, hetero_model):
        telemetry, solution = self._solve(hetero_model, iterations=40)
        (event,) = [e for e in telemetry.events if e["kind"] == "gsd.solve"]
        assert "gap_rel" not in event and "gap_rel" not in solution.info
        (span,) = [e for e in telemetry.events if e["kind"] == "span"]
        assert "gsd.shadow" not in span["children"]

    def test_uninstrumented_solve_is_not_graded(self, tiny_model):
        solver = GSDSolver(iterations=40, rng=np.random.default_rng(3))
        assert "gap_rel" not in solver.solve(_gsd_problem(tiny_model)).info

    def test_solve_summary_event_and_metrics(self, hetero_model):
        telemetry, _ = self._solve(hetero_model, iterations=25)
        solves = [e for e in telemetry.events if e["kind"] == "gsd.solve"]
        assert len(solves) == 1
        assert solves[0]["iterations"] == 25
        assert solves[0]["iterations_to_convergence"] <= 25
        assert telemetry.metrics.counter("gsd.solves").value == 1
        assert telemetry.metrics.histogram("gsd.solve_time_s").count == 1


class TestMetricsRegistry:
    def test_histogram_percentiles_exact(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for v in range(1, 101):  # 1..100
            hist.observe(float(v))
        assert hist.count == 100
        assert hist.mean == pytest.approx(50.5)
        assert hist.max == 100.0
        assert hist.percentile(50) == pytest.approx(np.percentile(range(1, 101), 50))
        assert hist.percentile(90) == pytest.approx(np.percentile(range(1, 101), 90))
        assert hist.percentile(99) == pytest.approx(np.percentile(range(1, 101), 99))

    @given(
        st.lists(
            st.floats(-1e12, 1e12, allow_nan=False, allow_subnormal=True),
            min_size=1, max_size=300,
        ),
        st.lists(st.floats(0.0, 100.0), min_size=1, max_size=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_percentiles_match_numpy_bit_for_bit(self, values, ps):
        hist = MetricsRegistry().histogram("h")
        for v in values:
            hist.observe(v)
        got = hist.percentiles(ps)
        assert got == [float(np.percentile(np.asarray(values), p)) for p in ps]
        assert got == [hist.percentile(p) for p in ps]

    def test_percentiles_edge_cases(self):
        hist = MetricsRegistry().histogram("h")
        assert hist.percentiles((50, 99)) == [0.0, 0.0]
        with pytest.raises(ValueError):
            hist.percentiles((50, 101))
        hist.observe(float("nan"))
        hist.observe(1.0)
        assert all(np.isnan(hist.percentiles((0, 50))))

    def test_get_or_create_and_type_conflict(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_state_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(2)
        b.counter("n").inc(3)
        b.gauge("g").set(7.0)
        b.histogram("h").observe(1.0)
        a.merge_state(b.state())
        assert a.counter("n").value == 5
        assert a.gauge("g").value == 7.0
        assert a.histogram("h").count == 1

    def test_snapshot_rows_sorted_with_percentiles(self):
        registry = MetricsRegistry()
        registry.counter("z.count").inc()
        registry.histogram("a.time").observe(2.0)
        rows = registry.snapshot_rows()
        assert [r["metric"] for r in rows] == ["a.time", "z.count"]
        assert rows[0]["p50"] == 2.0


class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        events = [
            {"kind": "slot.decision", "t": 0, "objective": 1.5},
            {"kind": "gsd.solve", "iterations": 40, "note": "x"},
        ]
        path = tmp_path / "trace.jsonl"
        write_jsonl_events(events, path)
        read_back = read_jsonl_events(path)
        # Unstamped events acquire the v2 stamps on write; original fields
        # survive untouched.
        for original, loaded in zip(events, read_back):
            assert loaded["schema_version"] == SCHEMA_VERSION
            assert loaded["run_id"]
            assert {k: v for k, v in loaded.items()
                    if k not in ("schema_version", "run_id")} == original

    def test_jsonl_round_trip_preserves_existing_stamps(self, tmp_path):
        events = [
            {"kind": "queue.update", "schema_version": 1, "run_id": "abc", "t": 3}
        ]
        path = tmp_path / "stamped.jsonl"
        write_jsonl_events(events, path)
        assert read_jsonl_events(path) == events

    def test_jsonl_tracer_streams_and_counts(self, tmp_path, week_scenario):
        path = tmp_path / "run.jsonl"
        tracer = JsonlTracer(path)
        _run(week_scenario, telemetry=Telemetry(tracer=tracer))
        tracer.close()
        events = read_jsonl_events(path)
        assert tracer.count == len(events) > 0
        with open(path) as fh:
            for line in fh:
                json.loads(line)  # every line independently valid JSON

    def test_jsonl_tracer_serializes_numpy(self, tmp_path):
        path = tmp_path / "np.jsonl"
        tracer = JsonlTracer(path)
        tracer.emit("e", a=np.float64(1.5), b=np.int64(2), c=np.array([1.0, 2.0]))
        tracer.close()
        (event,) = read_jsonl_events(path)
        assert event == {
            "kind": "e",
            "schema_version": SCHEMA_VERSION,
            "run_id": tracer.run_id,
            "a": 1.5,
            "b": 2,
            "c": [1.0, 2.0],
        }

    def test_read_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "ok"}\n{"no_kind": 1}\n')
        with pytest.raises(ValueError, match=":2"):
            read_jsonl_events(path)

    def test_write_metrics_csv_and_markdown(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("sim.slots").inc(5)
        registry.histogram("sim.solve_time_s").observe(0.25)
        csv_path = tmp_path / "m.csv"
        write_metrics(registry, csv_path)
        text = csv_path.read_text()
        assert text.startswith("metric,")
        assert "sim.slots" in text
        md_path = tmp_path / "m.md"
        write_metrics(registry, md_path)
        assert "|" in md_path.read_text()
        assert "sim.slots" in metrics_to_markdown(registry)


class TestLoadTrace:
    """load_trace: the validating loader behind the CLI trace commands."""

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="not found"):
            load_trace(str(tmp_path / "nope.jsonl"))

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceError, match="empty"):
            load_trace(str(path))

    def test_corrupt_jsonl(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text('{"kind": "ok"}\nnot json at all\n')
        with pytest.raises(TraceError, match="corrupt"):
            load_trace(str(path))

    def test_future_schema_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"kind": "x", "schema_version": SCHEMA_VERSION + 1}) + "\n"
        )
        with pytest.raises(TraceError, match="schema version"):
            load_trace(str(path))

    def test_unstamped_v1_trace_accepted(self, tmp_path):
        path = tmp_path / "v1.jsonl"
        path.write_text('{"kind": "queue.update", "t": 0}\n')
        events = load_trace(str(path))
        assert events == [{"kind": "queue.update", "t": 0}]

    def test_loads_tracer_output(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tracer = JsonlTracer(path)
        tracer.emit("slot.outcome", t=0, cost=1.0)
        tracer.close()
        (event,) = load_trace(str(path))
        assert event["schema_version"] == SCHEMA_VERSION
        assert event["run_id"] == tracer.run_id


class TestInProgressTraces:
    """Reading the ``.part`` stream of a still-running (or killed) run."""

    def _torn_part(self, tmp_path):
        path = tmp_path / "run.jsonl.part"
        path.write_text(
            '{"kind": "slot.outcome", "t": 0}\n'
            '{"kind": "slot.outcome", "t": 1}\n'
            '{"kind": "slot.outc'  # writer killed mid-append
        )
        return path

    def test_torn_tail_tolerated_on_request(self, tmp_path):
        path = self._torn_part(tmp_path)
        events = read_jsonl_events(path, tolerate_torn_tail=True)
        assert [e["t"] for e in events] == [0, 1]
        with pytest.raises(ValueError):  # strict mode still refuses
            read_jsonl_events(path)

    def test_mid_file_corruption_still_raises(self, tmp_path):
        path = tmp_path / "corrupt.jsonl.part"
        path.write_text('{"kind": "a"}\ngarbage\n{"kind": "b"}\n')
        with pytest.raises(ValueError, match=":2"):
            read_jsonl_events(path, tolerate_torn_tail=True)

    def test_load_trace_reads_part_with_torn_tail(self, tmp_path):
        events = load_trace(str(self._torn_part(tmp_path)))
        assert [e["t"] for e in events] == [0, 1]

    def test_missing_committed_path_hints_at_part_sibling(self, tmp_path):
        self._torn_part(tmp_path)
        with pytest.raises(TraceError, match=r"hint: .*run\.jsonl\.part"):
            load_trace(str(tmp_path / "run.jsonl"))

    def test_cli_consumers_read_part_traces(self, tmp_path, capsys):
        from repro.cli import main

        path = self._torn_part(tmp_path)
        assert main(["telemetry", str(path)]) == 0
        out = tmp_path / "dash.html"
        assert main(["dashboard", "--trace", str(path), "-o", str(out)]) == 0
        assert out.exists()
        capsys.readouterr()


class TestSummary:
    def test_trace_summary_tables(self, week_scenario):
        telemetry = Telemetry.recording()
        record = _run(week_scenario, telemetry=telemetry)
        tables = trace_summary_tables(telemetry.events)
        counts = {r["event"]: r["count"] for r in tables["events"]}
        assert counts["slot.outcome"] == len(record.cost)
        (run_row,) = tables["run"]
        assert run_row["slots"] == len(record.cost)
        assert run_row["total cost [$]"] == pytest.approx(float(record.cost.sum()))
        timers = {r["timer"] for r in tables["timings"]}
        assert any("solve_time_s" in t for t in timers)

    def test_render_trace_summary_is_text(self, week_scenario):
        telemetry = Telemetry.recording()
        _run(week_scenario, telemetry=telemetry)
        text = render_trace_summary(telemetry.events, title="t.jsonl")
        assert "t.jsonl" in text
        assert "slot.outcome" in text

    def test_empty_trace_summary(self):
        assert "0 events" in render_trace_summary([], title="empty")


class TestCLI:
    def test_quickstart_writes_trace_and_metrics(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "q.jsonl"
        metrics = tmp_path / "q.csv"
        rc = main(
            [
                "quickstart",
                "--horizon", "48",
                "--v", "50",
                "--trace-out", str(trace),
                "--metrics-out", str(metrics),
            ]
        )
        assert rc == 0
        events = read_jsonl_events(trace)
        kinds = {e["kind"] for e in events}
        assert {"slot.decision", "slot.outcome", "queue.update"} <= kinds
        assert metrics.read_text().startswith("metric,")
        out = capsys.readouterr().out
        assert "trace written to" in out and "metrics written to" in out

    def test_telemetry_subcommand_summarizes(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "q.jsonl"
        assert main(
            ["quickstart", "--horizon", "48", "--v", "50", "--trace-out", str(trace)]
        ) == 0
        capsys.readouterr()
        assert main(["telemetry", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "slot.outcome" in out
        assert "solve_time_s" in out


class TestParallelSweeps:
    def test_sweep_constant_v_parallel_matches_serial(self, week_scenario):
        from repro.analysis import sweep_constant_v

        values = [1.0, 10.0, 100.0]
        serial = sweep_constant_v(week_scenario, values)
        parallel = sweep_constant_v(week_scenario, values, workers=2)
        assert serial == parallel

    def test_overestimation_parallel_matches_serial(self, week_scenario):
        from repro.analysis import overestimation_sweep

        factors = [1.0, 1.2]
        serial = overestimation_sweep(week_scenario, factors, v=50.0)
        parallel = overestimation_sweep(week_scenario, factors, v=50.0, workers=2)
        assert serial == parallel

    def test_budget_sweep_parallel_matches_serial(self, week_scenario):
        from repro.analysis import budget_sweep

        fractions = [0.95, 1.0]
        serial = budget_sweep(week_scenario, fractions, include_opt=False)
        parallel = budget_sweep(
            week_scenario, fractions, include_opt=False, workers=2
        )
        assert serial == parallel

    def test_parallel_sweep_collects_telemetry(self, week_scenario):
        from repro.analysis import sweep_constant_v

        telemetry = Telemetry.recording()
        values = [1.0, 100.0]
        sweep_constant_v(week_scenario, values, workers=2, telemetry=telemetry)
        horizon = week_scenario.horizon
        assert telemetry.metrics.counter("sim.slots").value == len(values) * horizon
        outcomes = [e for e in telemetry.events if e["kind"] == "slot.outcome"]
        assert len(outcomes) == len(values) * horizon


class TestNonFiniteSanitization:
    """Non-finite floats must become ``null`` at the JSONL sink boundary.

    A GSD chain started under a peak-power cap that excludes every
    configuration carries ``best_objective = inf`` through its whole run;
    ``json.dumps`` would happily write the bare ``Infinity`` token, which is
    not JSON and breaks every strict parser downstream.  The tracer
    sanitizes at the boundary, and the CLI consumers (``repro telemetry``,
    ``repro dashboard``) must round-trip the resulting ``null``s.
    """

    def _write_inf_trace(self, tmp_path, tiny_model):
        from dataclasses import replace

        from repro.solvers import InfeasibleError
        from tests.conftest import make_problem

        p = replace(make_problem(tiny_model, lam_frac=0.3), peak_power_cap=1e-9)
        path = tmp_path / "inf.jsonl"
        tracer = JsonlTracer(path)
        solver = GSDSolver(iterations=40, rng=np.random.default_rng(0))
        solver.bind_telemetry(Telemetry(tracer=tracer))
        with pytest.raises(InfeasibleError):
            solver.solve(p)
        tracer.close()
        return path

    def test_trace_is_strict_json(self, tmp_path, tiny_model):
        path = self._write_inf_trace(tmp_path, tiny_model)
        text = path.read_text()
        assert "Infinity" not in text and "NaN" not in text

        def reject(token):  # json only calls this for Infinity/-Infinity/NaN
            raise AssertionError(f"non-strict token {token!r} in trace")

        events = [
            json.loads(line, parse_constant=reject) for line in text.splitlines()
        ]
        solves = [e for e in events if e["kind"] == "gsd.solve"]
        assert solves and solves[0]["best_objective"] is None

    def test_cli_consumers_survive_nulls(self, tmp_path, tiny_model, capsys):
        from repro.cli import main

        path = self._write_inf_trace(tmp_path, tiny_model)
        assert main(["telemetry", str(path)]) == 0
        out = tmp_path / "dash.html"
        assert main(["dashboard", "--trace", str(path), "-o", str(out)]) == 0
        assert out.exists() and "<html" in out.read_text().lower()
        capsys.readouterr()
