"""Tests for the health-monitoring layer: alerts, invariants, the GSD
gap, the tracer tap, and the HTML dashboard.

The corrupted-trace tests are the load-bearing ones: every invariant
monitor must actually *trip* when fed a trace violating its property --
a watchdog that never fires is indistinguishable from no watchdog.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import COCA
from repro.monitor import (
    DASHBOARD_SECTIONS,
    Alert,
    AlertChannel,
    BudgetTrajectoryMonitor,
    DroppedLoadMonitor,
    GAP_TOLERANCE,
    GSDGapMonitor,
    LoadConservationMonitor,
    MonitoringTracer,
    MonitorSuite,
    QueueBoundMonitor,
    SlotSanityMonitor,
    default_suite,
    monitored_telemetry,
    render_dashboard,
    replay,
    write_dashboard,
)
from repro.sim import simulate
from repro.telemetry import SCHEMA_VERSION, InMemoryTracer, Telemetry


def _run(scenario, telemetry=None, v=120.0):
    controller = COCA(scenario.model, scenario.environment.portfolio, v_schedule=v)
    return simulate(
        scenario.model, controller, scenario.environment, telemetry=telemetry
    )


@pytest.fixture(scope="session")
def neutral_v(week_scenario) -> float:
    """A V that actually reaches carbon neutrality on the week scenario --
    a fixed arbitrary V can legitimately end over budget, which is a true
    positive for the budget monitor, not a healthy run."""
    from repro.analysis import find_neutral_v

    return find_neutral_v(week_scenario)


@pytest.fixture(scope="session")
def healthy_events(week_scenario, neutral_v):
    """Event stream of one healthy instrumented COCA week."""
    telemetry = Telemetry.recording()
    _run(week_scenario, telemetry=telemetry, v=neutral_v)
    return telemetry.events


# ---------------------------------------------------------------- alerts
class TestAlertChannel:
    def test_dedup_by_key_counts_repeats(self):
        seen: list[Alert] = []
        channel = AlertChannel(sinks=[seen.append])
        for t in range(5):
            channel.raise_alert("warning", "m", f"slot {t} broke", t=t, key="m:broke")
        assert len(channel.alerts) == 1
        (alert,) = channel.alerts
        assert alert.count == 5
        assert alert.t == 0 and alert.last_t == 4
        # Sinks hear only the first occurrence.
        assert len(seen) == 1

    def test_severity_escalation_keeps_worst(self):
        channel = AlertChannel()
        channel.raise_alert("warning", "m", "x", key="k")
        channel.raise_alert("critical", "m", "x again", key="k")
        channel.raise_alert("info", "m", "x still", key="k")
        (alert,) = channel.alerts
        assert alert.severity == "critical"
        assert channel.worst_severity == "critical"
        assert channel.count("critical") == 1 and channel.count() == 1

    def test_min_severity_gates_sinks_not_log(self):
        seen: list[Alert] = []
        channel = AlertChannel(sinks=[seen.append], min_severity="critical")
        channel.raise_alert("info", "m", "quiet")
        channel.raise_alert("critical", "m", "loud")
        assert len(seen) == 1 and seen[0].message == "loud"
        assert channel.count() == 2  # both still on the record

    def test_unknown_severity_rejected(self):
        channel = AlertChannel()
        with pytest.raises(ValueError, match="severity"):
            channel.raise_alert("catastrophic", "m", "x")

    def test_dedup_window_rearms_after_w_slots(self):
        seen: list[Alert] = []
        channel = AlertChannel(sinks=[seen.append], dedup_window=3)
        for t in range(8):
            channel.raise_alert("warning", "m", "stuck", t=t, key="k")
        # Dispatched at t=0, re-armed at t=3 and t=6; folded in between.
        assert len(seen) == 3
        (alert,) = channel.alerts
        assert alert.count == 8  # the true occurrence total is kept

    def test_dedup_window_rearms_on_recurrence_after_quiet_gap(self):
        seen: list[Alert] = []
        channel = AlertChannel(sinks=[seen.append], dedup_window=5)
        channel.raise_alert("warning", "m", "x", t=2, key="k")
        channel.raise_alert("warning", "m", "x", t=4, key="k")  # within window
        channel.raise_alert("warning", "m", "x", t=40, key="k")  # long quiet gap
        assert len(seen) == 2

    def test_dedup_window_ignores_untimed_repeats(self):
        seen: list[Alert] = []
        channel = AlertChannel(sinks=[seen.append], dedup_window=1)
        channel.raise_alert("warning", "m", "x", t=0, key="k")
        channel.raise_alert("warning", "m", "x", key="k")  # no slot: never re-arms
        assert len(seen) == 1

    def test_no_window_keeps_one_dispatch_ever(self):
        seen: list[Alert] = []
        channel = AlertChannel(sinks=[seen.append])
        for t in range(0, 1000, 100):
            channel.raise_alert("warning", "m", "x", t=t, key="k")
        assert len(seen) == 1  # historical batch behaviour is the default

    def test_dedup_window_validated(self):
        with pytest.raises(ValueError, match="dedup_window"):
            AlertChannel(dedup_window=0)

    def test_distinct_keys_dispatch_in_order(self):
        seen: list[Alert] = []
        channel = AlertChannel(sinks=[seen.append])
        channel.raise_alert("warning", "m", "a", t=1)
        channel.raise_alert("critical", "n", "b", t=2)
        channel.raise_alert("warning", "m", "a", t=3)  # a repeat: folded
        assert [alert.monitor for alert in seen] == ["m", "n"]
        assert seen[1].severity == "critical"


# ------------------------------------------------------------ invariants
def _feed(monitor, events):
    """Run one monitor (plus finalize) over a hand-built event list."""
    suite = MonitorSuite([monitor])
    for event in events:
        suite.observe(event)
    suite.finalize()
    return suite


class TestInvariantsTrip:
    """Each monitor fires on a trace violating its property."""

    def test_queue_bound_trips_on_runaway_queue(self):
        monitor = QueueBoundMonitor(w_max=50.0, y_max=10.0)
        events = [
            {"kind": "queue.update", "t": 0, "after": 5.0, "v": 10.0, "brown": 1.0},
            # bound = 1.05 * (10*50 + 10) = 535.5; 9000 is far past it
            {"kind": "queue.update", "t": 1, "after": 9000.0, "v": 10.0, "brown": 1.0},
        ]
        suite = _feed(monitor, events)
        assert not monitor.report().passed
        (alert,) = suite.alerts
        assert alert.severity == "critical" and "Lyapunov bound" in alert.message

    def test_queue_bound_self_calibrates_from_trace(self):
        monitor = QueueBoundMonitor()  # no constants given
        events = [
            {"kind": "run.start", "max_facility_power": 10.0},
            {"kind": "slot.decision", "t": 0, "price": 50.0},
            {"kind": "queue.update", "t": 0, "after": 9000.0, "v": 10.0, "brown": 1.0},
        ]
        suite = _feed(monitor, events)
        assert monitor.checked == 1
        assert not monitor.report().passed
        assert suite.alerts[0].severity == "critical"

    def test_budget_trajectory_warns_then_goes_critical(self):
        monitor = BudgetTrajectoryMonitor(warmup_slots=2)
        # Every slot burns 10 MWh brown against a 1 MWh budget release.
        events = [
            {"kind": "controller.config", "alpha": 1.0},
            *[
                {"kind": "queue.update", "t": t, "after": 0.0, "brown": 10.0,
                 "offsite": 0.5, "rec_per_slot": 0.5}
                for t in range(6)
            ],
        ]
        suite = _feed(monitor, events)
        assert not monitor.report().passed
        severities = {a.key: a.severity for a in suite.alerts}
        assert severities[f"{monitor.name}:trajectory"] == "warning"
        assert severities[f"{monitor.name}:final"] == "critical"

    def test_budget_trajectory_quiet_on_balanced_run(self):
        monitor = BudgetTrajectoryMonitor(warmup_slots=2)
        events = [
            {"kind": "queue.update", "t": t, "brown": 1.0, "offsite": 0.9,
             "rec_per_slot": 0.1}
            for t in range(10)
        ]
        suite = _feed(monitor, events)
        assert monitor.report().passed
        assert suite.alerts == []

    def test_load_conservation_trips_on_lost_load(self):
        monitor = LoadConservationMonitor()
        events = [
            {"kind": "slot.outcome", "t": 0, "arrival_actual": 100.0,
             "served": 60.0, "dropped": 0.0},  # 40 req/s vanished
        ]
        suite = _feed(monitor, events)
        assert not monitor.report().passed
        assert "not conserved" in suite.alerts[0].message

    def test_load_conservation_trips_on_capacity_breach(self):
        monitor = LoadConservationMonitor(capacity=50.0)
        events = [
            {"kind": "slot.outcome", "t": 0, "arrival_actual": 80.0,
             "served": 80.0, "dropped": 0.0},
        ]
        suite = _feed(monitor, events)
        assert not monitor.report().passed
        assert any("capacity" in a.message for a in suite.alerts)

    def test_dropped_load_warns_per_slot_and_criticals_per_run(self):
        monitor = DroppedLoadMonitor(run_threshold=0.01)
        events = [
            {"kind": "slot.outcome", "t": t, "arrival_actual": 100.0,
             "served": 90.0, "dropped": 10.0}
            for t in range(3)
        ]
        suite = _feed(monitor, events)
        assert not monitor.report().passed
        severities = {a.key: a.severity for a in suite.alerts}
        assert severities[f"{monitor.name}:slot"] == "warning"
        assert severities[f"{monitor.name}:run"] == "critical"

    def test_slot_sanity_trips_on_broken_decomposition(self):
        monitor = SlotSanityMonitor()
        events = [
            {"kind": "slot.outcome", "t": 0, "cost": 10.0,
             "electricity_cost": 3.0, "delay_cost": 1.0},
        ]
        suite = _feed(monitor, events)
        assert not monitor.report().passed
        assert "electricity" in suite.alerts[0].message

    def test_slot_sanity_trips_on_negative_energy(self):
        monitor = SlotSanityMonitor()
        events = [
            {"kind": "slot.outcome", "t": 0, "cost": 1.0,
             "electricity_cost": 1.0, "delay_cost": 0.0, "brown_energy": -2.0},
        ]
        suite = _feed(monitor, events)
        assert not monitor.report().passed
        assert "brown_energy" in suite.alerts[0].message


# ------------------------------------------------------------- GSD gap
def _graded(*gaps):
    return [{"kind": "gsd.solve", "acceptance_rate": 0.1, "gap_rel": g} for g in gaps]


class TestGSDGapMonitor:
    def test_trips_on_a_median_above_tolerance(self):
        monitor = GSDGapMonitor()
        suite = _feed(monitor, _graded(0.0, 0.05, 0.19, 1.3))
        report = monitor.report()
        assert not report.passed
        assert report.checked == 4 and report.violations == 1
        assert "median gap" in suite.alerts[0].message
        assert "4 graded solves" in report.detail

    def test_quiet_at_or_below_tolerance(self):
        # The median sits exactly at the tolerance: one far-off solve does
        # not move it, and a negative gap (the chain beat the engine's
        # family) counts as a good solve.
        monitor = GSDGapMonitor()
        suite = _feed(monitor, _graded(-0.01, GAP_TOLERANCE, GAP_TOLERANCE, 0.0, 1.35))
        assert monitor.report().passed
        assert monitor.report().checked == 5
        assert suite.alerts == []

    def test_does_not_judge_a_run_with_no_graded_solve(self):
        # A trace written before the gap existed: chain statistics only.
        monitor = GSDGapMonitor()
        suite = _feed(monitor, [
            {"kind": "gsd.solve", "solve_index": i, "acceptance_rate": 0.0,
             "iterations": 100, "iterations_to_convergence": 0}
            for i in range(5)
        ])
        report = monitor.report()
        assert report.passed and report.checked == 0
        assert "no graded" in report.detail
        assert suite.alerts == []

    def test_exact_engine_run_is_not_judged(self, healthy_events):
        suite = replay(healthy_events)
        (report,) = [r for r in suite.reports() if r.monitor == "gsd-gap"]
        assert report.passed and report.checked == 0


# ------------------------------------------------------- suite and tap
class TestSuite:
    def test_default_suite_has_all_monitors(self):
        suite = default_suite()
        names = {m.name for m in suite.monitors}
        assert {
            "queue-bound", "budget-trajectory", "load-conservation",
            "dropped-load", "slot-sanity", "gsd-gap",
            "fault-activity", "solve-deadline",
        } == names

    def test_default_suite_rejects_unknown_override(self):
        with pytest.raises(TypeError, match="unknown"):
            default_suite(not_a_knob=1.0)

    def test_healthy_run_passes_every_monitor(self, healthy_events):
        suite = replay(healthy_events)
        for report in suite.reports():
            assert report.passed, f"{report.monitor}: {report.detail}"
        assert suite.passed
        assert suite.alerts == []

    def test_live_tap_equals_offline_replay(
        self, week_scenario, healthy_events, neutral_v
    ):
        telemetry, live_suite = monitored_telemetry(tracer=InMemoryTracer())
        _run(week_scenario, telemetry=telemetry, v=neutral_v)
        live_suite.finalize()
        offline_suite = replay(healthy_events)
        live = [(r.monitor, r.checked, r.violations) for r in live_suite.reports()]
        offline = [
            (r.monitor, r.checked, r.violations) for r in offline_suite.reports()
        ]
        assert live == offline

    def test_monitored_run_is_bit_identical(self, week_scenario):
        plain = _run(week_scenario)
        telemetry, _suite = monitored_telemetry()
        monitored = _run(week_scenario, telemetry=telemetry)
        for column in ("cost", "brown_energy", "active_servers", "queue", "served"):
            np.testing.assert_array_equal(
                getattr(plain, column), getattr(monitored, column)
            )

    def test_tap_forwards_stamped_events_to_inner(self):
        inner = InMemoryTracer()
        suite = default_suite()
        tap = MonitoringTracer(suite, inner, run_id="tap0")
        tap.emit("queue.update", t=0, after=1.0, brown=0.5, offsite=0.5, v=10.0)
        (event,) = inner.events
        assert event["run_id"] == "tap0"
        assert event["schema_version"] == SCHEMA_VERSION
        assert event["kind"] == "queue.update"

    def test_finalize_is_idempotent(self):
        monitor = DroppedLoadMonitor(run_threshold=0.0)
        suite = MonitorSuite([monitor])
        suite.observe({"kind": "slot.outcome", "t": 0, "arrival_actual": 10.0,
                       "served": 9.0, "dropped": 1.0})
        suite.finalize()
        suite.finalize()
        run_alerts = [a for a in suite.alerts if a.key.endswith(":run")]
        assert len(run_alerts) == 1 and run_alerts[0].count == 1


# ------------------------------------------------------------- dashboard
class TestDashboard:
    def test_renders_all_sections(self, healthy_events):
        html = render_dashboard(healthy_events, title="week run")
        assert html.lstrip().startswith("<!DOCTYPE html>")
        for anchor in DASHBOARD_SECTIONS:
            assert f'id="{anchor}"' in html, anchor
        assert "<svg" in html
        assert "week run" in html

    def test_self_contained_no_external_refs(self, healthy_events):
        html = render_dashboard(healthy_events)
        for marker in ("http://", "https://", "src=", "@import"):
            assert marker not in html

    def test_alerts_rendered_on_corrupt_trace(self, healthy_events):
        corrupted = [dict(e) for e in healthy_events]
        for event in corrupted:
            if event["kind"] == "slot.outcome":
                event["brown_energy"] = -5.0
        html = render_dashboard(corrupted)
        assert "negative outcome fields" in html
        assert "✗" in html  # failing invariant row

    def test_write_dashboard_creates_file(self, tmp_path, healthy_events):
        out = tmp_path / "report.html"
        write_dashboard(healthy_events, str(out))
        assert out.exists() and out.stat().st_size > 1000

    def test_empty_trace_still_renders(self):
        html = render_dashboard([])
        for anchor in DASHBOARD_SECTIONS:
            assert f'id="{anchor}"' in html


# ------------------------------------------------------------------- CLI
class TestDashboardCLI:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "run.jsonl"
        assert main(
            ["report", "--horizon", "48", "--v", "50", "--no-opt",
             "--trace-out", str(path)]
        ) == 0
        return path

    def test_dashboard_renders_trace(self, tmp_path, trace_file, capsys):
        from repro.cli import main

        out = tmp_path / "report.html"
        rc = main(["dashboard", "--trace", str(trace_file), "-o", str(out)])
        assert rc == 0
        assert out.exists()
        stdout = capsys.readouterr().out
        assert "dashboard written to" in stdout
        assert "monitors passing" in stdout

    def test_missing_trace_is_clean_error(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["dashboard", "--trace", str(tmp_path / "nope.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "repro dashboard:" in err and "not found" in err
        assert "Traceback" not in err

    def test_empty_trace_is_clean_error(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "empty.jsonl"
        path.write_text("")
        rc = main(["dashboard", "--trace", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "empty" in err and "Traceback" not in err

    def test_future_schema_is_clean_error(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps(
            {"kind": "queue.update", "schema_version": SCHEMA_VERSION + 1}
        ) + "\n")
        rc = main(["dashboard", "--trace", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "schema version" in err and "Traceback" not in err

    def test_telemetry_shares_error_path(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["telemetry", str(tmp_path / "gone.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "repro telemetry:" in err and "Traceback" not in err

    def test_strict_gates_on_failing_monitor(self, tmp_path, capsys):
        from repro.cli import main
        from repro.telemetry import write_jsonl_events

        path = tmp_path / "bad.jsonl"
        write_jsonl_events(
            [{"kind": "slot.outcome", "t": 0, "cost": 10.0,
              "electricity_cost": 1.0, "delay_cost": 1.0}],
            str(path),
        )
        out = tmp_path / "bad.html"
        rc = main(["dashboard", "--trace", str(path), "-o", str(out), "--strict"])
        assert rc == 2
        assert out.exists()  # report is still written for debugging
        err = capsys.readouterr().err
        assert "FAIL slot-sanity" in err
