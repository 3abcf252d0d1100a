"""Wiring monitors into a run: the tracer tap, offline replay, defaults.

Two consumption modes, one code path:

- **Live**: wrap the run's tracer in a :class:`MonitoringTracer` (or build
  the whole bundle with :func:`monitored_telemetry`) and pass it through
  the existing ``telemetry=`` parameter.  Every event is forwarded to the
  underlying sink *and* fed to the suite as it happens, so alerts fire
  mid-run; nothing else in the pipeline changes, and a run without the tap
  stays bit-identical.
- **Offline**: :func:`replay` feeds a recorded JSONL trace through the
  same suite, which is how ``repro dashboard`` audits finished runs.

:func:`default_suite` builds the standard monitor set -- every invariant
monitor plus the GSD gap check -- with self-calibrating defaults.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..telemetry.bundle import Telemetry
from ..telemetry.tracer import NULL_TRACER, SCHEMA_VERSION, Tracer, new_run_id
from .alerts import Alert, AlertChannel
from .base import HealthMonitor, MonitorReport
from .deadline import DeadlineMonitor
from .faults import FaultActivityMonitor
from .gsd import GSDGapMonitor
from .invariants import (
    BudgetTrajectoryMonitor,
    DroppedLoadMonitor,
    LoadConservationMonitor,
    QueueBoundMonitor,
    SlotSanityMonitor,
)

__all__ = [
    "MonitorSuite",
    "MonitoringTracer",
    "default_suite",
    "monitored_telemetry",
    "replay",
]


class MonitorSuite:
    """A set of monitors sharing one alert channel.

    Feed events with :meth:`observe` (the tap and :func:`replay` both call
    it), close the stream with :meth:`finalize`, and read the verdicts from
    :meth:`reports` / :attr:`alerts`.
    """

    def __init__(
        self,
        monitors: Sequence[HealthMonitor],
        *,
        channel: AlertChannel | None = None,
    ) -> None:
        self.monitors = list(monitors)
        self.channel = channel if channel is not None else AlertChannel()
        self._finalized = False
        # kind -> interested monitors, built lazily per kind seen: the tap
        # sits on the per-slot hot path, so routing must be one dict hit,
        # not a scan of every monitor's subscription tuple.
        self._routes: dict[str | None, list[HealthMonitor]] = {}

    def observe(self, event: dict) -> None:
        """Route one event to every monitor subscribed to its kind."""
        kind = event.get("kind")
        route = self._routes.get(kind)
        if route is None:
            route = self._routes[kind] = [
                m for m in self.monitors if not m.kinds or kind in m.kinds
            ]
        channel = self.channel
        for monitor in route:
            monitor.observe(event, channel)

    def finalize(self) -> list[MonitorReport]:
        """Run end-of-stream checks (idempotent) and return the reports."""
        if not self._finalized:
            for monitor in self.monitors:
                monitor.finalize(self.channel)
            self._finalized = True
        return self.reports()

    def reports(self) -> list[MonitorReport]:
        return [monitor.report() for monitor in self.monitors]

    @property
    def alerts(self) -> list[Alert]:
        return self.channel.alerts

    @property
    def passed(self) -> bool:
        """True when every monitor's invariant held."""
        return all(report.passed for report in self.reports())


class MonitoringTracer(Tracer):
    """Tracer tap: stamp, feed the suite, forward to the inner sink.

    Stands wherever a tracer does, so monitoring threads through
    ``simulate`` / ``SlotRunner`` / the solvers via the existing
    ``telemetry=`` bundle.  Events are stamped here (one ``run_id`` for
    the tapped stream), handed to the suite, then forwarded with their
    stamps so the inner sink writes identical lines.
    """

    def __init__(self, suite: MonitorSuite, inner: Tracer | None = None, *,
                 run_id: str | None = None) -> None:
        self.suite = suite
        self.inner = inner if inner is not None else NULL_TRACER
        self.run_id = run_id if run_id is not None else new_run_id()
        # Bound methods cached once: emit runs several times per slot.
        self._observe = suite.observe
        self._forward = self.inner.emit_event if self.inner.enabled else None

    def emit(self, kind: str, /, **fields) -> None:
        event = {"kind": kind, "schema_version": SCHEMA_VERSION, "run_id": self.run_id}
        event.update(fields)
        self._observe(event)
        if self._forward is not None:
            # Forward the already-built dict; the sink keeps our stamps.
            self._forward(event)

    def emit_event(self, event: dict) -> None:
        self._observe(event)
        if self._forward is not None:
            self._forward(event)

    def close(self) -> None:
        self.suite.finalize()
        self.inner.close()


def default_suite(
    *,
    channel: AlertChannel | None = None,
    extra: Iterable[HealthMonitor] = (),
    **overrides,
) -> MonitorSuite:
    """The standard health-monitor set.

    Keyword overrides are forwarded to the individual monitors by name:
    ``w_max`` / ``y_max`` / ``slack`` (queue bound), ``alpha`` (budget),
    ``capacity`` (load conservation).  Anything not supplied is
    self-calibrated from the trace's ``run.start`` / ``controller.config``
    events.
    """
    queue_kw = {k: overrides[k] for k in ("w_max", "y_max", "slack") if k in overrides}
    budget_kw = {k: overrides[k] for k in ("alpha",) if k in overrides}
    load_kw = {k: overrides[k] for k in ("capacity",) if k in overrides}
    known = set(queue_kw) | set(budget_kw) | set(load_kw)
    unknown = set(overrides) - known
    if unknown:
        raise TypeError(f"unknown default_suite overrides: {sorted(unknown)}")
    monitors: list[HealthMonitor] = [
        QueueBoundMonitor(**queue_kw),
        BudgetTrajectoryMonitor(**budget_kw),
        LoadConservationMonitor(**load_kw),
        DroppedLoadMonitor(),
        SlotSanityMonitor(),
        GSDGapMonitor(),
        FaultActivityMonitor(),
        DeadlineMonitor(),
    ]
    monitors.extend(extra)
    return MonitorSuite(monitors, channel=channel)


def monitored_telemetry(
    suite: MonitorSuite | None = None,
    *,
    tracer: Tracer | None = None,
) -> tuple[Telemetry, MonitorSuite]:
    """A ``Telemetry`` bundle whose tracer feeds ``suite`` live.

    ``tracer`` is the optional downstream sink (e.g. a ``JsonlTracer``);
    returns ``(telemetry, suite)`` so callers keep a handle on the suite
    they can ``finalize()`` after the run.
    """
    suite = suite if suite is not None else default_suite()
    return Telemetry(tracer=MonitoringTracer(suite, tracer)), suite


def replay(events: Iterable[dict], suite: MonitorSuite | None = None) -> MonitorSuite:
    """Feed a recorded trace through ``suite`` (default: the standard set)
    and finalize it; returns the suite for reports and alerts."""
    suite = suite if suite is not None else default_suite()
    for event in events:
        suite.observe(event)
    suite.finalize()
    return suite
