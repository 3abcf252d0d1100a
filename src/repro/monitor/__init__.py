"""Health monitoring: watchdogs over the telemetry stream.

PR 1's :mod:`repro.telemetry` records what a run did; this package judges
whether it was *healthy*.  It consumes the same event stream -- live,
through a :class:`MonitoringTracer` tap on the run's tracer, or offline by
replaying a JSONL trace -- and layers on:

- **invariant monitors** (:mod:`~repro.monitor.invariants`): the
  deficit-queue Lyapunov bound, the carbon-budget trajectory, per-slot
  load conservation/capacity, dropped-load thresholds, accounting sanity;
- **GSD convergence diagnostics** (:mod:`~repro.monitor.gsd`): acceptance
  band, improvement-stall detection, cross-chain dispersion;
- an **alert channel** (:mod:`~repro.monitor.alerts`) with severity
  levels, deduplication, and pluggable sinks;
- the **offline HTML dashboard** (:mod:`~repro.monitor.dashboard`) behind
  ``repro dashboard``.

Everything is opt-in and read-only: monitors never touch the simulation's
arithmetic or RNG, so an instrumented run stays bit-identical.  See
``docs/MONITORING.md`` for the monitor catalog.
"""

from .alerts import SEVERITIES, Alert, AlertChannel, JsonlAlertSink, stderr_sink
from .base import HealthMonitor, MonitorReport
from .dashboard import DASHBOARD_SECTIONS, render_dashboard, write_dashboard
from .deadline import DeadlineMonitor
from .faults import FaultActivityMonitor
from .gsd import GSDAcceptanceMonitor, GSDDispersionMonitor, GSDStallMonitor
from .invariants import (
    BudgetTrajectoryMonitor,
    DroppedLoadMonitor,
    LoadConservationMonitor,
    QueueBoundMonitor,
    SlotSanityMonitor,
)
from .suite import (
    MonitoringTracer,
    MonitorSuite,
    default_suite,
    monitored_telemetry,
    replay,
)

__all__ = [
    "SEVERITIES",
    "Alert",
    "AlertChannel",
    "JsonlAlertSink",
    "stderr_sink",
    "HealthMonitor",
    "MonitorReport",
    "QueueBoundMonitor",
    "BudgetTrajectoryMonitor",
    "LoadConservationMonitor",
    "DroppedLoadMonitor",
    "SlotSanityMonitor",
    "GSDAcceptanceMonitor",
    "GSDStallMonitor",
    "GSDDispersionMonitor",
    "FaultActivityMonitor",
    "DeadlineMonitor",
    "MonitorSuite",
    "MonitoringTracer",
    "default_suite",
    "monitored_telemetry",
    "replay",
    "render_dashboard",
    "write_dashboard",
    "DASHBOARD_SECTIONS",
]
