"""Watchdog over the fault-injection stream (``fault.*`` events).

Chaos runs are healthy exactly when the *other* invariant monitors stay
green while this one documents the abuse: it counts injected faults,
degraded observations, protocol retries, and fallback slots, and raises
alerts so the dashboard's log tells the story of the run.  Fault activity
is not itself a violation — graceful degradation is the designed response
— so the monitor fails only on genuine inconsistencies:

* a ``fault.fallback`` slot in a run whose schedule carried no faults at
  all (the degradation machinery fired without a cause), or
* a ``fault.summary`` whose counters disagree with the events streamed
  before it (a telemetry-pipeline bug).
"""

from __future__ import annotations

from .alerts import AlertChannel
from .base import HealthMonitor

__all__ = ["FaultActivityMonitor"]


class FaultActivityMonitor(HealthMonitor):
    """Accounts for every injected fault and degradation decision."""

    name = "fault-activity"
    description = "fault injections and fallbacks are consistent and accounted"
    kinds = (
        "fault.inject",
        "fault.suppressed",
        "fault.ignored",
        "fault.signal",
        "fault.solve_retry",
        "fault.fallback",
        "fault.summary",
        "state.resume",
    )

    def __init__(self) -> None:
        super().__init__()
        self.injected = 0
        self.by_fault: dict[str, int] = {}
        self.suppressed = 0
        self.signals = 0
        self.retries = 0
        self.fallbacks = 0
        self._summary: dict | None = None

    # ------------------------------------------------------------------
    def observe(self, event: dict, alerts: AlertChannel) -> None:
        kind = event["kind"]
        self.checked += 1
        if kind == "fault.inject":
            self.injected += 1
            fault = str(event.get("fault", "?"))
            self.by_fault[fault] = self.by_fault.get(fault, 0) + 1
            if fault == "group_fail":
                alerts.raise_alert(
                    "info",
                    self.name,
                    f"server group {event.get('group')} failed",
                    t=event.get("t"),
                    key=f"{self.name}:group_fail",
                )
        elif kind == "fault.suppressed":
            self.suppressed += 1
            alerts.raise_alert(
                "warning",
                self.name,
                f"schedule event suppressed ({event.get('reason')}): "
                f"{event.get('fault')} @ t={event.get('t')}",
                t=event.get("t"),
                key=f"{self.name}:suppressed",
            )
        elif kind == "fault.signal":
            self.signals += 1
        elif kind == "fault.solve_retry":
            self.retries += 1
        elif kind == "fault.fallback":
            self.fallbacks += 1
            alerts.raise_alert(
                "warning",
                self.name,
                f"slot solve failed ({event.get('reason')}); committed "
                f"{event.get('mode')} fallback",
                t=event.get("t"),
                key=f"{self.name}:fallback",
            )
        elif kind == "fault.summary":
            self._summary = event
        elif kind == "state.resume" and "faults" in event:
            # A resumed run's summary counts the slots before the resume too.
            before = event["faults"]
            self.injected = int(before["injected"])
            self.by_fault = {str(k): int(v) for k, v in before["by_kind"].items()}
            self.suppressed = int(before["suppressed"])
            self.retries = int(before["solve_retries"])
            self.fallbacks = int(before["fallbacks"])

    def finalize(self, alerts: AlertChannel) -> None:
        if self.fallbacks and self.injected == 0 and self._summary is None:
            self.violations += 1
            alerts.raise_alert(
                "critical",
                self.name,
                f"{self.fallbacks} fallback slot(s) in a run with no "
                "injected faults — degradation fired without a cause",
                key=f"{self.name}:uncaused-fallback",
            )
        if self._summary is not None:
            reported = int(self._summary.get("injected", -1))
            if reported != self.injected:
                self.violations += 1
                alerts.raise_alert(
                    "critical",
                    self.name,
                    f"fault.summary reports {reported} injections but the "
                    f"stream carried {self.injected}",
                    key=f"{self.name}:summary-mismatch",
                )

    # ------------------------------------------------------------------
    def detail(self) -> str:
        if self.checked == 0:
            return "no fault events (clean run)"
        parts = [f"{self.injected} injected"]
        if self.by_fault:
            parts.append(
                ", ".join(f"{k}={v}" for k, v in sorted(self.by_fault.items()))
            )
        parts.append(f"{self.signals} degraded observations")
        parts.append(f"{self.retries} solve retries")
        parts.append(f"{self.fallbacks} fallback slots")
        if self.suppressed:
            parts.append(f"{self.suppressed} suppressed")
        return "; ".join(parts)
