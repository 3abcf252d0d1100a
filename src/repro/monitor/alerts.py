"""The alert channel: severities, deduplication, pluggable sinks.

Monitors do not print, raise, or log directly -- they raise *alerts*
through an :class:`AlertChannel`, which owns policy: which severities are
worth dispatching, how repeats of the same condition are collapsed, and
where alerts go.  Sinks are plain callables ``sink(alert)``: the stderr
sink here, or any user callback; any number can be attached at once.

Deduplication is by *key*: a monitor that detects the same condition on
every slot (say, a dropped-load threshold crossed for a 40-hour stretch)
raises with the same key each time, and the channel dispatches only the
first occurrence while counting the rest on :attr:`Alert.count`.  The
deduplicated alert log -- first slot, last slot, occurrence count per
condition -- is what the dashboard renders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

__all__ = [
    "SEVERITIES",
    "Alert",
    "AlertChannel",
    "stderr_sink",
]

#: Severity ladder, least to most severe; index = rank.
SEVERITIES = ("info", "warning", "critical")


def _rank(severity: str) -> int:
    try:
        return SEVERITIES.index(severity)
    except ValueError:
        raise ValueError(
            f"unknown severity {severity!r}; expected one of {SEVERITIES}"
        ) from None


@dataclass
class Alert:
    """One deduplicated alert condition.

    Attributes
    ----------
    severity:
        ``info`` / ``warning`` / ``critical``.
    monitor:
        Name of the monitor that raised it.
    message:
        Human-readable description of the first occurrence.
    t:
        Slot index of the first occurrence (None for run-level alerts).
    key:
        Deduplication key; repeats with the same key fold into this alert.
    count:
        Number of occurrences observed.
    last_t:
        Slot index of the most recent occurrence.
    """

    severity: str
    monitor: str
    message: str
    t: int | None = None
    key: str = ""
    count: int = 1
    last_t: int | None = field(default=None)

    def __post_init__(self) -> None:
        _rank(self.severity)
        if not self.key:
            self.key = f"{self.monitor}:{self.message}"
        if self.last_t is None:
            self.last_t = self.t


def stderr_sink(alert: Alert) -> None:
    """Print one line per (new) alert to stderr."""
    import sys

    where = "" if alert.t is None else f" at t={alert.t}"
    print(
        f"[{alert.severity.upper()}] {alert.monitor}{where}: {alert.message}",
        file=sys.stderr,
    )


class AlertChannel:
    """Collects, deduplicates, and dispatches alerts.

    Parameters
    ----------
    sinks:
        Callables invoked once per *new* alert key (repeats only bump the
        existing alert's count).
    min_severity:
        Alerts below this severity are counted but not dispatched to
        sinks; they still appear in :attr:`alerts`.
    dedup_window:
        Re-arming window in slots.  The default (``None``) keeps the
        historical batch behaviour: one dispatch per key, ever -- right
        for a finite run whose alert log is read at the end.  A
        forever-running service wants the condition *re-announced* when it
        persists or recurs: with a window of ``W``, a repeat whose slot is
        at least ``W`` past the last *dispatched* occurrence is sent to
        the sinks again (still folded into the same :class:`Alert`;
        :attr:`Alert.count` keeps the true occurrence total).
    """

    def __init__(
        self,
        sinks: Iterable[Callable[[Alert], None]] = (),
        *,
        min_severity: str = "info",
        dedup_window: int | None = None,
    ) -> None:
        _rank(min_severity)
        if dedup_window is not None and dedup_window < 1:
            raise ValueError("dedup_window must be >= 1 slot (or None)")
        self.sinks = list(sinks)
        self.min_severity = min_severity
        self.dedup_window = dedup_window
        self._by_key: dict[str, Alert] = {}
        #: key -> slot of the most recent sink dispatch (re-arming state).
        self._dispatched_at: dict[str, int | None] = {}

    # ------------------------------------------------------------------
    def raise_alert(
        self,
        severity: str,
        monitor: str,
        message: str,
        *,
        t: int | None = None,
        key: str | None = None,
    ) -> Alert:
        """Record one occurrence of a condition; returns the (folded) alert.

        ``key`` defaults to ``monitor:message``, so monitors that want
        per-condition (rather than per-slot) folding should pass a key that
        omits slot-varying detail.
        """
        alert = Alert(
            severity=severity, monitor=monitor, message=message, t=t,
            key=key if key is not None else "",
        )
        existing = self._by_key.get(alert.key)
        if existing is not None:
            existing.count += 1
            existing.last_t = t if t is not None else existing.last_t
            # Escalation wins: a condition that worsens keeps the worst
            # severity it ever reached.
            if _rank(alert.severity) > _rank(existing.severity):
                existing.severity = alert.severity
            if self._rearmed(existing.key, t) and self._dispatchable(existing):
                self._dispatch(existing, t)
            return existing
        self._by_key[alert.key] = alert
        if self._dispatchable(alert):
            self._dispatch(alert, t)
        return alert

    def _dispatchable(self, alert: Alert) -> bool:
        return _rank(alert.severity) >= _rank(self.min_severity)

    def _rearmed(self, key: str, t: int | None) -> bool:
        """Whether a repeat at slot ``t`` should be re-dispatched."""
        if self.dedup_window is None or t is None:
            return False
        last = self._dispatched_at.get(key)
        return last is None or t - last >= self.dedup_window

    def _dispatch(self, alert: Alert, t: int | None) -> None:
        self._dispatched_at[alert.key] = t
        for sink in self.sinks:
            sink(alert)

    # ------------------------------------------------------------------
    @property
    def alerts(self) -> list[Alert]:
        """Deduplicated alerts in first-raised order."""
        return list(self._by_key.values())

    def count(self, severity: str | None = None) -> int:
        """Number of distinct alert conditions (optionally of one severity)."""
        if severity is None:
            return len(self._by_key)
        _rank(severity)
        return sum(1 for a in self._by_key.values() if a.severity == severity)

    @property
    def worst_severity(self) -> str | None:
        """Most severe level raised so far, or None when quiet."""
        if not self._by_key:
            return None
        return max((a.severity for a in self._by_key.values()), key=_rank)
