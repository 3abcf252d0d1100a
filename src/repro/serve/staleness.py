"""Staleness policy: turning an unreliable feed into one frame per slot.

The slot clock only moves forward.  Whatever the feed does -- deliver on
time, deliver late, skip a slot, deliver slots out of order, omit fields --
the resolver produces exactly one *complete* frame for the current slot and
accounts for how it got it:

===============  =====================================================
``ok``           the slot's frame arrived complete on the first poll
``late``         the frame arrived after at least one empty poll (still
                 within the timeout; used as-is)
``missing``      no frame by the timeout; every field is synthesized
``gap``          a *future* slot's frame arrived instead; it is buffered
                 for its own slot and the current slot goes missing
``out_of_order`` a frame for an already-resolved slot arrived; discarded
                 (the clock never goes backwards)
``degraded``     the frame arrived but lost fields; the holes are filled
===============  =====================================================

Synthesized values degrade through the existing fault layer rather than
inventing a parallel path: each lost field is registered on the run's
:class:`~repro.faults.FaultInjector` via :meth:`~repro.faults.FaultInjector.inject_signal`,
so the controller's observation is degraded by the *same* code, telemetry
(``fault.signal``) and monitors (:class:`~repro.monitor.faults.FaultActivityMonitor`)
that scheduled chaos uses.  The resolver additionally emits ``signal.*``
events and counters so feed health is observable independently of chaos.

Timing is injected (``clock`` / ``sleep``), so tests drive the resolver
with fake time and the replay path never reads a clock at all.
"""

from __future__ import annotations

import time as _time
from typing import Callable

from ..faults import FaultInjector
from ..telemetry import Telemetry, coerce
from .signals import OPTIONAL_FIELDS, SignalFrame, SignalSource

__all__ = ["StalenessResolver", "RESOLUTIONS"]

#: Resolution outcomes, in the order :meth:`StalenessResolver.stats` reports.
RESOLUTIONS = ("ok", "late", "missing", "gap", "out_of_order", "degraded_fields")

#: Fields whose loss is routed through the fault injector (the injector's
#: SIGNAL_FIELDS vocabulary; frame field -> injector field).  These are the
#: three the controller observes; a frame that loses only
#: ``arrival_actual`` or ``offsite`` counts as ``degraded_fields`` and is
#: filled from the donor without an injector event.
_INJECTED_FIELDS = {"arrival": "arrival", "onsite": "onsite", "price": "price"}


class StalenessResolver:
    """Resolves one complete :class:`SignalFrame` per slot from a source.

    Parameters
    ----------
    source:
        The feed to poll.
    injector:
        The run's fault injector; lost signals are registered here so the
        observation degrades through the standard path.  ``None`` (replay
        mode) asserts the feed is perfect -- a missing or degraded frame
        then raises instead of degrading, because replay promised
        determinism.
    telemetry:
        ``signal.*`` events and counters.
    timeout_s:
        Wall-clock budget to wait for the slot's frame; 0 gives up after
        the first empty poll (the deterministic setting -- no clock reads).
    poll_interval_s:
        Sleep between polls while waiting (ignored with ``timeout_s=0``).
    peak_arrival:
        The arrival rate a cold start plans for: a first frame that lost
        its prediction gets this one (``repro run`` passes the fleet's
        capacity), so losing frame 0 over-provisions one slot instead of
        switching every server off.  Realized values never observed stay 0.
    clock / sleep:
        Injectable time functions (tests use fakes; defaults are
        ``time.monotonic`` / ``time.sleep``).
    """

    def __init__(
        self,
        source: SignalSource,
        *,
        injector: FaultInjector | None = None,
        telemetry: Telemetry | None = None,
        timeout_s: float = 0.0,
        poll_interval_s: float = 0.05,
        peak_arrival: float = 0.0,
        clock: Callable[[], float] | None = None,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        if timeout_s < 0:
            raise ValueError("timeout_s must be non-negative")
        if poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        self.source = source
        self.injector = injector
        self.tele = coerce(telemetry)
        self.timeout_s = float(timeout_s)
        self.poll_interval_s = float(poll_interval_s)
        self._clock = clock if clock is not None else _time.monotonic
        self._sleep = sleep if sleep is not None else _time.sleep
        #: Future frames that arrived early, keyed by slot.
        self.pending: dict[int, SignalFrame] = {}
        #: Whether the frame most recently acquired needed empty polls.
        self._was_late = False
        self._empty_polls = 0
        #: Last fully-resolved frame (the value donor for synthesis).
        self.last: SignalFrame | None = None
        #: The donor before anything resolved.
        self._cold = SignalFrame(
            slot=-1, arrival=peak_arrival, onsite=0.0, price=0.0,
            arrival_actual=0.0, offsite=0.0,
        )
        self.counts: dict[str, int] = {k: 0 for k in RESOLUTIONS}

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Resolution counters (the ``signals`` block of ``/status``)."""
        return dict(self.counts)

    def _count(self, what: str, t: int, **fields) -> None:
        self.counts[what] += 1
        if self.tele.enabled:
            self.tele.emit(f"signal.{what}", t=t, **fields)
            self.tele.metrics.counter(f"signal.{what}").inc()

    # ------------------------------------------------------------------
    def _acquire(self, t: int) -> SignalFrame | None:
        """The raw frame for slot ``t``, or None when it never arrives."""
        self._was_late = False
        self._empty_polls = 0
        if t in self.pending:
            return self.pending.pop(t)
        deadline = None if self.timeout_s == 0.0 else self._clock() + self.timeout_s
        while True:
            frame = self.source.poll()
            if frame is None:
                if deadline is None or self._clock() >= deadline:
                    return None
                self._empty_polls += 1
                self._sleep(self.poll_interval_s)
                continue
            if frame.slot < t:
                # The slot clock never moves backwards: a frame for an
                # already-resolved slot is dropped, not applied.
                self._count("out_of_order", t, frame_slot=frame.slot)
                continue
            if frame.slot > t:
                # Early delivery of a future slot: keep it for its turn,
                # report the hole at t.
                self.pending[frame.slot] = frame
                return None
            self._was_late = self._empty_polls > 0
            return frame

    def _inject(self, t: int, fields: tuple[str, ...], mode: str) -> None:
        """Register lost signals with the fault injector (standard path)."""
        if self.injector is None:
            raise RuntimeError(
                f"slot {t}: feed degraded ({mode}: {', '.join(fields)}) but no "
                "fault injector is attached; replay sources promise perfect "
                "delivery, so attach an injector for live sources"
            )
        for field in fields:
            mapped = _INJECTED_FIELDS.get(field)
            if mapped is not None:
                self.injector.inject_signal(
                    mapped, "stale", t=t, duration=1, origin="signal_feed"
                )

    def _synthesize(self, t: int, frame: SignalFrame | None) -> SignalFrame:
        """Fill every hole in ``frame`` (or a wholly absent frame) from the
        last resolved values (the cold-start frame before any), registering
        each loss with the injector."""
        last = self.last if self.last is not None else self._cold
        donor = {field: getattr(last, field) for field in OPTIONAL_FIELDS}
        if frame is None:
            self._inject(t, tuple(_INJECTED_FIELDS), "missing_frame")
            return SignalFrame(
                slot=t, network_delay=last.network_delay, pue=last.pue, **donor
            )
        holes = frame.missing_fields
        self._inject(t, holes, "missing_fields")
        self._count("degraded_fields", t, fields=list(holes))
        merged = {f: getattr(frame, f) for f in OPTIONAL_FIELDS}
        # A frame that lost its realized arrival falls back to its own
        # prediction first (the least-stale estimate available).
        if merged["arrival_actual"] is None and merged["arrival"] is not None:
            merged["arrival_actual"] = merged["arrival"]
        for field, value in merged.items():
            if value is None:
                merged[field] = donor[field]
        return SignalFrame(
            slot=t,
            network_delay=frame.network_delay,
            pue=frame.pue,
            **merged,
        )

    # ------------------------------------------------------------------
    def resolve(self, t: int) -> SignalFrame:
        """One complete frame for slot ``t``, whatever the feed did.

        Each slot lands in exactly one primary resolution -- ``ok``,
        ``late``, ``missing``, ``gap``, or ``degraded_fields`` (a
        late-and-holed frame counts as degraded: the worse condition
        wins) -- so the five counters partition the horizon;
        ``out_of_order`` counts *discarded frames*, not slots.
        """
        frame = self._acquire(t)
        if frame is None:
            kind = "gap" if self.pending else "missing"
            self._count(kind, t, pending=sorted(self.pending))
            resolved = self._synthesize(t, None)
        elif frame.missing_fields:
            resolved = self._synthesize(t, frame)
        elif self._was_late:
            self._count("late", t, empty_polls=self._empty_polls)
            resolved = frame
        else:
            self._count("ok", t)
            resolved = frame
        self.last = resolved
        return resolved

    # ------------------------------------------------------------------
    def restore(
        self, last: SignalFrame | None, counts: dict[str, int] | None = None
    ) -> None:
        """Reposition after a resume: the donor for synthesis is the last
        frame of the prefix the checkpoint covers, so degraded values
        reproduce bit-identically, and ``counts`` are that prefix's
        resolutions, so :meth:`stats` reports the whole run."""
        self.pending.clear()
        self.last = last
        self.counts.update(counts or {})  # in place: the environment shares it
