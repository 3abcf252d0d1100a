"""Runtime fault injection for the slot simulator.

:class:`FaultInjector` turns a declarative
:class:`~repro.faults.schedule.FaultSchedule` into per-slot effects:

* tracks which server groups are down (``failed_groups``), applying
  ``group_fail`` / ``group_repair`` events at their slot;
* degrades the controller's :class:`~repro.core.controller.SlotObservation`
  while a ``signal`` fault is active (stale = frozen at the last clean
  value, missing = conservative default);
* installs a seeded :class:`~repro.faults.bus.FaultyMessageBus` factory
  into a message-passing solver so the distributed protocol experiences
  the schedule's loss/delay/duplication.

The injector holds **no RNG of its own** — every random choice was made
when the schedule was generated (timed events) or is made by the seeded
bus (message faults, salted with a deterministic per-solve counter), so a
chaos run is a pure function of ``(scenario seed, fault schedule)`` and
replays bit-identically.  With an empty schedule every method is a no-op
returning its inputs unchanged, preserving the repo's bit-identical
uninstrumented-run contract.

Everything the injector does is emitted as ``fault.*`` telemetry (schema
v2) so the :mod:`repro.monitor` watchdogs and dashboard can surface the
chaos a run experienced.
"""

from __future__ import annotations

from dataclasses import replace

from ..core.controller import SlotObservation
from ..telemetry import NULL_TELEMETRY, Telemetry, coerce
from .bus import FaultyMessageBus
from .schedule import FaultEvent, FaultSchedule

__all__ = ["FaultInjector"]


def _event_payload(event: FaultEvent) -> dict:
    """Telemetry payload for a fault event; the event's ``kind`` field is
    renamed ``fault`` so it cannot shadow the telemetry event kind."""
    payload = event.to_dict()
    payload["fault"] = payload.pop("kind")
    return payload


class FaultInjector:
    """Applies one :class:`FaultSchedule` to one simulation run.

    Parameters
    ----------
    schedule:
        The chaos scenario to inject.
    num_groups:
        Fleet size; used to refuse a failure that would take the *last*
        healthy group down (the simulator needs some capacity to exist —
        such events are suppressed and reported, not applied).
    default_retries:
        Retry budget handed to a message-passing solver that has none
        configured when :meth:`install` wires in the faulty bus.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        *,
        num_groups: int | None = None,
        default_retries: int = 3,
    ) -> None:
        if default_retries < 0:
            raise ValueError("default_retries must be non-negative")
        self.schedule = schedule
        self.num_groups = num_groups
        self.default_retries = default_retries
        self.telemetry: Telemetry = NULL_TELEMETRY

        self.failed_groups: set[int] = set()
        #: field -> (mode, first slot *past* the fault window)
        self._active_signals: dict[str, tuple[str, int]] = {}
        self._last_clean: dict[str, float] = {}
        self._by_slot = schedule.by_slot()
        self._solve_count = 0
        self.last_bus: FaultyMessageBus | None = None

        # Bookkeeping for summaries and monitors.
        self.injected = 0
        self.suppressed = 0
        self.ignored = 0
        self.by_kind: dict[str, int] = {}

    # ------------------------------------------------------------------
    def bind_telemetry(self, telemetry: Telemetry | None) -> None:
        """Attach the run's telemetry stream (``fault.*`` events)."""
        self.telemetry = coerce(telemetry)

    # ------------------------------------------------------------------
    def begin_slot(self, t: int) -> list[FaultEvent]:
        """Apply the schedule's events for slot ``t``; returns those applied."""
        for field_ in [
            f for f, (_, until) in self._active_signals.items() if until <= t
        ]:
            del self._active_signals[field_]

        applied: list[FaultEvent] = []
        for event in self._by_slot.get(t, ()):  # schedule order is sorted
            if event.kind == "group_fail":
                if event.group in self.failed_groups:
                    self._skip(event, "already_down")
                    continue
                if (
                    self.num_groups is not None
                    and len(self.failed_groups) + 1 >= self.num_groups
                ):
                    # Losing the last healthy group leaves nothing to serve
                    # with; report the near-miss instead of applying it.
                    self._suppress(event, "last_healthy_group")
                    continue
                self.failed_groups.add(int(event.group))  # type: ignore[arg-type]
            elif event.kind == "group_repair":
                if event.group not in self.failed_groups:
                    self._skip(event, "not_down")
                    continue
                self.failed_groups.discard(int(event.group))  # type: ignore[arg-type]
            else:  # signal
                self._active_signals[event.field] = (  # type: ignore[index]
                    event.mode,  # type: ignore[assignment]
                    t + event.duration,
                )
            applied.append(event)
            self.injected += 1
            self.by_kind[event.kind] = self.by_kind.get(event.kind, 0) + 1
            if self.telemetry.enabled:
                self.telemetry.emit(
                    "fault.inject",
                    **_event_payload(event),
                    failed_groups=sorted(self.failed_groups),
                )
                self.telemetry.metrics.counter("fault.injected").inc()
        return applied

    def _suppress(self, event: FaultEvent, reason: str) -> None:
        self.suppressed += 1
        if self.telemetry.enabled:
            self.telemetry.emit(
                "fault.suppressed", reason=reason, **_event_payload(event)
            )

    def _skip(self, event: FaultEvent, reason: str) -> None:
        self.ignored += 1
        if self.telemetry.enabled:
            self.telemetry.emit(
                "fault.ignored", reason=reason, **_event_payload(event)
            )

    # ------------------------------------------------------------------
    def inject_signal(
        self,
        field: str,
        mode: str,
        *,
        t: int,
        duration: int = 1,
        origin: str = "runtime",
    ) -> None:
        """Activate a signal fault *now*, outside the declarative schedule.

        The serving loop's staleness policy calls this when a live feed
        loses an observation: a late/missing signal is exactly a ``signal``
        fault, so it degrades through :meth:`degrade_observation` -- same
        last-clean semantics, same ``fault.signal`` telemetry, same monitor
        visibility -- instead of growing a parallel degradation path.

        Call it *before* the slot's :meth:`begin_slot`: the fault stays
        active through slot ``t + duration - 1`` (``begin_slot`` expires
        entries at their first slot past the window, matching scheduled
        signal events).
        """
        from .schedule import SIGNAL_FIELDS, SIGNAL_MODES

        if field not in SIGNAL_FIELDS:
            raise ValueError(
                f"signal field must be one of {SIGNAL_FIELDS}, got {field!r}"
            )
        if mode not in SIGNAL_MODES:
            raise ValueError(
                f"signal mode must be one of {SIGNAL_MODES}, got {mode!r}"
            )
        if duration < 1:
            raise ValueError("signal fault duration must be >= 1 slot")
        self._active_signals[field] = (mode, int(t) + int(duration))
        self.injected += 1
        self.by_kind["signal"] = self.by_kind.get("signal", 0) + 1
        if self.telemetry.enabled:
            self.telemetry.emit(
                "fault.inject",
                t=int(t),
                fault="signal",
                field=field,
                mode=mode,
                duration=int(duration),
                origin=origin,
                failed_groups=sorted(self.failed_groups),
            )
            self.telemetry.metrics.counter("fault.injected").inc()

    # ------------------------------------------------------------------
    def degrade_observation(self, observation: SlotObservation) -> SlotObservation:
        """The controller's view of slot ``t`` under active signal faults.

        ``stale`` freezes a field at its last clean value; ``missing``
        falls back conservatively — on-site supply to zero (assume no
        renewables rather than imaginary ones), price and the workload
        prediction to their last clean values (the facility must still
        plan *some* capacity).  With no active faults the observation is
        returned unchanged (the same object, preserving bit-identity).
        """
        clean = {
            "price": observation.price,
            "onsite": observation.onsite,
            "arrival": observation.arrival_rate,
        }
        if not self._active_signals:
            self._last_clean.update(clean)
            return observation

        overrides: dict[str, float] = {}
        for field_, value in clean.items():
            fault = self._active_signals.get(field_)
            if fault is None:
                self._last_clean[field_] = value
                continue
            mode = fault[0]
            if mode == "missing" and field_ == "onsite":
                degraded = 0.0
            else:  # stale, or missing price/arrival: hold the last clean value
                degraded = self._last_clean.get(field_, value)
            attr = "arrival_rate" if field_ == "arrival" else field_
            overrides[attr] = degraded
            if self.telemetry.enabled:
                self.telemetry.emit(
                    "fault.signal",
                    t=observation.t,
                    field=field_,
                    mode=mode,
                    clean=value,
                    degraded=degraded,
                )
        return replace(observation, **overrides)

    # ------------------------------------------------------------------
    def bus_factory(self) -> FaultyMessageBus:
        """A fresh seeded faulty bus; each call salts the profile's seed
        with a deterministic per-solve counter, so every slot sees a
        distinct but fully reproducible fault pattern."""
        profile = self.schedule.messages
        if profile is None:
            raise ValueError("schedule has no message-fault profile")
        salt = self._solve_count
        self._solve_count += 1
        bus = FaultyMessageBus.from_profile(profile, salt=salt)
        self.last_bus = bus
        return bus

    def install(self, controller) -> bool:
        """Wire message faults into the controller's solver, if any.

        Returns True when a message-passing solver (one exposing
        ``bus_factory``, e.g.
        :class:`~repro.solvers.messaging.DistributedGSD`) was found and
        the schedule carries a non-null message profile.  Solvers with no
        retry budget get ``default_retries`` so a single lost message does
        not doom every solve.
        """
        profile = self.schedule.messages
        if profile is None or profile.is_null:
            return False
        solver = getattr(controller, "solver", controller)
        if not hasattr(solver, "bus_factory"):
            return False
        solver.bus_factory = self.bus_factory
        if getattr(solver, "retries", 0) == 0:
            solver.retries = self.default_retries
        return True

    # -------------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """Everything mutable about the injector mid-run.

        The schedule itself is immutable configuration (the resume manifest
        carries it); what a checkpoint needs is the *cursor*: which groups
        are down, which signal faults are active and until when, the
        last-clean observation values, the per-solve bus-salt counter, and
        the accounting so ``fault.summary`` stays consistent after resume.
        """
        return {
            "failed_groups": sorted(int(g) for g in self.failed_groups),
            "active_signals": {
                field_: [str(mode), int(until)]
                for field_, (mode, until) in sorted(self._active_signals.items())
            },
            "last_clean": {k: float(v) for k, v in sorted(self._last_clean.items())},
            "solve_count": int(self._solve_count),
            "injected": int(self.injected),
            "suppressed": int(self.suppressed),
            "ignored": int(self.ignored),
            "by_kind": {str(k): int(v) for k, v in sorted(self.by_kind.items())},
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore the injection cursor captured by :meth:`state_dict`.

        Checkpoints of older versions also carry an ``active_forecast``
        key (the removed forecast fault kind); it is ignored."""
        self.failed_groups = {int(g) for g in state["failed_groups"]}
        self._active_signals = {
            field_: (str(mode), int(until))
            for field_, (mode, until) in state["active_signals"].items()
        }
        self._last_clean = {k: float(v) for k, v in state["last_clean"].items()}
        self._solve_count = int(state["solve_count"])
        self.injected = int(state["injected"])
        self.suppressed = int(state["suppressed"])
        self.ignored = int(state["ignored"])
        self.by_kind = {str(k): int(v) for k, v in state["by_kind"].items()}

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Run-level fault accounting for telemetry and CLI reports."""
        out = {
            "injected": int(self.injected),
            "suppressed": int(self.suppressed),
            "ignored": int(self.ignored),
            "by_kind": dict(self.by_kind),
            "failed_groups_at_end": sorted(self.failed_groups),
            "bus_solves": int(self._solve_count),
        }
        if self.last_bus is not None:
            out["last_bus"] = self.last_bus.fault_stats()
        return out
