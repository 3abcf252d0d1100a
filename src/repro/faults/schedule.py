"""Declarative, seeded fault schedules.

The paper's robustness story (section 4.2's server-failure remark, the
ROADMAP's "as many scenarios as you can imagine") needs faults that arrive
*mid-horizon*, not as a static configuration.  A :class:`FaultSchedule` is
the single source of truth for one chaos scenario:

* **timed events** (:class:`FaultEvent`): server-group failures and
  repairs, stale/missing exogenous signals (price, on-site renewables,
  the workload prediction);
* a **message-fault profile** (:class:`MessageFaultProfile`): seeded
  loss/delay/duplication probabilities applied to every message of the
  distributed protocol in :mod:`repro.solvers.messaging`.

Schedules are plain data: JSON/dict round-trippable (``to_dict`` /
``from_dict`` / ``to_json`` / ``from_json``) and fully reproducible --
:meth:`FaultSchedule.generate` derives every event from one integer seed,
so the same seed always yields a bit-identical schedule, and replaying a
recorded schedule reproduces the original chaos run exactly (the property
tests in ``tests/test_faults.py`` pin both).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FaultEvent",
    "MessageFaultProfile",
    "FaultSchedule",
    "FAULT_KINDS",
]

#: Timed event kinds a schedule may contain.
FAULT_KINDS = ("group_fail", "group_repair", "signal")

#: Observation fields a ``signal`` event may degrade.
SIGNAL_FIELDS = ("price", "onsite", "arrival")

#: Degradation modes for signal faults: ``stale`` freezes the field at its
#: last clean value; ``missing`` drops it entirely (price/arrival fall back
#: to hold-last-value, on-site supply conservatively to zero).
SIGNAL_MODES = ("stale", "missing")


#: PCG64's period: advancing by ``_PERIOD - k`` steps back ``k`` outputs.
_PERIOD = 1 << 128


def _rewind_buffered(bitgen: np.random.BitGenerator, draws: int) -> None:
    """Step ``bitgen`` (PCG64) back by ``draws`` 64-bit outputs while it
    holds the buffered half of a 64-bit output.

    ``advance`` moves the state modulo the period, and it also drops the
    half that bounded 32-bit ``integers`` draws leave behind.  That half
    is put back, so later ``integers`` draws see the same stream as if
    nothing had been rewound.  With no half buffered a bare
    ``advance(_PERIOD - draws)`` does the same, without the state round
    trip.
    """
    before = bitgen.state
    bitgen.advance(_PERIOD - draws)
    after = bitgen.state
    after["has_uint32"] = before["has_uint32"]
    after["uinteger"] = before["uinteger"]
    bitgen.state = after


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault.

    Parameters
    ----------
    t:
        Slot index at which the event takes effect (start of slot).
    kind:
        One of :data:`FAULT_KINDS`.
    group:
        Target group index (``group_fail`` / ``group_repair``).
    field:
        Degraded observation field (``signal``); see :data:`SIGNAL_FIELDS`.
    mode:
        ``"stale"`` or ``"missing"`` (``signal``).
    duration:
        Number of slots a ``signal`` fault stays active (failures persist
        until an explicit ``group_repair``).
    """

    t: int
    kind: str
    group: int | None = None
    field: str | None = None
    mode: str | None = None
    duration: int = 1

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError(f"fault time must be non-negative, got {self.t}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (use {FAULT_KINDS})")
        if self.kind in ("group_fail", "group_repair"):
            if self.group is None or self.group < 0:
                raise ValueError(f"{self.kind} needs a non-negative group index")
        if self.kind == "signal":
            if self.field not in SIGNAL_FIELDS:
                raise ValueError(
                    f"signal fault field must be one of {SIGNAL_FIELDS}, got {self.field!r}"
                )
            if self.mode not in SIGNAL_MODES:
                raise ValueError(
                    f"signal fault mode must be one of {SIGNAL_MODES}, got {self.mode!r}"
                )
            if self.duration < 1:
                raise ValueError("signal fault duration must be >= 1 slot")

    def to_dict(self) -> dict:
        """Flat JSON-safe representation (``None`` fields omitted)."""
        out: dict = {"t": int(self.t), "kind": self.kind}
        if self.group is not None:
            out["group"] = int(self.group)
        if self.field is not None:
            out["field"] = self.field
        if self.mode is not None:
            out["mode"] = self.mode
        if self.kind == "signal":
            out["duration"] = int(self.duration)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        known = {"t", "kind", "group", "field", "mode", "duration"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault event keys: {sorted(unknown)}")
        return cls(
            t=int(data["t"]),
            kind=str(data["kind"]),
            group=None if data.get("group") is None else int(data["group"]),
            field=data.get("field"),
            mode=data.get("mode"),
            duration=int(data.get("duration", 1)),
        )


def _group_event(t: int, kind: str, group: int) -> FaultEvent:
    """A group failure or repair whose fields the generator knows are
    valid, built without the dataclass ``__init__`` and its checks.  The
    unset fields read their defaults off the class."""
    event = object.__new__(FaultEvent)
    object.__setattr__(event, "t", t)
    object.__setattr__(event, "kind", kind)
    object.__setattr__(event, "group", group)
    return event


@dataclass(frozen=True)
class MessageFaultProfile:
    """Seeded per-message fault probabilities for the distributed protocol.

    Every attempt at a protocol message independently vanishes with
    probability ``loss``, is delivered but has its reply miss the sender's
    timeout window with probability ``delay``, or is delivered twice with
    probability ``duplicate``; the
    :class:`~repro.solvers.messaging.MessageTransport` draws these per
    protocol phase.  ``seed`` anchors the transport RNG so a run replays
    bit-identically.
    """

    loss: float = 0.0
    delay: float = 0.0
    duplicate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("loss", "delay", "duplicate"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{name} probability must be in [0, 1), got {p}")
        if self.loss + self.delay + self.duplicate >= 1.0:
            raise ValueError("loss + delay + duplicate must stay below 1")

    @property
    def is_null(self) -> bool:
        """True when every fault probability is zero."""
        return self.loss == 0.0 and self.delay == 0.0 and self.duplicate == 0.0

    def to_dict(self) -> dict:
        return {
            "loss": float(self.loss),
            "delay": float(self.delay),
            "duplicate": float(self.duplicate),
            "seed": int(self.seed),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MessageFaultProfile":
        known = {"loss", "delay", "duplicate", "seed"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown message-fault keys: {sorted(unknown)}")
        return cls(
            loss=float(data.get("loss", 0.0)),
            delay=float(data.get("delay", 0.0)),
            duplicate=float(data.get("duplicate", 0.0)),
            seed=int(data.get("seed", 0)),
        )


@dataclass(frozen=True)
class FaultSchedule:
    """A full chaos scenario: timed events plus a message-fault profile.

    ``events`` are stored sorted by ``(t, kind, group, field)`` so equal
    schedules compare equal regardless of construction order, and grouped
    by slot once for :meth:`by_slot`; ``seed``
    records provenance when the schedule came from :meth:`generate` (it is
    informational -- replay uses the events themselves, never the seed).
    """

    events: tuple[FaultEvent, ...] = ()
    messages: MessageFaultProfile | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        events = tuple(
            sorted(
                self.events,
                key=lambda e: (e.t, e.kind, -1 if e.group is None else e.group, e.field or ""),
            )
        )
        object.__setattr__(self, "events", events)
        # A group must not fail twice without an intervening repair, and a
        # repair must target a group that is down: catching these statically
        # keeps injection-time behavior unambiguous.
        down: set[int] = set()
        slots: dict[int, list[FaultEvent]] = {}
        for e in events:
            slots.setdefault(e.t, []).append(e)
            if e.kind == "group_fail":
                if e.group in down:
                    raise ValueError(
                        f"group {e.group} fails at t={e.t} while already down"
                    )
                down.add(e.group)  # type: ignore[arg-type]
            elif e.kind == "group_repair":
                if e.group not in down:
                    raise ValueError(
                        f"group {e.group} repaired at t={e.t} but was never down"
                    )
                down.discard(e.group)  # type: ignore[arg-type]
        object.__setattr__(self, "_slots", {t: tuple(es) for t, es in slots.items()})

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "FaultSchedule":
        """The no-fault schedule (simulation must be bit-identical)."""
        return cls()

    def by_slot(self) -> dict[int, tuple[FaultEvent, ...]]:
        """``t -> events`` map for O(1) per-slot lookup in the injector."""
        return dict(self._slots)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        out: dict = {"events": [e.to_dict() for e in self.events]}
        if self.messages is not None:
            out["messages"] = self.messages.to_dict()
        if self.seed is not None:
            out["seed"] = int(self.seed)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSchedule":
        known = {"events", "messages", "seed"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault schedule keys: {sorted(unknown)}")
        messages = data.get("messages")
        return cls(
            events=tuple(FaultEvent.from_dict(e) for e in data.get("events", ())),
            messages=None if messages is None else MessageFaultProfile.from_dict(messages),
            seed=None if data.get("seed") is None else int(data["seed"]),
        )

    def to_json(self, path: str | None = None, *, indent: int = 2) -> str:
        """Serialize; when ``path`` is given also write the file atomically
        (write temp + fsync + rename), so a crash mid-write can never leave
        a torn schedule behind for a later replay to trip over."""
        text = json.dumps(self.to_dict(), indent=indent, sort_keys=True)
        if path is not None:
            from ..state.atomic import atomic_write_text

            atomic_write_text(path, text + "\n")
        return text

    @classmethod
    def from_json(cls, text_or_path: str) -> "FaultSchedule":
        """Parse a schedule from a JSON string or a path to a JSON file."""
        text = text_or_path
        if not text_or_path.lstrip().startswith("{"):
            with open(text_or_path) as fh:
                text = fh.read()
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        seed: int,
        *,
        horizon: int,
        num_groups: int,
        failure_rate: float = 0.01,
        mean_repair: float = 6.0,
        signal_rate: float = 0.0,
        loss: float = 0.0,
        delay: float = 0.0,
        duplicate: float = 0.0,
    ) -> "FaultSchedule":
        """Draw a reproducible schedule from one seed.

        Per slot, each currently-healthy group fails with probability
        ``failure_rate`` (repair after a geometric duration with mean
        ``mean_repair`` slots); at most ``num_groups - 1`` groups are ever
        down together, so the fleet always retains some capacity.  With
        probability ``signal_rate`` per slot one observation field degrades
        for 1-3 slots.  The message profile reuses ``seed`` so the whole
        scenario hangs off a single integer.

        Draw order (the contract ``tests/fault_schedule_oracle.py`` pins):
        per slot, one ``random()`` per group not down and not repaired this
        slot, in group order, each failure followed at once by its
        ``geometric`` repair draw; then the signal draws.  The healthy
        groups' uniforms are drawn as blocks, and the draws past a failure
        are rewound before its repair draw: O(1) numpy calls per slot and
        per failure.  Each slot's events come out in canonical order, so
        the schedule is built without a sort or a validation pass.
        """
        if horizon < 1 or num_groups < 1:
            raise ValueError("horizon and num_groups must be positive")
        if not 0.0 <= failure_rate < 1.0:
            raise ValueError("failure_rate must be in [0, 1)")
        if mean_repair < 1.0:
            raise ValueError("mean_repair must be >= 1 slot")
        if not 0.0 <= signal_rate < 1.0:
            raise ValueError("signal_rate must be in [0, 1)")
        rng = np.random.default_rng(seed)
        bitgen = rng.bit_generator
        random, geometric, advance = rng.random, rng.geometric, bitgen.advance
        p_repair = 1.0 / mean_repair
        cap = num_groups - 1
        up = np.ones(num_groups, dtype=bool)  # groups not down
        down = 0
        comeback: dict[int, list[int]] = {}  # slot -> groups repaired then
        # Whether the generator holds half of a 64-bit output; only the
        # signal draws' bounded ``integers`` leave one behind.
        buffered = False
        events: list[FaultEvent] = []
        slots: dict[int, tuple[FaultEvent, ...]] = {}
        for t in range(horizon):
            # A group that comes back at t spends the slot healthy but
            # draws no uniform: it stays out of ``up`` until the draws are
            # done, so it cannot fail again at the same t.
            back = comeback.pop(t, None)
            if back:
                down -= len(back)
            healthy = up.nonzero()[0]
            n = healthy.size
            slot: list[FaultEvent] = []
            # One uniform per healthy group, in group order, drawn as one
            # block; a failure's repair time is drawn right after its
            # uniform, so the draws past it are handed back first.
            start = 0
            while start < n:
                below = random(n - start) < failure_rate
                hit = int(below.argmax())
                if not below[hit] or down >= cap:
                    break
                past = n - start - hit - 1
                if past:
                    if buffered:
                        _rewind_buffered(bitgen, past)
                    else:
                        advance(_PERIOD - past)
                g = int(healthy[start + hit])
                up[g] = False
                down += 1
                slot.append(_group_event(t, "group_fail", g))
                # A repair at or past the horizon never happens in-run.
                repair = t + 1 + int(geometric(p_repair))
                if repair < horizon:
                    comeback.setdefault(repair, []).append(g)
                start += hit + 1
            # Canonical order within a slot: failures, repairs, the signal.
            if back:
                back.sort()
                up[back] = True
                slot += [_group_event(t, "group_repair", g) for g in back]
            if signal_rate > 0.0 and random() < signal_rate:
                field_ = SIGNAL_FIELDS[int(rng.integers(0, len(SIGNAL_FIELDS)))]
                mode = SIGNAL_MODES[int(rng.integers(0, len(SIGNAL_MODES)))]
                duration = int(rng.integers(1, 4))
                slot.append(FaultEvent(t, "signal", None, field_, mode, duration))
                buffered = bitgen.state["has_uint32"]
            if slot:
                slots[t] = tuple(slot)
                events += slot
        profile = MessageFaultProfile(loss=loss, delay=delay, duplicate=duplicate, seed=seed)
        # Valid and in canonical order by construction: no sort, no check.
        schedule = object.__new__(cls)
        object.__setattr__(schedule, "__dict__", {
            "events": tuple(events),
            "messages": None if profile.is_null else profile,
            "seed": seed,
            "_slots": slots,
        })
        return schedule
