"""Signal sources: where the serving loop's per-slot observations come from.

A batch run owns its whole horizon up front; a *service* learns each slot's
electricity price, on-site renewable supply, and workload arrivals only as
they happen.  :class:`SignalFrame` is one slot's worth of observations, and
:class:`SignalSource` is the pluggable feed interface the control loop
polls:

==============================  =======================================
:class:`ReplaySignalSource`     wraps an existing :class:`Environment`;
                                every frame arrives on time and complete
                                (the deterministic mode the bit-identity
                                contract is stated for)
:class:`FileTailSignalSource`   tails an appended JSONL feed file (one
                                frame object per line) -- the integration
                                point for real price/carbon/arrival feeds
:class:`SyntheticSignalSource`  seeded load generator that misdelivers on
                                purpose (late, missing fields, dropped
                                and swapped frames) for staleness testing
==============================  =======================================

``poll()`` is non-blocking by design: it returns the next available frame
or ``None`` ("nothing new yet"), and the
:class:`~repro.serve.staleness.StalenessResolver` owns all timing policy.
Sources never sleep and never read wall clocks, which keeps every mode
unit-testable with fake clocks and keeps replay runs clock-free.
"""

from __future__ import annotations

import json
import pathlib
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass

import numpy as np

from ..sim.environment import Environment

__all__ = [
    "SignalFrame",
    "SignalSource",
    "ReplaySignalSource",
    "FileTailSignalSource",
    "SyntheticSignalSource",
    "frames_from_environment",
    "write_feed",
]

#: Frame fields a feed may omit (``None`` = field missing; the staleness
#: resolver degrades it through the fault injector instead of crashing).
OPTIONAL_FIELDS = ("arrival", "onsite", "price", "arrival_actual", "offsite")


@dataclass(frozen=True)
class SignalFrame:
    """One slot's observations as delivered by a feed.

    ``arrival`` is the *predicted* arrival rate the controller plans
    against; ``arrival_actual`` is the realized rate billed after the
    decision; ``offsite`` is the off-site renewable supply realized at the
    end of the slot.  Any of the optional fields may be ``None`` when the
    feed lost that signal -- the resolver substitutes a degraded value and
    routes the loss through :class:`~repro.faults.FaultInjector`.
    """

    slot: int
    arrival: float | None = None
    onsite: float | None = None
    price: float | None = None
    arrival_actual: float | None = None
    offsite: float | None = None
    network_delay: float = 0.0
    pue: float | None = None

    def to_dict(self) -> dict:
        """JSON-ready form (the feed-file line format)."""
        return {k: v for k, v in asdict(self).items() if v is not None or k == "slot"}

    @classmethod
    def from_dict(cls, obj: dict) -> "SignalFrame":
        """Inverse of :meth:`to_dict`; unknown keys are ignored so feeds
        can carry extra metadata (and lines written by older versions,
        whose frames could carry a ``forecast`` payload, still load)."""
        known = {f for f in cls.__dataclass_fields__}
        fields = {k: v for k, v in obj.items() if k in known}
        fields["slot"] = int(fields["slot"])
        return cls(**fields)

    @property
    def missing_fields(self) -> tuple[str, ...]:
        """Core observation fields this frame did not deliver."""
        return tuple(f for f in OPTIONAL_FIELDS if getattr(self, f) is None)


class SignalSource(ABC):
    """A feed of :class:`SignalFrame` objects, polled by the serving loop."""

    @abstractmethod
    def poll(self) -> SignalFrame | None:
        """The next available frame, or ``None`` when nothing new has
        arrived.  Frames are not guaranteed to be in slot order and slots
        may be skipped entirely -- the resolver handles both."""

    def seek(self, slot: int) -> None:
        """Position the source so the next deliveries are for ``slot``
        onward (resume support).  Sources that cannot seek raise."""
        raise NotImplementedError(f"{type(self).__name__} cannot seek")

    @property
    def horizon(self) -> int | None:
        """Number of slots the source can ever deliver (None = unbounded)."""
        return None

    def close(self) -> None:
        """Release any underlying resource; idempotent."""

    def describe(self) -> str:
        """One-line human-readable identity for logs and ``--dry-run``."""
        return type(self).__name__


def frames_from_environment(environment: Environment, *, start: int = 0):
    """Yield the fully-populated frame for each slot of ``environment``."""
    for t in range(start, environment.horizon):
        obs = environment.observation(t)
        yield SignalFrame(
            slot=t,
            arrival=obs.arrival_rate,
            onsite=obs.onsite,
            price=obs.price,
            arrival_actual=environment.actual_arrival(t),
            offsite=environment.offsite(t),
            network_delay=obs.network_delay,
            pue=obs.pue,
        )


def write_feed(environment: Environment, path: str | pathlib.Path, *,
               start: int = 0, stop: int | None = None) -> int:
    """Export an environment as a JSONL feed file (one frame per line).

    The bridge between the trace world and the serving world: generate a
    feed from any scenario, then serve it back with ``--source file``.
    Returns the number of frames written.
    """
    from ..traces.io import append_jsonl_rows

    stop = environment.horizon if stop is None else min(stop, environment.horizon)
    rows = [
        f.to_dict()
        for f in frames_from_environment(environment, start=start)
        if f.slot < stop
    ]
    append_jsonl_rows(path, rows, truncate=True)
    return len(rows)


class ReplaySignalSource(SignalSource):
    """Replays an :class:`Environment` frame by frame, always on time.

    The deterministic serving mode: every ``poll`` delivers the next slot's
    complete frame immediately, with values read from the *same* trace
    arrays the batch engine would read, so the control loop's arithmetic is
    bit-identical to ``repro run``.
    """

    def __init__(self, environment: Environment) -> None:
        self.environment = environment
        self._next = 0

    def poll(self) -> SignalFrame | None:
        if self._next >= self.environment.horizon:
            return None
        t = self._next
        obs = self.environment.observation(t)
        frame = SignalFrame(
            slot=t,
            arrival=obs.arrival_rate,
            onsite=obs.onsite,
            price=obs.price,
            arrival_actual=self.environment.actual_arrival(t),
            offsite=self.environment.offsite(t),
            network_delay=obs.network_delay,
            pue=obs.pue,
        )
        self._next += 1
        return frame

    def seek(self, slot: int) -> None:
        if not (0 <= slot <= self.environment.horizon):
            raise ValueError(f"cannot seek to slot {slot}")
        self._next = int(slot)

    @property
    def horizon(self) -> int:
        return self.environment.horizon

    def describe(self) -> str:
        return f"replay({self.environment.horizon} slots)"


class FileTailSignalSource(SignalSource):
    """Tails a JSONL feed file, delivering each complete appended line.

    The file is read incrementally: a partial final line (a writer mid-
    append) is buffered until its newline arrives, so a torn write is never
    parsed.  Malformed *complete* lines are counted (:attr:`malformed`) and
    skipped -- a bad producer line must not take the service down.
    """

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = str(path)
        self._fh = open(self.path)
        self._buffer = ""
        self.delivered = 0
        self.malformed = 0

    def poll(self) -> SignalFrame | None:
        while True:
            chunk = self._fh.readline()
            if not chunk:
                return None
            self._buffer += chunk
            if not self._buffer.endswith("\n"):
                # Torn tail: the producer has not finished this line yet.
                return None
            line, self._buffer = self._buffer.strip(), ""
            if not line:
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict) or "slot" not in obj:
                    raise ValueError("frame must be an object with a 'slot'")
                frame = SignalFrame.from_dict(obj)
            except (ValueError, TypeError, KeyError):
                self.malformed += 1
                continue
            self.delivered += 1
            return frame

    def seek(self, slot: int) -> None:
        """Rewind and skip frames below ``slot`` (feed files are append-
        only, so earlier frames are prefix lines)."""
        self._fh.seek(0)
        self._buffer = ""
        while True:
            pos = self._fh.tell()
            line = self._fh.readline()
            if not line or not line.endswith("\n"):
                self._fh.seek(pos)
                return
            try:
                obj = json.loads(line)
                if int(obj.get("slot", -1)) >= slot:
                    self._fh.seek(pos)
                    return
            except (ValueError, TypeError):
                continue

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def describe(self) -> str:
        return f"file({self.path})"


class SyntheticSignalSource(SignalSource):
    """Seeded load generator with deliberately imperfect delivery.

    Wraps an environment (the ground truth signals) and perturbs *delivery*
    -- never values -- according to a seeded schedule drawn once at
    construction:

    - ``p_drop``: the slot's frame is never delivered (a gap);
    - ``p_late``: the frame needs one extra poll to arrive;
    - ``p_field_loss``: each optional field is independently omitted;
    - ``p_swap``: the frame swaps delivery order with its successor
      (out-of-order arrival).

    Because the whole delivery schedule is a pure function of the seed,
    a synthetic serve run is deterministic end to end and :meth:`seek`
    restores mid-stream bit-identically.
    """

    def __init__(
        self,
        environment: Environment,
        *,
        seed: int,
        p_drop: float = 0.02,
        p_late: float = 0.1,
        p_field_loss: float = 0.02,
        p_swap: float = 0.05,
    ) -> None:
        for name, p in (("p_drop", p_drop), ("p_late", p_late),
                        ("p_field_loss", p_field_loss), ("p_swap", p_swap)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        self.environment = environment
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        J = environment.horizon
        frames = list(frames_from_environment(environment))

        # Draw the whole delivery schedule up front: (deliveries, lateness).
        drop = rng.random(J) < p_drop
        late = rng.random(J) < p_late
        swap = rng.random(J) < p_swap
        schedule: list[SignalFrame] = []
        for frame in frames:
            missing = [
                f for f in OPTIONAL_FIELDS if rng.random() < p_field_loss
            ]
            if missing:
                frame = SignalFrame.from_dict(
                    {k: v for k, v in frame.to_dict().items() if k not in missing}
                )
            schedule.append(frame)
        order = list(range(J))
        t = 0
        while t < J - 1:
            if swap[t]:
                order[t], order[t + 1] = order[t + 1], order[t]
                t += 2
            else:
                t += 1
        #: Delivery plan: (frame, extra empty polls before it arrives);
        #: dropped slots never appear.
        self._plan: list[tuple[SignalFrame, int]] = [
            (schedule[i], 1 if late[i] else 0) for i in order if not drop[i]
        ]
        self.dropped = int(drop.sum())
        self._cursor = 0
        self._wait = self._plan[0][1] if self._plan else 0

    def poll(self) -> SignalFrame | None:
        if self._cursor >= len(self._plan):
            return None
        if self._wait > 0:
            self._wait -= 1
            return None
        frame, _ = self._plan[self._cursor]
        self._cursor += 1
        if self._cursor < len(self._plan):
            self._wait = self._plan[self._cursor][1]
        return frame

    def seek(self, slot: int) -> None:
        """Skip plan entries whose frame is below ``slot``; out-of-order
        neighbors straddling the boundary are delivered (and discarded by
        the resolver), exactly as they would be in an uninterrupted run."""
        self._cursor = 0
        while (
            self._cursor < len(self._plan)
            and self._plan[self._cursor][0].slot < slot
        ):
            self._cursor += 1
        self._wait = (
            self._plan[self._cursor][1] if self._cursor < len(self._plan) else 0
        )

    @property
    def horizon(self) -> int:
        return self.environment.horizon

    def describe(self) -> str:
        return (
            f"synthetic(seed={self.seed}, {self.environment.horizon} slots, "
            f"{self.dropped} dropped)"
        )
