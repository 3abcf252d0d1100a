"""A mutable, append-only environment fed by resolved signal frames.

The batch :class:`~repro.sim.environment.Environment` owns its whole
horizon as immutable traces; a service learns its slots one at a time.
:class:`LiveEnvironment` presents the same read API the
:class:`~repro.sim.engine.SlotRunner` consumes -- ``observation(t)`` /
``actual_arrival(t)`` / ``offsite(t)`` / ``horizon`` -- over a growing
prefix of resolved frames, refusing reads past what has been fed
(programming errors, not data errors, so they raise).

Two extra contracts make serve runs crash-safe and auditable:

- :meth:`fingerprint` gives :func:`repro.state.serialize.environment_fingerprint`
  something exact to validate resumes against.  With a ``base`` environment
  (replay mode) it delegates to the full trace fingerprint, so checkpoints
  written by a replay serve are *interchangeable* with batch ``repro run``
  checkpoints.  Without one, it CRCs the resolved prefix, so a resumed
  service refuses a journal that diverged from what the checkpoint saw.
  The CRC is chained frame by frame as frames are appended, so reading it
  costs O(1) at any slot.
- :class:`FrameJournal` persists every resolved frame (JSONL, flushed per
  append), so a killed service can refill the exact prefix -- including
  values that were synthesized by the staleness policy and exist nowhere
  else -- before resuming.
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np

from ..core.controller import SlotObservation
from ..energy.renewables import RenewablePortfolio
from ..sim.environment import Environment
from ..traces.base import Trace
from .signals import SignalFrame

__all__ = ["LiveEnvironment", "FrameJournal", "JOURNAL_NAME"]

#: Journal filename inside a serve checkpoint directory.
JOURNAL_NAME = "frames.jsonl"


class LiveEnvironment:
    """Environment view over an append-only prefix of resolved frames."""

    def __init__(self, horizon: int, *, base: Environment | None = None) -> None:
        if horizon < 1:
            raise ValueError("horizon must be positive")
        if base is not None and base.horizon != horizon:
            raise ValueError(
                f"base environment horizon {base.horizon} != {horizon}"
            )
        self._horizon = int(horizon)
        self.base = base
        self.frames: list[SignalFrame] = []
        # Running CRC32 of the resolved prefix (live mode only): CRC32
        # chains, so folding each frame in as it arrives gives exactly
        # the full-prefix fold.
        self._crc = zlib.crc32(str(self._horizon).encode())

    # ------------------------------------------------------- feed side
    def append(self, frame: SignalFrame) -> None:
        """Accept the next slot's resolved frame (slots must be contiguous;
        the staleness resolver guarantees every slot resolves to *some*
        frame, degraded or not)."""
        expected = len(self.frames)
        if frame.slot != expected:
            raise ValueError(
                f"frame for slot {frame.slot} appended out of order "
                f"(expected {expected}); the slot clock never moves backwards"
            )
        if expected >= self._horizon:
            raise ValueError(f"horizon {self._horizon} already fully resolved")
        if frame.missing_fields:
            raise ValueError(
                f"unresolved frame appended (missing {frame.missing_fields}); "
                "resolve staleness before feeding the environment"
            )
        if self.base is None:
            row = json.dumps(frame.to_dict(), sort_keys=True, separators=(",", ":"))
            self._crc = zlib.crc32(row.encode(), self._crc)
        self.frames.append(frame)

    @property
    def resolved(self) -> int:
        """Number of slots with a resolved frame."""
        return len(self.frames)

    # ------------------------------------------------------- runner side
    @property
    def horizon(self) -> int:
        return self._horizon

    def _frame(self, t: int) -> SignalFrame:
        if not (0 <= t < len(self.frames)):
            raise IndexError(
                f"slot {t} is not resolved yet ({len(self.frames)} frames fed)"
            )
        return self.frames[t]

    def observation(self, t: int) -> SlotObservation:
        f = self._frame(t)
        return SlotObservation(
            t=t,
            arrival_rate=float(f.arrival),
            onsite=float(f.onsite),
            price=float(f.price),
            network_delay=float(f.network_delay),
            pue=None if f.pue is None else float(f.pue),
        )

    def actual_arrival(self, t: int) -> float:
        return float(self._frame(t).arrival_actual)

    def offsite(self, t: int) -> float:
        return float(self._frame(t).offsite)

    # ------------------------------------------------------- record side
    def _trace(self, field: str, name: str, unit: str) -> Trace:
        if not self.frames:
            raise ValueError("no frames resolved; nothing to assemble")
        values = np.asarray(
            [float(getattr(f, field)) for f in self.frames], dtype=np.float64
        )
        return Trace(values, name=name, unit=unit)

    @property
    def price(self) -> Trace:
        if self.base is not None:
            return self.base.price
        return self._trace("price", "served-price", "$/MWh")

    @property
    def portfolio(self) -> RenewablePortfolio:
        """The renewable supply actually observed (record assembly)."""
        if self.base is not None:
            return self.base.portfolio
        return RenewablePortfolio(
            onsite=self._trace("onsite", "served-onsite", "MW"),
            offsite=self._trace("offsite", "served-offsite", "MW"),
            recs=0.0,
        )

    # ------------------------------------------------------- identity
    def fingerprint(self) -> int:
        """CRC32 the resume contract validates against.

        Replay mode delegates to the wrapped environment's full-trace
        fingerprint (checkpoint interchangeability with ``repro run``);
        live mode CRCs the resolved prefix, so the fingerprint at slot
        ``k`` is a pure function of the first ``k`` resolved frames.
        """
        if self.base is not None:
            from ..state.serialize import environment_fingerprint

            return environment_fingerprint(self.base)
        return self._crc & 0xFFFFFFFF


class FrameJournal:
    """Append-only JSONL persistence of resolved frames.

    One line per resolved frame, flushed per append: after a SIGKILL the
    journal holds every frame the service committed to (a torn final line
    is tolerated on read), which is exactly what a resume needs to refill
    the :class:`LiveEnvironment` prefix bit-identically.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._fh = open(self.path, "a")

    def append(self, frame: SignalFrame) -> None:
        self._fh.write(json.dumps(frame.to_dict(), sort_keys=True))
        self._fh.write("\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    @staticmethod
    def load(path: str, *, upto: int | None = None) -> list[SignalFrame]:
        """Read resolved frames back, tolerating a torn final line.

        ``upto`` truncates to the first ``upto`` frames (the checkpoint's
        slot): frames journaled after the checkpoint was written are
        re-resolved from the source on resume, not replayed.
        """
        frames: list[SignalFrame] = []
        if not os.path.exists(path):
            return frames
        with open(path) as fh:
            for line in fh:
                if not line.endswith("\n"):
                    break  # torn tail from a mid-append kill
                line = line.strip()
                if not line:
                    continue
                frames.append(SignalFrame.from_dict(json.loads(line)))
                if upto is not None and len(frames) >= upto:
                    break
        return frames

    @staticmethod
    def truncate(path: str, frames: list[SignalFrame]) -> None:
        """Rewrite the journal to exactly ``frames`` (resume housekeeping,
        dropping post-checkpoint lines so journal and checkpoint agree)."""
        from ..state.atomic import atomic_write_text

        atomic_write_text(
            path,
            "".join(
                json.dumps(f.to_dict(), sort_keys=True) + "\n" for f in frames
            ),
        )
