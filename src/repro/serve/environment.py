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
  service refuses frames that diverged from what the checkpoint saw.
  The CRC is chained frame by frame as frames are appended, so reading it
  costs O(1) at any slot.
- Without a ``base``, :meth:`series` hands the resolved frames to the
  checkpoint log like any other per-slot series, so the record that makes
  a slot durable also holds the frames that produced it -- including
  values synthesized by the staleness policy, which exist nowhere else --
  and :meth:`load_series` refills the exact prefix on resume.  The
  records also copy the feed's resolution counts (:attr:`signals`).
"""

from __future__ import annotations

import json
import zlib

import numpy as np

from ..core.controller import SlotObservation
from ..energy.renewables import RenewablePortfolio
from ..sim.environment import Environment
from ..traces.base import Trace
from .signals import SignalFrame

__all__ = ["LiveEnvironment"]

#: The text a frame's row enters the fingerprint CRC as.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


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
        # ``frame.to_dict()`` of each resolved frame (live mode only).
        self._rows: list[dict] = []
        # Running CRC32 of the resolved prefix (live mode only): CRC32
        # chains, so folding each frame in as it arrives gives exactly
        # the full-prefix fold.
        self._crc = zlib.crc32(str(self._horizon).encode())
        #: The feed's resolution counts (live mode: the resolver's
        #: ``counts``, shared), which each checkpoint record copies so a
        #: resumed serve reports the whole run's feed.
        self.signals: dict[str, int] | None = None

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
            row = frame.to_dict()
            text = _ROW_ENCODER.encode(row)
            self._crc = zlib.crc32(text.encode(), self._crc)
            self._rows.append(row)
        self.frames.append(frame)

    def series(self) -> dict[str, list]:
        """The resolved frames as an append-only checkpoint series (see
        :meth:`repro.core.controller.Controller.series`); none in replay
        mode, whose frames are its base traces."""
        return {} if self.base is not None else {"frames": self._rows}

    def load_series(self, series: dict[str, list]) -> None:
        """Refill an empty environment with the frames :meth:`series`
        captured."""
        for row in series.get("frames", ()):
            self.append(SignalFrame.from_dict(row))

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
