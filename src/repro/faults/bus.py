"""A message fabric that loses, delays, and duplicates messages.

:class:`FaultyMessageBus` drops in wherever a
:class:`~repro.solvers.messaging.MessageBus` does and applies a
:class:`~repro.faults.schedule.MessageFaultProfile` to every ``send``:

* **loss** -- the message vanishes before delivery; the sender sees no
  reply (``None``).
* **delay** -- the message *is* delivered (the recipient's handler runs and
  its state changes), but the reply arrives after the sender's timeout
  window, so the sender still sees ``None``.  This models the nasty
  asymmetric case where the network ate the answer, not the question.
* **duplicate** -- the message is delivered twice back to back (agent
  handlers are overwrite-idempotent, so this stresses that property); the
  sender receives the second reply, matching the recipient's final state.

One uniform variate is drawn per ``send``, so the fault pattern is a pure
function of the profile's seed -- chaos runs replay bit-identically.  The
coordinator-side recovery (per-agent retries, :class:`BusTimeoutError`)
lives in :mod:`repro.solvers.messaging`.
"""

from __future__ import annotations

import numpy as np

from ..solvers.messaging import Message, MessageBus
from .schedule import MessageFaultProfile

__all__ = ["FaultyMessageBus"]


class FaultyMessageBus(MessageBus):
    """A :class:`MessageBus` with seeded loss/delay/duplication.

    Besides the base counters (``delivered``, ``by_kind``) it tracks
    ``dropped`` / ``delayed`` / ``duplicated`` so tests and telemetry can
    assert on the exact communication degradation a run experienced.
    """

    def __init__(
        self,
        *,
        loss: float = 0.0,
        delay: float = 0.0,
        duplicate: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        # Reuse the profile's validation (ranges, total mass below 1).
        profile = MessageFaultProfile(loss=loss, delay=delay, duplicate=duplicate)
        self.loss = profile.loss
        self.delay = profile.delay
        self.duplicate = profile.duplicate
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.dropped = 0
        self.delayed = 0
        self.duplicated = 0

    @classmethod
    def from_profile(
        cls, profile: MessageFaultProfile, *, salt: int = 0
    ) -> "FaultyMessageBus":
        """A bus seeded by ``(profile.seed, salt)``.

        The injector salts with a per-solve counter so every slot sees a
        distinct -- but fully reproducible -- fault pattern.
        """
        return cls(
            loss=profile.loss,
            delay=profile.delay,
            duplicate=profile.duplicate,
            rng=np.random.default_rng([int(profile.seed), int(salt)]),
        )

    # ------------------------------------------------------------------
    def send(self, message: Message) -> Message | None:
        u = float(self.rng.random())
        if u < self.loss:
            # Vanished in flight: recipient never sees it, sender gets no
            # reply.  Unknown recipients still fail loudly -- a lost
            # message must not mask an addressing bug.
            if message.recipient not in self._agents:
                raise KeyError(f"unknown recipient {message.recipient!r}")
            self.dropped += 1
            return None
        if u < self.loss + self.delay:
            # Delivered late: the handler runs, the reply misses the
            # sender's timeout window.
            super().send(message)
            self.delayed += 1
            return None
        if u >= 1.0 - self.duplicate:
            super().send(message)
            self.duplicated += 1
            return super().send(message)
        return super().send(message)

    # ------------------------------------------------------------------
    def fault_stats(self) -> dict[str, int]:
        """Degradation counters for telemetry and run summaries."""
        return {
            "delivered": int(self.delivered),
            "dropped": int(self.dropped),
            "delayed": int(self.delayed),
            "duplicated": int(self.duplicated),
        }
