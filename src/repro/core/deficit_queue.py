"""The virtual carbon-deficit queue (paper Eq. (17)).

The long-term neutrality constraint couples decisions across the whole
budgeting period; Lyapunov optimization decouples it by tracking a *virtual
queue* whose length measures how far cumulative electricity usage has
drifted above the renewable budget:

    q(t+1) = max( q(t) + [p(t) - r(t)]^+ - alpha f(t) - z , 0 ),

with ``z = alpha Z / J`` the per-slot REC allowance.  The queue length
enters P3 as an additional price on brown energy; COCA's whole philosophy is
"if violate neutrality, then use less electricity".  The queue is reset to
zero at each frame boundary so the cost-carbon parameter ``V`` can be
re-tuned per frame (section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CarbonDeficitQueue"]


@dataclass
class CarbonDeficitQueue:
    """Carbon-deficit queue state and update rule.

    Parameters
    ----------
    alpha:
        Electricity-capping aggressiveness from constraint (10).
    rec_per_slot:
        ``z = alpha * Z / J`` in MWh (already scaled by alpha).
    """

    alpha: float = 1.0
    rec_per_slot: float = 0.0
    _length: float = field(default=0.0, init=False)
    #: Queue length after each update so far (append-only).
    lengths: list = field(default_factory=list, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.rec_per_slot < 0:
            raise ValueError("per-slot REC allowance must be non-negative")

    @property
    def length(self) -> float:
        """Current queue length ``q(t)`` in MWh."""
        return self._length

    @property
    def history(self) -> np.ndarray:
        """Queue length *after* each update so far."""
        return np.asarray(self.lengths, dtype=np.float64)

    def update(self, brown_energy: float, offsite: float) -> float:
        """Apply Eq. (17) for one slot and return the new length.

        Parameters
        ----------
        brown_energy:
            ``y(t) = [p(t) - r(t)]^+`` in MWh (including any switching
            energy drawn from the grid).
        offsite:
            Realized off-site renewable supply ``f(t)`` in MWh.  Note COCA
            takes the decision *before* seeing ``f(t)``; the queue is
            updated at the end of the slot once it is realized.
        """
        if brown_energy < 0:
            raise ValueError("brown energy must be non-negative")
        if offsite < 0:
            raise ValueError("off-site supply must be non-negative")
        arrival = brown_energy
        service = self.alpha * offsite + self.rec_per_slot
        self._length = max(self._length + arrival - service, 0.0)
        self.lengths.append(self._length)
        return self._length

    def reset(self) -> None:
        """Frame-boundary reset (Algorithm 1 lines 2-4): zero the length
        but keep the recorded history."""
        self._length = 0.0

    # -------------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """Queue length for a checkpoint; :attr:`lengths` is a per-slot
        series its owner checkpoints separately."""
        return {"length": float(self._length)}

    def load_state_dict(self, state: dict) -> None:
        """Restore queue state captured by :meth:`state_dict`."""
        self._length = float(state["length"])

    def drift_bound_B(self, y_max: float, z_max: float) -> float:
        """The Theorem 2 constant ``B >= 0.5 * (y(t) - z(t))^2`` for all t,
        from the boundedness assumption: ``0.5 * max(y_max, z_max)^2``."""
        if y_max < 0 or z_max < 0:
            raise ValueError("bounds must be non-negative")
        return 0.5 * max(y_max, z_max) ** 2
