"""Cost-carbon parameter schedules ``V_0, V_1, ..., V_{R-1}`` (section 4.3).

COCA's ``V`` trades operational cost against deviation from neutrality: a
large ``V`` cares about cost (Theorem 2 part (b): O(1/V)-optimal), a small
``V`` polices the deficit (part (a): the fudge factor grows with ``V``).
Because the right value is workload-dependent and found "on a trial-and-
error basis", COCA explicitly supports a *time-varying* ``V_r`` per frame of
``T`` slots, resetting the deficit queue at frame boundaries so each frame's
analysis decouples.

Schedules here implement the experiments' needs: a constant ``V`` (Fig.
2(a,b)) and a quarterly schedule (Fig. 2(c,d)); :class:`FrameV` takes any
explicit per-frame sequence.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "VSchedule",
    "ConstantV",
    "FrameV",
    "quarterly",
]


class VSchedule(ABC):
    """Maps a frame index ``r`` to the cost-carbon parameter ``V_r``."""

    @abstractmethod
    def value(self, frame: int) -> float:
        """``V_r`` for frame ``r``."""


@dataclass(frozen=True)
class ConstantV(VSchedule):
    """The same ``V`` in every frame (Fig. 2(a,b))."""

    v: float

    def __post_init__(self) -> None:
        if self.v <= 0:
            raise ValueError("V must be positive")

    def value(self, frame: int) -> float:
        return self.v


@dataclass(frozen=True)
class FrameV(VSchedule):
    """An explicit per-frame sequence; frames beyond the list reuse the
    final entry."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values or any(v <= 0 for v in self.values):
            raise ValueError("need a non-empty sequence of positive V values")

    def value(self, frame: int) -> float:
        if frame < 0:
            raise ValueError("frame index must be non-negative")
        return self.values[min(frame, len(self.values) - 1)]


def quarterly(values: Sequence[float]) -> FrameV:
    """Convenience for the paper's quarterly-varying experiment: four
    ``V`` values, one per quarter (use with ``frame_length = J // 4``)."""
    vals = tuple(float(v) for v in values)
    if len(vals) != 4:
        raise ValueError("quarterly schedule needs exactly 4 values")
    return FrameV(vals)
