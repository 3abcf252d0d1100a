"""Workload overestimation for the sensitivity study (Fig. 5(c)).

COCA consumes the *current-slot* workload arrival rate as an input.  The
paper's sensitivity study stresses this assumption with an
**overestimation factor** ``phi >= 1``: the controller provisions for
``phi * lambda(t)`` while the data center actually serves ``lambda(t)``.
The paper notes this also subsumes imperfect service-rate modeling, and
reports that costs rise by <2.5% even at 20% overestimation.

:func:`overestimate` produces a *pair* of traces -- what the controller
believes and what the environment delivers -- so the simulator can feed
each side its own view.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import Trace

__all__ = ["PredictionModel", "overestimate"]


@dataclass(frozen=True)
class PredictionModel:
    """A (believed, actual) pair of workload traces.

    Attributes
    ----------
    predicted:
        What the controller sees when making slot decisions.
    actual:
        What arrives and is actually served / billed.
    """

    predicted: Trace
    actual: Trace

    def __post_init__(self) -> None:
        if len(self.predicted) != len(self.actual):
            raise ValueError("predicted and actual traces must share a horizon")

    @property
    def horizon(self) -> int:
        """Number of slots covered by the pair."""
        return len(self.actual)


def overestimate(actual: Trace, phi: float) -> PredictionModel:
    """Uniform workload overestimation by factor ``phi >= 1`` (Fig. 5(c)).

    The controller plans for ``phi * lambda(t)``; arrivals stay at
    ``lambda(t)``.
    """
    if phi < 1.0:
        raise ValueError("overestimation factor phi must be >= 1")
    return PredictionModel(predicted=actual.scale(phi), actual=actual)

