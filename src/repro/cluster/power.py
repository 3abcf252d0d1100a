"""Facility power and electricity-tariff models (paper Eqs. (2)-(3)).

The paper focuses on server (IT) power and absorbs cooling, power delivery,
and other overheads into a power usage effectiveness (PUE) factor that
multiplies IT power to give facility power.  Electricity cost is then

    e(t) = w(t) * [ PUE * p_IT(t) - r(t) ]^+

for the linear tariff the evaluation uses; section 2.1 notes the analysis
also covers "nonlinear convex functions (e.g., the data center is charged at
a higher price if it consumes more power)", so a tiered convex tariff is
provided as well.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = ["PowerModel", "Tariff", "LinearTariff", "TieredTariff", "brown_energy"]


def brown_energy(facility_power: float, renewable: float) -> float:
    """Grid (brown) energy drawn in one slot: ``[p - r]^+`` in MWh.

    ``facility_power`` is the slot's facility power in MW (= MWh over the
    hour); ``renewable`` is the on-site supply available that slot.
    """
    return max(facility_power - renewable, 0.0)


@dataclass(frozen=True)
class PowerModel:
    """Converts IT power to facility power via a PUE factor.

    The paper treats PUE as possibly time-varying; a constant is sufficient
    for the experiments, but :meth:`facility_power` accepts a per-call
    override so a trace-driven PUE can be layered on.
    """

    pue: float = 1.0

    def __post_init__(self) -> None:
        if self.pue < 1.0:
            raise ValueError("PUE must be >= 1")

    def facility_power(self, it_power: float, pue: float | None = None) -> float:
        """Facility power (MW) for a given IT power."""
        factor = self.pue if pue is None else pue
        if factor < 1.0:
            raise ValueError("PUE must be >= 1")
        return factor * it_power


class Tariff(ABC):
    """Electricity-cost function ``e(brown_energy; price)`` for one slot.

    Contract: at a fixed nonnegative price, :meth:`cost` is nondecreasing
    and convex in ``brown``.  The exact engine relies on it to bisect the
    servers-on count (:mod:`repro.solvers.enumeration`).
    """

    @abstractmethod
    def cost(self, brown: float, price: float) -> float:
        """Dollar cost of drawing ``brown`` MWh at posted price ``price``
        ($/MWh)."""

    @abstractmethod
    def marginal(self, brown: float, price: float) -> float:
        """d(cost)/d(brown) at the given draw -- used by solvers that need
        a local linearization of a convex tariff."""


@dataclass(frozen=True)
class LinearTariff(Tariff):
    """The evaluation's default: cost = price x energy (Eq. (3))."""

    def cost(self, brown: float, price: float) -> float:
        if brown < 0:
            raise ValueError("brown energy must be non-negative")
        return price * brown

    def marginal(self, brown: float, price: float) -> float:
        return price


@dataclass(frozen=True)
class TieredTariff(Tariff):
    """Convex piecewise-linear tariff: draws beyond each threshold are
    charged at escalating multiples of the posted price.

    Parameters
    ----------
    thresholds:
        Increasing MWh breakpoints where the rate escalates.
    multipliers:
        Price multiplier applied within each tier; length must be
        ``len(thresholds) + 1`` and non-decreasing (convexity).
    """

    thresholds: tuple[float, ...]
    multipliers: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.multipliers) != len(self.thresholds) + 1:
            raise ValueError("need one more multiplier than thresholds")
        if any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")
        if any(b < a for a, b in zip(self.multipliers, self.multipliers[1:])):
            raise ValueError("multipliers must be non-decreasing (convex tariff)")
        if self.multipliers[0] < 0:
            raise ValueError("multipliers must be non-negative")

    def cost(self, brown: float, price: float) -> float:
        if brown < 0:
            raise ValueError("brown energy must be non-negative")
        edges = (0.0, *self.thresholds, np.inf)
        total = 0.0
        for lo, hi, mult in zip(edges[:-1], edges[1:], self.multipliers):
            if brown <= lo:
                break
            total += (min(brown, hi) - lo) * mult * price
        return total

    def marginal(self, brown: float, price: float) -> float:
        tier = int(np.searchsorted(np.asarray(self.thresholds), brown, side="right"))
        return self.multipliers[tier] * price
