"""Carbon-neutrality ledger (paper Eq. (10)).

Following current market practice, the paper calls a data center carbon
neutral over a budgeting period when its brown (grid) energy is fully offset
by off-site renewables plus RECs, scaled by an aggressiveness knob
``alpha``:

    (1/J) sum_t [p(t) - r(t)]^+  <=  (alpha/J) * ( sum_t f(t) + Z ).

:class:`CarbonLedger` accumulates the left side slot by slot against a
:class:`~repro.energy.renewables.RenewablePortfolio` and answers the
questions the experiments ask: is the run neutral, what is the average
hourly carbon deficit (Fig. 2(b)), and what residual would need an
end-of-period REC true-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .renewables import RenewablePortfolio

__all__ = ["CarbonLedger"]


@dataclass
class CarbonLedger:
    """Slot-by-slot brown-energy accounting against a renewable portfolio.

    Parameters
    ----------
    portfolio:
        The period's renewable supply and RECs.
    alpha:
        Desired electricity capping relative to the budget (Eq. (10));
        ``alpha < 1`` under-uses the budget, leaving surplus to sell.
    """

    portfolio: RenewablePortfolio
    alpha: float = 1.0
    _brown: list = field(default_factory=list, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")

    # ------------------------------------------------------------------
    @property
    def slots_recorded(self) -> int:
        """Number of slots recorded so far."""
        return len(self._brown)

    def record(self, brown_energy: float) -> None:
        """Record one slot's brown draw ``[p - r]^+`` in MWh."""
        if brown_energy < 0:
            raise ValueError("brown energy must be non-negative")
        if self.slots_recorded >= self.portfolio.horizon:
            raise ValueError("ledger already covers the full budgeting period")
        self._brown.append(float(brown_energy))

    # ------------------------------------------------------------------
    @property
    def brown_energy(self) -> np.ndarray:
        """Per-slot brown energy recorded so far (MWh)."""
        return np.asarray(self._brown, dtype=np.float64)

    @property
    def total_brown(self) -> float:
        """Cumulative brown energy (MWh)."""
        return float(np.sum(self._brown)) if self._brown else 0.0

    def budget_through(self, t: int | None = None) -> float:
        """Allowed budget through slot ``t`` inclusive (default: all slots
        recorded): ``alpha * (sum_{s<=t} f(s) + (t+1) * Z / J)``."""
        n = self.slots_recorded if t is None else t + 1
        if not 0 <= n <= self.portfolio.horizon:
            raise ValueError("slot index out of range")
        f_cum = float(self.portfolio.offsite.values[:n].sum())
        z_cum = self.portfolio.recs * n / self.portfolio.horizon
        return self.alpha * (f_cum + z_cum)

    @property
    def deficit(self) -> float:
        """Brown energy minus the budget accrued so far (MWh); positive
        means neutrality is currently violated on a pro-rata basis."""
        return self.total_brown - self.budget_through()

    def is_neutral(self, *, tolerance: float = 1e-9) -> bool:
        """Whether Eq. (10) holds over the slots recorded so far."""
        return self.deficit <= tolerance * max(self.budget_through(), 1.0)

    def required_trueup(self) -> float:
        """MWh of extra RECs needed at period end to restore neutrality
        (paper section 4.3: "data centers may purchase additional RECs at
        the end of a budgeting period"); zero when already neutral."""
        return max(self.deficit / self.alpha, 0.0)

    def surplus(self) -> float:
        """Unused budget (MWh) available to sell when ``alpha`` leaves
        slack; zero when in deficit."""
        return max(-self.deficit / self.alpha, 0.0)
