"""Static data-center model shared by controllers and baselines.

:class:`DataCenterModel` bundles everything about the facility that does not
change slot to slot -- the fleet, the cost-model weights, and the pluggable
substrate models -- and manufactures
:class:`~repro.solvers.problem.SlotProblem` instances from per-slot inputs.
Controllers differ only in which deficit weight ``q`` and parameter ``V``
they pass (COCA uses its queue; the offline dual uses a multiplier; the
carbon-unaware baseline uses zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster.fleet import Fleet
from ..cluster.power import LinearTariff, PowerModel, Tariff
from ..cluster.queueing import DELAY_UNIT_COST, DelayCostModel, MG1PSDelay
from ..cluster.switching import SwitchingCostModel
from ..solvers.problem import SlotProblem

__all__ = ["DataCenterModel"]


@dataclass(frozen=True)
class DataCenterModel:
    """Facility-side parameters of the optimization (see paper section 2).

    Parameters
    ----------
    fleet:
        The server groups under management.
    beta:
        Delay-cost weight of Eq. (5) (paper default 10).
    gamma:
        Maximum server utilization of constraint (7).
    delay_model, power_model, tariff:
        Substrate models (defaults: M/G/1/PS, PUE = 1, linear tariff).
    delay_unit_cost:
        $ per delay-sum unit (see :mod:`repro.cluster.queueing`).
    switching:
        Optional switching-cost model applied fleet-wide.
    peak_power_cap:
        Optional facility-power ceiling in MW (section 3.1).
    max_delay_cost:
        Optional per-slot delay-cost ceiling in dollars (section 3.1).
    slot_hours:
        Slot length in hours (default 1.0, the paper's hourly slotting);
        converts between powers (MW) and per-slot energies (MWh).
    """

    fleet: Fleet
    beta: float = 10.0
    gamma: float = 0.95
    delay_model: DelayCostModel = field(default_factory=MG1PSDelay)
    power_model: PowerModel = field(default_factory=PowerModel)
    tariff: Tariff = field(default_factory=LinearTariff)
    delay_unit_cost: float = DELAY_UNIT_COST
    switching: SwitchingCostModel | None = None
    peak_power_cap: float | None = None
    max_delay_cost: float | None = None
    slot_hours: float = 1.0

    def slot_problem(
        self,
        *,
        arrival_rate: float,
        onsite: float,
        price: float,
        q: float = 0.0,
        V: float = 1.0,
        prev_on_counts: np.ndarray | None = None,
        network_delay: float = 0.0,
        pue_override: float | None = None,
        failed: frozenset[int] | None = None,
    ) -> SlotProblem:
        """Build the P3 instance for one slot; ``failed`` names the server
        groups that are down (see :class:`SlotProblem`)."""
        return SlotProblem(
            fleet=self.fleet,
            arrival_rate=arrival_rate,
            onsite=onsite,
            price=price,
            q=q,
            V=V,
            beta=self.beta,
            gamma=self.gamma,
            delay_model=self.delay_model,
            power_model=self.power_model,
            tariff=self.tariff,
            delay_unit_cost=self.delay_unit_cost,
            switching=self.switching,
            prev_on_counts=prev_on_counts,
            peak_power_cap=self.peak_power_cap,
            max_delay_cost=self.max_delay_cost,
            network_delay=network_delay,
            pue_override=pue_override,
            slot_hours=self.slot_hours,
            failed=failed,
        )

    @property
    def max_facility_power(self) -> float:
        """Worst-case facility power (MW): full fleet at top speed and
        load, times PUE.  Used by the Theorem 2 constants."""
        return self.power_model.facility_power(self.fleet.max_power)
