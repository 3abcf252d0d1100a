"""The environment: everything exogenous to the controller.

The paper uses *environment* to collectively refer to the electricity price,
on-site/off-site renewable supplies, and workloads (section 2).
:class:`Environment` bundles those traces -- with separate *predicted* and
*actual* workload views so overestimation/prediction-error studies can feed
each side its own series -- plus the renewable portfolio carrying the REC
total.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..core.controller import SlotObservation
from ..energy.renewables import RenewablePortfolio
from ..traces.base import Trace
from ..traces.noise import PredictionModel

__all__ = ["Environment"]


@dataclass(frozen=True)
class Environment:
    """Exogenous inputs for one budgeting period.

    Parameters
    ----------
    workload:
        Either a plain :class:`Trace` (perfect hour-ahead knowledge, the
        paper's base assumption) or a :class:`PredictionModel` pairing the
        controller's belief with the realized arrivals.
    portfolio:
        On-site/off-site renewable traces and the REC total.
    price:
        Hourly electricity price in $/MWh.
    network_delay:
        Optional time-varying user-to-data-center network delay (section
        2.3); added to the delay cost per served request.
    pue:
        Optional hourly PUE trace (footnote 1's "(time-varying)" factor).
    """

    workload: Trace | PredictionModel
    portfolio: RenewablePortfolio
    price: Trace
    network_delay: Trace | None = None
    pue: Trace | None = None

    def __post_init__(self) -> None:
        horizons = {
            self._predicted.horizon,
            self._actual.horizon,
            self.portfolio.horizon,
            len(self.price),
        }
        if self.network_delay is not None:
            horizons.add(len(self.network_delay))
        if self.pue is not None:
            horizons.add(len(self.pue))
            if self.pue.values.min() < 1.0:
                raise ValueError("PUE trace values must be >= 1")
        if len(horizons) != 1:
            raise ValueError(f"inconsistent trace horizons: {sorted(horizons)}")

    # ------------------------------------------------------------------
    @property
    def _predicted(self) -> Trace:
        if isinstance(self.workload, PredictionModel):
            return self.workload.predicted
        return self.workload

    @property
    def _actual(self) -> Trace:
        if isinstance(self.workload, PredictionModel):
            return self.workload.actual
        return self.workload

    @property
    def horizon(self) -> int:
        """Number of slots ``J``."""
        return len(self.price)

    @property
    def predicted_workload(self) -> Trace:
        """The controller's view of arrivals."""
        return self._predicted

    @property
    def actual_workload(self) -> Trace:
        """The realized arrivals."""
        return self._actual

    # ------------------------------------------------------------------
    def observation(self, t: int) -> SlotObservation:
        """What the controller sees at the start of slot ``t``."""
        return SlotObservation(
            t=t,
            arrival_rate=self._predicted[t],
            onsite=self.portfolio.onsite[t],
            price=self.price[t],
            network_delay=(
                self.network_delay[t] if self.network_delay is not None else 0.0
            ),
            pue=self.pue[t] if self.pue is not None else None,
        )

    def actual_arrival(self, t: int) -> float:
        """Realized arrival rate for slot ``t`` (req/s)."""
        return self._actual[t]

    def offsite(self, t: int) -> float:
        """Realized off-site renewable supply for slot ``t`` (MWh)."""
        return self.portfolio.offsite[t]

    def fingerprint(self) -> int:
        """CRC32 of the input traces that checkpoints validate against
        (:func:`repro.state.serialize.environment_fingerprint`)."""
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> int:
        # Trace arrays are read-only, so one walk per instance suffices.
        from ..state.serialize import trace_fingerprint

        return trace_fingerprint(self)

    def with_workload(self, workload: Trace | PredictionModel) -> "Environment":
        """Copy with a different workload (overestimation sweeps)."""
        return Environment(
            workload=workload,
            portfolio=self.portfolio,
            price=self.price,
            network_delay=self.network_delay,
            pue=self.pue,
        )

    def with_portfolio(self, portfolio: RenewablePortfolio) -> "Environment":
        """Copy with a different renewable portfolio (budget sweeps)."""
        return Environment(
            workload=self.workload,
            portfolio=portfolio,
            price=self.price,
            network_delay=self.network_delay,
            pue=self.pue,
        )
