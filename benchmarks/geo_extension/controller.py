"""GeoCOCA: online carbon-neutral control across multiple sites.

The multi-site analogue of Algorithm 1.  Carbon neutrality is an
*aggregate* constraint -- the operator's total brown energy across all
sites must stay within the global off-site-renewables-plus-RECs budget --
so a single carbon-deficit queue prices every site's brown energy:

    q(t+1) = max( q(t) + sum_s y_s(t) - alpha f(t) - z , 0 ).

Each slot, the dispatcher splits the global workload so the P3 objectives
``V g_s + q y_s`` sum to a minimum (see :mod:`geo_extension.dispatch`), which
simultaneously chases cheap electricity, local renewables, and low network
delay -- geographic load balancing [21, 29, 32] fused with the paper's
energy budgeting, with no future information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.deficit_queue import CarbonDeficitQueue
from repro.traces.base import Trace

from .dispatch import DispatchResult, dispatch_slot, proportional_shares
from .site import Site

__all__ = ["GeoEnvironment", "GeoCOCA", "ProportionalGeo"]


@dataclass(frozen=True)
class GeoEnvironment:
    """Global inputs for a multi-site run.

    Parameters
    ----------
    workload:
        Global arrival-rate trace (req/s) to be split across sites.
    sites:
        The locations (each with local traces of the same horizon).
    offsite:
        Global off-site renewable supply ``f(t)`` in MW (PPAs offset
        aggregate brown energy wherever it is drawn).
    recs:
        Global REC prepurchase ``Z`` in MWh.
    alpha:
        Capping aggressiveness of the aggregate constraint.
    """

    workload: Trace
    sites: tuple[Site, ...]
    offsite: Trace
    recs: float
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if not self.sites:
            raise ValueError("need at least one site")
        horizons = {len(self.workload), len(self.offsite)}
        horizons.update(s.horizon for s in self.sites)
        if len(horizons) != 1:
            raise ValueError(f"inconsistent horizons: {sorted(horizons)}")
        if self.recs < 0:
            raise ValueError("REC total must be non-negative")
        object.__setattr__(self, "sites", tuple(self.sites))

    @property
    def horizon(self) -> int:
        """Number of slots."""
        return len(self.workload)

    @property
    def carbon_budget(self) -> float:
        """Global budget ``sum f + Z`` in MWh."""
        return self.offsite.total + self.recs

    @property
    def total_capacity(self) -> float:
        """Aggregate capped service rate across sites (req/s)."""
        return float(sum(s.capacity() for s in self.sites))


class GeoCOCA:
    """Multi-site COCA with a single global deficit queue.

    Parameters
    ----------
    environment:
        Global traces and sites.
    v:
        Cost-carbon parameter ``V`` (one frame over the whole run).
    dispatch_rounds:
        Transfer rounds per slot for the dispatcher.
    """

    def __init__(
        self,
        environment: GeoEnvironment,
        *,
        v: float = 100.0,
        dispatch_rounds: int = 24,
    ):
        self.environment = environment
        self.v = float(v)
        self.dispatch_rounds = dispatch_rounds
        self.queue = CarbonDeficitQueue(
            alpha=environment.alpha,
            rec_per_slot=environment.alpha * environment.recs / environment.horizon,
        )
        self._prev_on: list[np.ndarray | None] = [None] * len(environment.sites)
        self._prev_shares: np.ndarray | None = None

    def decide(self, t: int) -> DispatchResult:
        """Dispatch slot ``t`` and provision every site."""
        result = dispatch_slot(
            self.environment.sites,
            t,
            self.environment.workload[t],
            q=self.queue.length,
            V=self.v,
            prev_on=self._prev_on,
            rounds=self.dispatch_rounds,
            initial_shares=self._warm_start(t),
        )
        self._prev_on = [
            sol.action.on_counts(site.model.fleet)
            for sol, site in zip(result.solutions, self.environment.sites)
        ]
        self._prev_shares = result.shares.copy()
        return result

    def _warm_start(self, t: int) -> np.ndarray | None:
        """Rescale the previous slot's split to this slot's total -- a good
        starting point because the environment is autocorrelated."""
        if self._prev_shares is None:
            return None
        total = self.environment.workload[t]
        prev_total = float(self._prev_shares.sum())
        if prev_total <= 0.0 or total <= 0.0:
            return None
        scaled = self._prev_shares * (total / prev_total)
        caps = np.array([s.capacity() for s in self.environment.sites])
        if np.any(scaled > caps):
            return None
        return scaled

    def observe(self, t: int, result: DispatchResult) -> None:
        """End-of-slot queue update with the realized off-site supply."""
        self.queue.update(result.total_brown, self.environment.offsite[t])

    def name(self) -> str:
        return "GeoCOCA"


class ProportionalGeo:
    """Naive baseline: capacity-proportional split, carbon-unaware sites."""

    def __init__(self, environment: GeoEnvironment):
        self.environment = environment
        self._prev_on: list[np.ndarray | None] = [None] * len(environment.sites)

    def decide(self, t: int) -> DispatchResult:
        sites = self.environment.sites
        total = self.environment.workload[t]
        shares = proportional_shares(sites, total)
        result = dispatch_slot(
            sites,
            t,
            total,
            q=0.0,
            V=1.0,
            prev_on=self._prev_on,
            rounds=0,
            initial_shares=shares,
        )
        self._prev_on = [
            sol.action.on_counts(site.model.fleet)
            for sol, site in zip(result.solutions, sites)
        ]
        return result

    def observe(self, t: int, result: DispatchResult) -> None:
        """Stateless baseline; nothing to update."""

    def name(self) -> str:
        return "proportional"
