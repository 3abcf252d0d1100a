"""Multi-site simulation loop and per-run records."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controller import GeoEnvironment

__all__ = ["GeoRecord", "simulate_geo"]


@dataclass
class GeoRecord:
    """Per-slot outcomes of a multi-site run.

    Matrices are ``(horizon, sites)``.
    """

    controller: str
    site_names: tuple[str, ...]
    shares: np.ndarray  # req/s routed to each site
    brown: np.ndarray  # MWh drawn at each site
    cost: np.ndarray  # $ spent at each site (g_s)

    @property
    def horizon(self) -> int:
        """Number of slots recorded."""
        return self.shares.shape[0]

    @property
    def total_brown(self) -> float:
        """Aggregate brown energy (MWh) across sites and slots."""
        return float(self.brown.sum())

    @property
    def average_cost(self) -> float:
        """Mean hourly aggregate operational cost ($)."""
        return float(self.cost.sum(axis=1).mean())

    def site_share_of_load(self) -> np.ndarray:
        """Each site's fraction of the total work routed over the run."""
        totals = self.shares.sum(axis=0)
        return totals / max(totals.sum(), 1e-300)

    def is_neutral(self, environment: GeoEnvironment) -> bool:
        """Aggregate neutrality: total brown <= alpha * (sum f + Z)."""
        return self.total_brown <= environment.alpha * environment.carbon_budget * (
            1 + 1e-9
        )


def simulate_geo(controller, environment: GeoEnvironment) -> GeoRecord:
    """Run a geo controller over the full period.

    The controller must expose ``decide(t) -> DispatchResult`` and
    ``observe(t, result)`` (see :class:`~geo_extension.controller.GeoCOCA`).
    """
    J = environment.horizon
    S = len(environment.sites)
    shares = np.empty((J, S))
    brown = np.empty((J, S))
    cost = np.empty((J, S))

    for t in range(J):
        result = controller.decide(t)
        shares[t] = result.shares
        for i, sol in enumerate(result.solutions):
            brown[t, i] = sol.evaluation.brown_energy
            cost[t, i] = sol.cost
        controller.observe(t, result)

    return GeoRecord(
        controller=controller.name(),
        site_names=tuple(s.name for s in environment.sites),
        shares=shares,
        brown=brown,
        cost=cost,
    )
