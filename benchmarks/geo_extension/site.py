"""Geo-distributed sites: one data center location with its local inputs.

The paper's related-work section positions COCA against geographical load
balancing ([21, 29, 32]: route work to where energy is cheap/green); this
package *combines* the two -- COCA's online carbon-neutral control with
multi-site dispatch -- as the natural extension of the framework.

A :class:`Site` bundles what is local to one location: the facility model
(fleet, PUE, tariffs), the on-site renewable and electricity-price traces,
and the mean user-to-site network delay (the quantity that makes dispatch a
real trade-off: the cheapest site is rarely the closest).  Off-site
renewables and RECs remain *global* -- they offset the operator's aggregate
brown energy regardless of which site drew it, exactly like the paper's
accounting (RECs "are not tied to any physical delivery of electricity").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import DataCenterModel
from repro.solvers.problem import SlotProblem
from repro.traces.base import Trace

__all__ = ["Site"]


@dataclass(frozen=True)
class Site:
    """One data center location.

    Parameters
    ----------
    name:
        Identifier used in reports.
    model:
        Facility-side parameters for this location's fleet, which must be
        homogeneous (each site's P3 is solved by exact enumeration).
    onsite:
        Local on-site renewable supply ``r_s(t)`` in MW.
    price:
        Local electricity price ``w_s(t)`` in $/MWh (regional markets
        differ -- this is the arbitrage geographic balancing exploits).
    network_delay:
        Mean user-to-site network delay in the units of Eq. (4)'s response
        time; charged per request routed here (see
        :class:`~repro.solvers.problem.SlotProblem`).
    """

    name: str
    model: DataCenterModel
    onsite: Trace
    price: Trace
    network_delay: float = 0.0

    def __post_init__(self) -> None:
        if len(self.onsite) != len(self.price):
            raise ValueError(f"site {self.name!r}: trace horizons differ")
        if self.network_delay < 0:
            raise ValueError("network delay must be non-negative")
        if not self.model.fleet.is_homogeneous:
            raise ValueError(f"site {self.name!r}: fleet must be homogeneous")

    @property
    def horizon(self) -> int:
        """Number of slots covered by the site's traces."""
        return len(self.price)

    def capacity(self) -> float:
        """Usable service rate under the site's utilization cap (req/s)."""
        return self.model.fleet.capacity(self.model.gamma)

    def slot_problem(
        self,
        t: int,
        share: float,
        *,
        q: float = 0.0,
        V: float = 1.0,
        prev_on_counts: np.ndarray | None = None,
    ) -> SlotProblem:
        """The site's local P3 for slot ``t`` given its workload ``share``
        (req/s).  The global deficit weight ``q`` prices this site's brown
        energy identically to every other site's -- carbon neutrality is an
        aggregate constraint."""
        return self.model.slot_problem(
            arrival_rate=share,
            onsite=self.onsite[t],
            price=self.price[t],
            q=q,
            V=V,
            prev_on_counts=prev_on_counts,
            network_delay=self.network_delay,
        )
