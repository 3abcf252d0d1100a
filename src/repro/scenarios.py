"""Prebuilt experiment scenarios matching the paper's section 5.1 setup.

:func:`paper_scenario` assembles the full evaluation environment:

* a 50 MW-peak data center of Opteron-2380 servers in 200 groups (~216 K
  servers);
* the FIU-style (default) or MSR-style workload trace scaled so its peak is
  ~50% of full-speed capacity;
* hourly CAISO-style electricity prices;
* on-site renewables scaled to ~20% of the carbon-unaware facility energy;
* a carbon budget equal to ``budget_fraction`` (default 92%) of the brown
  energy the carbon-unaware policy would draw, split 40% off-site
  renewables / 60% RECs;
* ``beta = 10`` and the library's delay-to-dollar calibration.

Budget calibration needs two sweeps (the paper does the same implicitly by
normalizing budgets to the carbon-unaware algorithm's 1.55e5 MWh): first the
unaware *facility* energy with no renewables fixes the on-site scale, then
the unaware *brown* energy with on-site supply in place fixes the budget.

:func:`small_scenario` is a scaled-down variant for tests and quick demos.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cluster.fleet import Fleet, ServerGroup, default_fleet
from .cluster.switching import SwitchingCostModel
from .core.config import DataCenterModel
from .energy.renewables import RenewablePortfolio, onsite_mix
from .solvers.batch import batch_enumerate
from .sim.environment import Environment
from .traces.base import HOURS_PER_YEAR, Trace
from .traces.price import price_trace
from .traces.workload_fiu import fiu_workload
from .traces.workload_msr import msr_workload

__all__ = ["Scenario", "paper_scenario", "small_scenario", "SMALL_HORIZON"]

#: Slots in :func:`small_scenario` by default: two weeks of hours.
SMALL_HORIZON = 24 * 14


@dataclass(frozen=True)
class Scenario:
    """A ready-to-run experiment bundle."""

    model: DataCenterModel
    environment: Environment
    alpha: float
    unaware_brown: float  # MWh the carbon-unaware policy would draw
    unaware_cost: float  # its average hourly cost, $
    budget: float  # allowed brown energy, MWh

    @property
    def horizon(self) -> int:
        """Number of slots."""
        return self.environment.horizon

    @property
    def budget_fraction(self) -> float:
        """Budget relative to the unaware brown energy."""
        return self.budget / self.unaware_brown if self.unaware_brown else np.inf

    def with_budget_fraction(
        self, fraction: float, *, offsite_fraction: float | None = None
    ) -> "Scenario":
        """Rescale the carbon budget (Fig. 5(a,b) sweeps)."""
        if fraction <= 0:
            raise ValueError("budget fraction must be positive")
        current = self.environment.portfolio
        split = (
            current.offsite_fraction if offsite_fraction is None else offsite_fraction
        )
        budget = fraction * self.unaware_brown
        portfolio = current.with_budget_split(budget / self.alpha, split)
        return replace(
            self,
            environment=self.environment.with_portfolio(portfolio),
            budget=budget,
        )

    def with_switching(self, fraction: float, **kwargs) -> "Scenario":
        """Attach a switching-cost model (Fig. 5(d) sweep)."""
        model = replace(
            self.model, switching=SwitchingCostModel.from_fraction(fraction, **kwargs)
        )
        return replace(self, model=model)


def _build(
    model: DataCenterModel,
    workload: Trace,
    price: Trace,
    *,
    horizon: int,
    seed: int,
    alpha: float,
    budget_fraction: float,
    onsite_fraction: float,
    offsite_fraction: float,
) -> Scenario:
    rng = np.random.default_rng(seed)
    onsite_shape = onsite_mix(horizon, solar_fraction=0.6, rng=rng)
    offsite_shape = Trace(
        onsite_mix(horizon, solar_fraction=0.45, rng=rng).values,
        name="offsite-renewables",
        unit="MW",
    )

    # Pass 1: unaware facility energy with no renewables -> on-site scale.
    zeros = np.zeros(horizon)
    sweep0 = batch_enumerate(
        model, workload.values, zeros, price.values, q=0.0, V=1.0
    )
    total_energy = float(
        (model.power_model.pue * sweep0.it_power).sum()
    )
    onsite = onsite_shape.scale_to_total(onsite_fraction * total_energy)

    # Pass 2: unaware brown energy with on-site supply -> the budget.
    sweep1 = batch_enumerate(
        model, workload.values, onsite.values, price.values, q=0.0, V=1.0
    )
    unaware_brown = sweep1.total_brown
    budget = budget_fraction * unaware_brown

    portfolio = RenewablePortfolio(
        onsite=onsite, offsite=offsite_shape, recs=0.0
    ).with_budget_split(budget / alpha, offsite_fraction)

    environment = Environment(workload=workload, portfolio=portfolio, price=price)
    return Scenario(
        model=model,
        environment=environment,
        alpha=alpha,
        unaware_brown=unaware_brown,
        unaware_cost=sweep1.average_cost,
        budget=budget,
    )


def paper_scenario(
    *,
    horizon: int = HOURS_PER_YEAR,
    workload: str = "fiu",
    seed: int = 2012,
    num_groups: int = 200,
    servers_per_group: int = 1080,
    alpha: float = 1.0,
    budget_fraction: float = 0.92,
    onsite_fraction: float = 0.20,
    offsite_fraction: float = 0.40,
    beta: float = 10.0,
    gamma: float = 0.95,
) -> Scenario:
    """The paper's default evaluation setup (section 5.1).

    Parameters mirror the paper's stated defaults; ``workload`` selects the
    FIU-style (``"fiu"``) or MSR-style (``"msr"``) trace.
    """
    fleet = default_fleet(num_groups=num_groups, servers_per_group=servers_per_group)
    model = DataCenterModel(fleet=fleet, beta=beta, gamma=gamma)
    peak = 0.5 * fleet.max_capacity  # paper: ~50% of full-speed capacity
    if workload == "fiu":
        trace = fiu_workload(horizon, peak=peak, seed=seed)
    elif workload == "msr":
        trace = msr_workload(horizon, peak=peak, seed=seed)
    else:
        raise ValueError(f"unknown workload {workload!r} (use 'fiu' or 'msr')")
    price = price_trace(horizon, seed=seed + 1)
    return _build(
        model,
        trace,
        price,
        horizon=horizon,
        seed=seed + 2,
        alpha=alpha,
        budget_fraction=budget_fraction,
        onsite_fraction=onsite_fraction,
        offsite_fraction=offsite_fraction,
    )


def small_scenario(
    *,
    horizon: int = SMALL_HORIZON,
    num_groups: int = 8,
    servers_per_group: int = 50,
    seed: int = 42,
    budget_fraction: float = 0.92,
    **kwargs,
) -> Scenario:
    """A laptop-friendly scenario for tests and quick examples: two weeks,
    a few hundred servers, same structure as :func:`paper_scenario`."""
    return paper_scenario(
        horizon=horizon,
        num_groups=num_groups,
        servers_per_group=servers_per_group,
        seed=seed,
        budget_fraction=budget_fraction,
        **kwargs,
    )
