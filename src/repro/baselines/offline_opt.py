"""OPT: the offline optimal benchmark (paper Fig. 5(a,b)).

OPT sees the entire period's traces and minimizes average cost subject to
the carbon-neutrality constraint (problem P1).  P1 couples the slots only
through the single long-term constraint ``sum_t y(t) <= alpha (sum_t f(t) +
Z)``, so its Lagrangian decomposes per slot:

    min_t  g(t) + mu y(t),

exactly a P3 instance with ``q = mu`` and ``V = 1``.  The total brown
energy of the per-slot minimizers is nonincreasing in ``mu``; bisection on
``mu`` finds the smallest multiplier whose sweep meets the budget.  For the
discrete speed sets the per-slot problems are nonconvex, so this dual
approach carries a (tiny, with 200 groups) duality gap: the returned policy
is *feasible* and near-optimal, and :meth:`DualSweep.lower_bound` reports
the certified per-slot lower bound ``(sum_t min[g + mu y] - mu * budget) /
J`` that brackets the true optimum from below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.config import DataCenterModel
from ..core.controller import Controller, SlotObservation
from ..solvers.base import SlotSolution, SlotSolver
from ..solvers.batch import BatchResult, batch_enumerate, supports_batch
from ..solvers.convex import CoordinateDescentSolver
from ..solvers.enumeration import HomogeneousEnumerationSolver

__all__ = ["OfflineOptimal", "DualSweep", "solve_dual_multiplier"]

_BISECT_ITERS = 40


@dataclass(frozen=True)
class DualSweep:
    """One full-horizon sweep at a fixed multiplier."""

    mu: float
    total_brown: float
    total_cost: float

    def lower_bound(self, budget: float, horizon: int) -> float:
        """Certified per-slot lower bound on P1's optimal average cost:
        ``(sum_t min[g + mu y] - mu budget) / J``."""
        return (self.total_cost + self.mu * self.total_brown - self.mu * budget) / horizon


def _sweep(model: DataCenterModel, environment, mu: float, solver: SlotSolver | None) -> DualSweep:
    """Run every slot at penalty ``mu``; fast path for homogeneous fleets."""
    lam = environment.actual_workload.values
    onsite = environment.portfolio.onsite.values
    price = environment.price.values
    pue = environment.pue.values if getattr(environment, "pue", None) is not None else None
    if supports_batch(model) and solver is None:
        res: BatchResult = batch_enumerate(
            model, lam, onsite, price, q=mu, V=1.0, pue=pue
        )
        return DualSweep(mu=mu, total_brown=res.total_brown, total_cost=float(res.cost.sum()))
    eng = solver or (
        HomogeneousEnumerationSolver()
        if model.fleet.is_homogeneous
        else CoordinateDescentSolver()
    )
    brown = cost = 0.0
    for t in range(environment.horizon):
        problem = model.slot_problem(
            arrival_rate=lam[t], onsite=onsite[t], price=price[t], q=mu, V=1.0
        )
        sol = eng.solve(problem)
        brown += sol.evaluation.brown_energy
        cost += sol.evaluation.cost
    return DualSweep(mu=mu, total_brown=brown, total_cost=cost)


def solve_dual_multiplier(
    model: DataCenterModel,
    environment,
    budget: float,
    *,
    solver: SlotSolver | None = None,
    iters: int = _BISECT_ITERS,
) -> tuple[float, DualSweep]:
    """Bisection for the smallest ``mu >= 0`` whose sweep's total brown
    energy fits within ``budget`` MWh.  Returns ``(mu, final sweep)``."""
    if budget < 0:
        raise ValueError("budget must be non-negative")
    base = _sweep(model, environment, 0.0, solver)
    if base.total_brown <= budget:
        return 0.0, base

    hi = max(float(environment.price.peak), 1.0)
    sweep_hi = _sweep(model, environment, hi, solver)
    while sweep_hi.total_brown > budget:
        hi *= 4.0
        if hi > 1e12:
            raise ValueError(
                "cannot meet the budget even with an enormous penalty; the "
                "workload's minimum power exceeds it"
            )
        sweep_hi = _sweep(model, environment, hi, solver)

    lo = 0.0
    final = sweep_hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        sweep = _sweep(model, environment, mid, solver)
        if sweep.total_brown > budget:
            lo = mid
        else:
            hi = mid
            final = sweep
    return hi, final


class OfflineOptimal(Controller):
    """The OPT baseline: full-information dual policy.

    Parameters
    ----------
    model:
        Facility parameters.
    budget:
        Total allowed brown energy in MWh (``alpha * (sum f + Z)``); when
        ``None`` it is read from the environment's portfolio at start.
    alpha:
        Capping aggressiveness used when deriving the budget from the
        portfolio.
    """

    def __init__(
        self,
        model: DataCenterModel,
        *,
        budget: float | None = None,
        alpha: float = 1.0,
        solver: SlotSolver | None = None,
    ):
        self.model = model
        self.budget = budget
        self.alpha = alpha
        self.solver = solver
        self.mu: float | None = None
        self.sweep: DualSweep | None = None
        self._prev_on = None
        self._slot_solver = solver or (
            HomogeneousEnumerationSolver()
            if model.fleet.is_homogeneous
            else CoordinateDescentSolver()
        )

    def start(self, environment) -> None:
        budget = (
            self.budget
            if self.budget is not None
            else self.alpha * environment.portfolio.carbon_budget
        )
        self.mu, self.sweep = solve_dual_multiplier(
            self.model, environment, budget, solver=self.solver
        )

    def decide(self, observation: SlotObservation) -> SlotSolution:
        if self.mu is None:
            raise RuntimeError("OfflineOptimal.start() was not called")
        problem = self.model.slot_problem(
            arrival_rate=observation.arrival_rate,
            onsite=observation.onsite,
            price=observation.price,
            network_delay=observation.network_delay,
            pue_override=observation.pue,
            q=self.mu,
            V=1.0,
            prev_on_counts=self._prev_on,
        )
        solution = self._slot_solver.solve(problem)
        self._prev_on = solution.action.on_counts(self.model.fleet)
        return solution

    def name(self) -> str:
        return "OPT"
