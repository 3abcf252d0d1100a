"""Per-slot workload dispatch across sites.

Each slot the operator splits the global arrival rate ``lambda(t)`` across
sites; each site then provisions its own fleet (its local P3).  The global
objective is separable given the split,

    min_{x >= 0, sum x_s = lambda}   sum_s  F_s(x_s),

where ``F_s`` is site ``s``'s optimal P3 objective as a function of its
share -- piecewise-smooth and (approximately) convex, since each site's
inner problem relaxes to a convex program.  :func:`dispatch_slot` solves the
split by *marginal-cost equalization*: starting from a capacity-
proportional split, it repeatedly moves a shrinking block of load from the
site with the highest marginal cost to the one with the lowest, accepting
only improving transfers -- a derivative-free analogue of projected
gradient descent that is robust to the discrete kinks of ``F_s`` (server
counts change in group-size steps).  Each site's P3 is solved exactly by
:class:`~repro.solvers.enumeration.HomogeneousEnumerationSolver`.

:func:`proportional_shares` (split by capacity, ignore prices and
renewables) is the naive baseline the geo bench compares against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.solvers.base import SlotSolution
from repro.solvers.enumeration import HomogeneousEnumerationSolver
from repro.solvers.problem import InfeasibleError

from .site import Site

__all__ = ["DispatchResult", "dispatch_slot", "proportional_shares"]


@dataclass(frozen=True)
class DispatchResult:
    """Outcome of one slot's dispatch."""

    shares: np.ndarray  # req/s routed to each site
    solutions: tuple[SlotSolution, ...]  # per-site local solutions
    total_objective: float

    @property
    def total_brown(self) -> float:
        """Aggregate brown energy (MWh) for the slot."""
        return float(sum(s.evaluation.brown_energy for s in self.solutions))


def proportional_shares(sites: Sequence[Site], total_load: float) -> np.ndarray:
    """Capacity-proportional split (the naive baseline)."""
    caps = np.array([s.capacity() for s in sites])
    if total_load > caps.sum() * (1 + 1e-12):
        raise InfeasibleError("global workload exceeds aggregate capacity")
    return total_load * caps / caps.sum()


def dispatch_slot(
    sites: Sequence[Site],
    t: int,
    total_load: float,
    *,
    q: float = 0.0,
    V: float = 1.0,
    prev_on: Sequence[np.ndarray | None] | None = None,
    rounds: int = 24,
    initial_shares: np.ndarray | None = None,
) -> DispatchResult:
    """Split ``total_load`` across ``sites`` and solve each local P3.

    Parameters
    ----------
    sites:
        The locations; their traces must cover slot ``t``.
    total_load:
        Global arrival rate (req/s).
    q, V:
        Global deficit weight and cost-carbon parameter.
    prev_on:
        Per-site previous on-counts (switching awareness), or None.
    rounds:
        Transfer rounds; each tries one highest-to-lowest-marginal move
        with a geometrically shrinking block size.
    initial_shares:
        Starting split; defaults to capacity-proportional.
    """
    S = len(sites)
    if S == 0:
        raise ValueError("need at least one site")
    if prev_on is None:
        prev_on = [None] * S
    solver = HomogeneousEnumerationSolver()
    caps = np.array([s.capacity() for s in sites])
    shares = (
        initial_shares.astype(np.float64).copy()
        if initial_shares is not None
        else proportional_shares(sites, total_load)
    )
    if abs(shares.sum() - total_load) > 1e-6 * max(total_load, 1.0):
        raise ValueError("initial shares must sum to the total load")

    cache: dict[tuple[int, float], SlotSolution] = {}

    def solve_site(i: int, load: float) -> SlotSolution:
        key = (i, round(load, 6))
        hit = cache.get(key)
        if hit is not None:
            return hit
        problem = sites[i].slot_problem(
            t, load, q=q, V=V, prev_on_counts=prev_on[i]
        )
        solution = solver.solve(problem)
        cache[key] = solution
        return solution

    solutions = [solve_site(i, shares[i]) for i in range(S)]
    objectives = np.array([s.objective for s in solutions])

    if S > 1 and total_load > 0.0:
        block = 0.25 * total_load
        for _ in range(rounds):
            # Marginal estimate via the transfer block itself: try moving
            # `amount` from the currently-costliest site to each other site
            # and keep the best improving move.
            donor = int(np.argmax(objectives))
            amount = min(block, shares[donor])
            improved = False
            if amount > 1e-9 * max(total_load, 1.0):
                base_total = objectives.sum()
                donor_after = solve_site(donor, shares[donor] - amount)
                for recv in range(S):
                    if recv == donor or shares[recv] + amount > caps[recv]:
                        continue
                    recv_after = solve_site(recv, shares[recv] + amount)
                    delta = (
                        donor_after.objective
                        + recv_after.objective
                        - objectives[donor]
                        - objectives[recv]
                    )
                    if delta < -1e-12 * max(base_total, 1.0):
                        shares[donor] -= amount
                        shares[recv] += amount
                        solutions[donor] = donor_after
                        solutions[recv] = recv_after
                        objectives[donor] = donor_after.objective
                        objectives[recv] = recv_after.objective
                        improved = True
                        break
            if not improved:
                block *= 0.5
                if block < 1e-6 * total_load:
                    break

    return DispatchResult(
        shares=shares,
        solutions=tuple(solutions),
        total_objective=float(objectives.sum()),
    )
