"""Solving P3 when part of the fleet is down.

The paper's section 4.2 remark — server failures just shrink the feasible
set — has a direct computational reading: solve the slot problem on the
*surviving* sub-fleet and re-expand the answer.  This works with **any**
:class:`~repro.solvers.base.SlotSolver` (enumeration, coordinate descent,
GSD, the distributed protocol) because the sub-problem is an ordinary
:class:`~repro.solvers.problem.SlotProblem` over a smaller
:class:`~repro.cluster.fleet.Fleet`; the failed groups come back as level
``-1`` (off) with zero load in the expanded action.

The fault-injection layer's failed set changes slot to slot -- under
generated failures on almost every slot -- so caching sub-fleets per failed
set would not help; instead each slot's sub-fleet is sliced from the full
fleet's tables by :meth:`~repro.cluster.fleet.Fleet.subset`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable

import numpy as np

from ..cluster.fleet import FleetAction
from .base import SlotSolution, SlotSolver
from .problem import InfeasibleError, SlotProblem

__all__ = ["solve_with_failed_groups"]


def solve_with_failed_groups(
    solver: SlotSolver,
    problem: SlotProblem,
    failed: Iterable[int],
) -> SlotSolution:
    """Solve ``problem`` with the given groups forced off.

    Builds the sub-fleet of healthy groups, solves the restricted problem
    with ``solver``, and expands the solution back to full-fleet shape
    (failed groups at level ``-1``, zero load).  Raises
    :class:`InfeasibleError` when every group is down or the survivors
    cannot serve the workload within the utilization cap.
    """
    fleet = problem.fleet
    failed_list = sorted({int(g) for g in failed})
    if not failed_list:
        return solver.solve(problem)
    for g in (failed_list[0], failed_list[-1]):
        if not 0 <= g < fleet.num_groups:
            raise ValueError(f"failed group index {g} out of range")

    mask = np.ones(fleet.num_groups, dtype=bool)
    mask[failed_list] = False
    healthy = np.flatnonzero(mask)
    if healthy.size == 0:
        raise InfeasibleError("every server group has failed")

    sub_fleet = fleet.subset(healthy)
    prev = problem.prev_on_counts
    sub_prev = None if prev is None else np.asarray(prev)[healthy]
    sub_problem = replace(problem, fleet=sub_fleet, prev_on_counts=sub_prev)
    sub_problem.check_feasible()  # clear error before the engine runs
    sub_solution = solver.solve(sub_problem)

    levels = np.full(fleet.num_groups, -1, dtype=np.int64)
    loads = np.zeros(fleet.num_groups)
    levels[healthy] = sub_solution.action.levels
    loads[healthy] = sub_solution.action.per_server_load
    action = FleetAction(levels=levels, per_server_load=loads)
    info = dict(sub_solution.info)
    info["failed_groups"] = failed_list
    return SlotSolution(
        action=action,
        evaluation=problem.evaluate(action),
        info=info,
    )
