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
fleet's tables by :meth:`~repro.cluster.fleet.Fleet.subset`.  The
sub-solution's class rows carry over to the full fleet as they are when
the fleet has one profile (a class id is then ``1 + level`` on any
sub-fleet); otherwise their class ids are mapped onto the full fleet's,
whose class tables are built once per run.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable

import numpy as np

from ..cluster.fleet import ClassRows, Fleet, FleetAction
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
    (failed groups at level ``-1``, in no class row).  Raises
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
    levels[healthy] = sub_solution.action.levels
    rows = sub_solution.action.rows
    if not fleet.is_homogeneous:
        rows = _full_fleet_rows(fleet, sub_fleet, healthy, levels, rows)
    action = FleetAction(levels, rows)
    info = dict(sub_solution.info)
    info["failed_groups"] = failed_list
    return SlotSolution(action=action, evaluation=problem.evaluate(action), info=info)


def _full_fleet_rows(
    fleet: Fleet, sub_fleet: Fleet, healthy: np.ndarray, levels: np.ndarray, rows: ClassRows
) -> ClassRows:
    """Sub-fleet class ``rows`` under the full fleet's class ids.

    A sub-fleet numbers its profiles by first appearance among the
    survivors and pads its tables to their widest profile, so its class
    ids need not be the full fleet's.  Each healthy group maps its class
    on the sub-fleet to its class on the full fleet (``levels`` is the
    expanded full-fleet vector); the rows keep their loads, and the failed
    groups, all off, add no servers to any row.
    """
    sub_ids = sub_fleet.class_counts(levels[healthy])[0].tolist()
    full_ids = fleet.class_counts(levels)[0][healthy].tolist()
    load = dict(zip(rows.classes, rows.loads))
    class_load = {full: load[sub] for sub, full in zip(sub_ids, full_ids) if sub}
    return ClassRows.of(fleet, levels, class_load)
