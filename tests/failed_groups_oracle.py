"""Reference for slots with failed server groups: solve on a sub-fleet.

The shipped engines carry a slot's failed groups as
:attr:`repro.solvers.problem.SlotProblem.failed` and hold them off in
place.  Before that, every such slot was solved on a second problem over
the *surviving* sub-fleet and the answer re-expanded to the full fleet;
this module keeps that path as the oracle the masked engines are checked
against, record for record.

- :func:`subset` slices a sub-fleet from a fleet's tables; it equals
  ``Fleet(groups)`` on the same groups, down to its pickled bytes.
- :func:`solve_with_failed_groups` solves the sub-problem with any engine
  and expands the solution: failed groups at level ``-1``, in no class
  row, and the expanded action re-billed on the full problem.
- :func:`solve_on_sub_fleets` routes an engine's solves of problems with
  failed groups through :func:`solve_with_failed_groups`, so a whole run
  can be replayed on the oracle.
- :func:`full_fleet_rows` maps a sub-fleet's class ids onto the full
  fleet's, which differ when the survivors renumber the profiles.
"""

from __future__ import annotations

import operator
from dataclasses import replace
from types import SimpleNamespace
from typing import Iterable

import numpy as np

from repro.cluster.fleet import ClassRows, Fleet, FleetAction
from repro.solvers import InfeasibleError, SlotProblem, SlotSolution, SlotSolver

__all__ = ["full_fleet_rows", "solve_on_sub_fleets", "solve_with_failed_groups", "subset"]


def subset(fleet: Fleet, indices) -> Fleet:
    """The sub-fleet of groups ``indices`` (in that order), sliced from
    ``fleet``'s tables.

    Equal to ``Fleet([fleet.groups[i] for i in indices])`` -- same tables
    (the padded width trimmed to the subset's own widest group), same
    aggregates bit for bit, same pickled bytes -- without walking the
    groups' profiles.
    """
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("fleet needs at least one group")
    num_levels = fleet.num_levels.take(idx)
    K = int(num_levels.max())

    def rows(table: np.ndarray) -> np.ndarray:
        out = table.take(idx, axis=0)
        if out.ndim == 2 and K < out.shape[1]:
            out = np.ascontiguousarray(out[:, :K])
        out.setflags(write=False)
        return out

    ids = idx.tolist()
    sub = Fleet.__new__(Fleet)
    # Same assignment order as Fleet.__init__, so the pickled bytes match.
    sub.groups = (
        operator.itemgetter(*ids)(fleet.groups)
        if len(ids) > 1
        else (fleet.groups[ids[0]],)
    )
    sub.counts = rows(fleet.counts)
    sub.num_levels = num_levels
    sub.speed_table = rows(fleet.speed_table)
    sub.dynamic_power_table = rows(fleet.dynamic_power_table)
    sub.static_power = rows(fleet.static_power)
    sub.level_valid = rows(fleet.level_valid)
    sub.dyn_coeff = rows(fleet.dyn_coeff)
    sub._group_capacity = fleet._group_capacity.take(idx)
    if fleet.is_homogeneous:
        sub.is_homogeneous = True
        sub.nondominated_levels = fleet.nondominated_levels
    return sub


def solve_with_failed_groups(
    solver: SlotSolver,
    problem: SlotProblem,
    failed: Iterable[int],
) -> SlotSolution:
    """Solve ``problem`` with the given groups forced off, on the sub-fleet
    of healthy groups.

    Raises :class:`ValueError` for an index out of range and
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

    sub_fleet = subset(fleet, healthy)
    prev = problem.prev_on_counts
    sub_prev = None if prev is None else np.asarray(prev)[healthy]
    sub_problem = replace(problem, fleet=sub_fleet, prev_on_counts=sub_prev, failed=None)
    sub_problem.check_feasible()
    sub_solution = solver.solve(sub_problem)

    levels = np.full(fleet.num_groups, -1, dtype=np.int64)
    levels[healthy] = sub_solution.action.levels
    rows = sub_solution.action.rows
    if not fleet.is_homogeneous:
        rows = full_fleet_rows(fleet, sub_fleet, healthy, levels, rows)
    action = FleetAction(levels, rows)
    info = dict(sub_solution.info)
    info["failed_groups"] = failed_list
    return SlotSolution(action=action, evaluation=problem.evaluate(action), info=info)


def solve_on_sub_fleets(solver: SlotSolver, calls: list | None = None) -> SlotSolver:
    """Patch ``solver`` (in place, and returned) so that every problem with
    failed groups is solved by :func:`solve_with_failed_groups` on the
    survivors, with ``solver``'s own engine.  Each such solve appends the
    survivors' count to ``calls`` when given."""
    engine = SimpleNamespace(solve=solver.solve)

    def solve(problem: SlotProblem) -> SlotSolution:
        if problem.failed is None:
            return engine.solve(problem)
        if calls is not None:
            calls.append(problem.fleet.num_groups - len(problem.failed))
        full = replace(problem, failed=None)
        return solve_with_failed_groups(engine, full, problem.failed)

    solver.solve = solve
    return solver


def full_fleet_rows(
    fleet: Fleet,
    sub_fleet: Fleet,
    healthy: np.ndarray,
    levels: np.ndarray,
    rows: ClassRows,
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
