"""Per-group slot billing: the oracle the class-space slot path is pinned to.

The package carries a slot's load split only as (profile, level) class
rows (:class:`~repro.cluster.fleet.ClassRows`): the engines build them,
:func:`repro.sim.engine.realize_action` rescales them and
:meth:`~repro.solvers.SlotProblem.evaluate` bills them once.  This module
keeps the per-group form the package ran before: loads as one array entry
per group, a realization group by group (:func:`realize`) and the sums
over groups (:func:`totals`, :func:`evaluate`).  :func:`bill` chains the
three.  The two agree to rounding: ``tests/test_class_billing.py`` holds
them within 1e-12 relative on every cost, with equal levels and equal
dropped load.  Tests that need a per-group view of an action or an inner
solve (:func:`group_loads`, :func:`solve_loads`), or build an action from
per-group loads or a solve (:func:`action_from_loads`,
:func:`solve_action`), take it from here too.  No engine or command calls
it.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import ClassRows, Fleet, FleetAction
from repro.core.config import DataCenterModel
from repro.solvers import ClassSolve, SlotEvaluation, SlotProblem

__all__ = [
    "action_from_loads",
    "bill",
    "evaluate",
    "group_loads",
    "realize",
    "solve_action",
    "solve_loads",
    "totals",
]


def _expand(fleet: Fleet, levels, classes, loads) -> np.ndarray:
    flat, offsets = fleet.class_id_table
    table = np.zeros(fleet.num_classes)
    table[list(classes)] = loads
    return table[flat[offsets + np.asarray(levels, dtype=np.int64)]]


def group_loads(fleet: Fleet, action: FleetAction) -> np.ndarray:
    """The per-server load of every group under ``action`` (zero when
    off): each on group carries its class row's load."""
    return _expand(fleet, action.levels, action.rows.classes, action.rows.loads)


def solve_loads(fleet: Fleet, levels, solve: ClassSolve) -> np.ndarray:
    """The per-server load of every group under the inner solve ``solve``
    of ``levels`` (zeros when there is no workload)."""
    if solve.classes is None:
        return np.zeros(fleet.num_groups)
    return _expand(fleet, levels, solve.classes, solve.class_load)


def solve_action(fleet: Fleet, levels, solve: ClassSolve) -> FleetAction:
    """The :class:`FleetAction` of the inner solve ``solve`` of ``levels``."""
    levels = np.asarray(levels, dtype=np.int64)
    return FleetAction(levels, solve.rows(fleet.class_counts(levels)[1].tolist()))


def action_from_loads(fleet: Fleet, levels, loads) -> FleetAction:
    """The :class:`FleetAction` of per-group ``levels`` and ``loads`` (off
    groups' loads ignored).  Raises ``ValueError`` when two on groups of
    one class carry different loads: a class row holds one load."""
    levels = np.asarray(levels, dtype=np.int64)
    loads = np.asarray(loads, dtype=np.float64)
    ids, counts = fleet.class_counts(levels)
    table = np.zeros(counts.size)
    table[ids] = loads
    on = ids > 0
    if not np.array_equal(table[ids[on]], loads[on]):
        raise ValueError("per-server loads differ within a (profile, level) class")
    return FleetAction(levels, ClassRows.of(fleet, levels, table))


def totals(fleet: Fleet, levels, loads, delay_model=None) -> tuple[float, float]:
    """``(IT power, delay sum)`` summed over the groups: Eq. (2) and
    Eq. (4) (the M/G/1/PS form unless ``delay_model`` is given).  The delay
    sum is infinite when a server is at or past saturation, or an off
    group carries load."""
    levels = np.asarray(levels)
    loads = np.asarray(loads, dtype=np.float64)
    idx = (levels >= 0).nonzero()[0]
    if idx.size == 0:
        return 0.0, (0.0 if (loads <= 0).all() else np.inf)
    on_levels = levels[idx]
    lam = loads[idx]
    counts = fleet.counts[idx]
    per_server = fleet.static_power[idx] + fleet.dyn_coeff[idx, on_levels] * lam
    power = float((counts * per_server).sum())
    x = fleet.speed_table[idx, on_levels]
    if delay_model is not None:
        return power, float((counts * delay_model.cost(lam, x)).sum())
    if (lam >= x).any():
        return power, np.inf
    return power, float((counts * lam / (x - lam)).sum())


def evaluate(problem: SlotProblem, levels, loads) -> SlotEvaluation:
    """:meth:`SlotProblem.evaluate` of per-group ``levels`` and ``loads``,
    summed over the groups."""
    fleet = problem.fleet
    it_power, delay_sum = totals(fleet, levels, loads, problem.delay_model)
    served = float((fleet.counts * np.asarray(loads)).sum())
    return problem.evaluate_totals(
        it_power, delay_sum, served, problem.switching_energy(levels)
    )


def realize(
    model: DataCenterModel,
    levels: np.ndarray,
    loads: np.ndarray,
    actual_arrival: float,
    planned_arrival: float,
    *,
    failed_groups: "frozenset[int] | set[int] | None" = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Map planned per-group ``levels`` and ``loads`` onto the realized
    arrival rate.

    Returns ``(levels, loads, dropped_load)``.  Loads scale by ``actual /
    planned`` on the committed speeds; scaling *up* is capped at ``gamma *
    speed`` per server, and load that cannot be placed is dropped
    (recorded, so experiments can verify it stays zero).

    ``failed_groups`` enforces physical reality under fault injection:
    servers in failed groups cannot run whatever the plan said, so their
    levels are forced off and their load joins the redistribution (placed
    on healthy headroom pro rata, dropped past capacity).
    """
    fleet = model.fleet
    if failed_groups:
        mask = np.zeros(fleet.num_groups, dtype=bool)
        mask[list(failed_groups)] = True
        levels = np.where(mask, -1, levels).astype(np.int64)
        loads = np.where(mask, 0.0, loads)
    if actual_arrival <= 0.0:
        return levels, np.zeros(fleet.num_groups), 0.0

    # Per-server capacity gamma * speed on the on groups, zero when off.
    idx = (levels >= 0).nonzero()[0]
    caps = np.zeros(fleet.num_groups)
    caps[idx] = model.gamma * fleet.speed_table[idx, levels[idx]]
    if planned_arrival > 0.0 and float((fleet.counts * loads).sum()) > 0.0:
        scaled = loads * (actual_arrival / planned_arrival)
    else:
        # Nothing was planned; spread over whatever is on, pro rata to capacity.
        total_cap = float((fleet.counts * caps).sum())
        if total_cap <= 0.0:
            return levels, np.zeros(fleet.num_groups), actual_arrival
        scaled = caps * min(actual_arrival / total_cap, 1.0)

    clipped = np.minimum(scaled, caps)
    served = float((fleet.counts * clipped).sum())
    shortfall = actual_arrival - served
    if shortfall > 1e-9 * max(actual_arrival, 1.0):
        # Push the excess onto servers with headroom, pro rata.
        headroom = fleet.counts * (caps - clipped)
        total_head = float(headroom.sum())
        take = min(shortfall, total_head)
        if total_head > 0.0:
            clipped = clipped + np.where(
                fleet.counts > 0, take * (headroom / max(total_head, 1e-300)) / np.maximum(fleet.counts, 1.0), 0.0
            )
            served += take
            shortfall -= take
    # Shortfalls below solver tolerance are floating-point residue of the
    # load-balance bisection, not real drops.
    dropped = shortfall if shortfall > 1e-9 * max(actual_arrival, 1.0) else 0.0
    return levels, clipped, dropped


def bill(
    model: DataCenterModel,
    action: FleetAction,
    actual_arrival: float,
    observation,
    prev_on_counts: np.ndarray | None,
    failed_groups=None,
) -> tuple[np.ndarray, np.ndarray, float, SlotEvaluation]:
    """One slot's realized bill, group by group: ``(realized levels,
    realized per-group loads, dropped load, evaluation)`` of ``action``
    planned on ``observation`` and served at ``actual_arrival``."""
    levels, loads, dropped = realize(
        model,
        action.levels,
        group_loads(model.fleet, action),
        actual_arrival,
        observation.arrival_rate,
        failed_groups=failed_groups,
    )
    problem = model.slot_problem(
        arrival_rate=actual_arrival,
        onsite=observation.onsite,
        price=observation.price,
        prev_on_counts=prev_on_counts,
        network_delay=observation.network_delay,
        pue_override=observation.pue,
    )
    return levels, loads, dropped, evaluate(problem, levels, loads)
