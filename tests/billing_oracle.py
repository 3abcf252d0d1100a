"""Per-group slot billing: the oracle the class-space slot path is pinned to.

The slot engine (:class:`repro.sim.engine.SlotRunner`) realizes each
slot's decision over its (profile, level) class rows and bills the rows
once.  This module keeps the per-group form that the engine ran before:
:func:`realize_action` rescales a :class:`~repro.cluster.FleetAction`
group by group, and :func:`bill` realizes it and bills the realized action
with the per-group :meth:`~repro.solvers.SlotProblem.evaluate`.  The two
agree to rounding: ``tests/test_class_billing.py`` holds them within 1e-12
relative on every cost, with equal levels and equal dropped load.  No
engine or command calls it.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import FleetAction
from repro.core.config import DataCenterModel
from repro.solvers import SlotEvaluation

__all__ = ["realize_action", "bill"]


def realize_action(
    model: DataCenterModel,
    action: FleetAction,
    actual_arrival: float,
    planned_arrival: float,
    *,
    failed_groups: "frozenset[int] | set[int] | None" = None,
) -> tuple[FleetAction, float]:
    """Map a planned action onto the realized arrival rate.

    Returns ``(realized_action, dropped_load)``.  Loads scale by
    ``actual / planned`` on the committed speeds; scaling *up* is capped at
    ``gamma * speed`` per server, and load that cannot be placed is dropped
    (recorded, so experiments can verify it stays zero).

    ``failed_groups`` enforces physical reality under fault injection:
    servers in failed groups cannot run whatever the plan said, so their
    levels are forced off and their load joins the redistribution (placed
    on healthy headroom pro rata, dropped past capacity).  ``None`` keeps
    the historical path untouched.
    """
    fleet = model.fleet
    if failed_groups:
        mask = np.zeros(fleet.num_groups, dtype=bool)
        mask[list(failed_groups)] = True
        action = FleetAction(
            levels=np.where(mask, -1, action.levels).astype(np.int64),
            per_server_load=np.where(mask, 0.0, action.per_server_load),
        )
    levels = action.levels
    if actual_arrival <= 0.0:
        return FleetAction(levels, np.zeros(fleet.num_groups)), 0.0

    # Per-server capacity gamma * speed on the on groups, zero when off.
    idx = (levels >= 0).nonzero()[0]
    caps = np.zeros(fleet.num_groups)
    caps[idx] = model.gamma * fleet.speed_table[idx, levels[idx]]
    if planned_arrival > 0.0 and action.served_load(fleet) > 0.0:
        scaled = action.per_server_load * (actual_arrival / planned_arrival)
    else:
        # Nothing was planned; spread over whatever is on, pro rata to capacity.
        total_cap = float((fleet.counts * caps).sum())
        if total_cap <= 0.0:
            return FleetAction(levels, np.zeros(fleet.num_groups)), actual_arrival
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
    return FleetAction(action.levels, clipped), dropped


def bill(
    model: DataCenterModel,
    action: FleetAction,
    actual_arrival: float,
    observation,
    prev_on_counts: np.ndarray | None,
    failed_groups=None,
) -> tuple[FleetAction, float, SlotEvaluation]:
    """One slot's realized bill, group by group: ``(realized action,
    dropped load, evaluation)`` of ``action`` planned on ``observation``
    and served at ``actual_arrival``."""
    realized, dropped = realize_action(
        model,
        action,
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
    return realized, dropped, problem.evaluate(realized)
