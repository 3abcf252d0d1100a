"""Broadcast-grid enumeration kernel: the test oracle for the exact engine.

:class:`repro.solvers.enumeration.HomogeneousEnumerationSolver` bisects
the servers-on count of the ``(G+1) x K`` (servers-on, shared-speed) grid
instead of scoring it, and :meth:`repro.solvers.problem.SlotProblem.evaluate`
bills an action over its class rows.  This module keeps the historical
formulation -- every cell of the grid scored, prefix sums rebuilt per
solve, the load column broadcast and copied to the full grid, ``np.sum``
reductions, one on-set index per aggregate -- so tests can pin the
shipped engine to it.  It is not importable from the package and no
engine calls it.

:func:`oracle_solve` is the historical ``_solve`` body verbatim, less its
span bookkeeping, and it ends with :func:`oracle_evaluate` (the historical
``SlotProblem.evaluate`` over the historical ``Fleet.action_power`` and
``Fleet.action_delay_sum``) instead of the shipped ``evaluate``.  Like
the shipped engine, it admits a cell whose per-server load lies within
``check_feasible``'s ``(1 + 1e-12)`` window above ``gamma * s`` and clamps
the chosen load to the cap.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.power import LinearTariff, Tariff
from repro.solvers.base import SlotSolution
from repro.solvers.problem import InfeasibleError, SlotEvaluation, SlotProblem
from tests.billing_oracle import action_from_loads

__all__ = ["oracle_solve", "oracle_evaluate"]


def _tariff_cost_batch(
    tariff: Tariff, brown: np.ndarray, price: float
) -> np.ndarray:
    brown = np.asarray(brown, dtype=np.float64)
    if isinstance(tariff, LinearTariff):
        with np.errstate(invalid="ignore"):
            return price * brown
    out = np.full(brown.shape, np.inf)
    finite = np.isfinite(brown)
    flat = brown[finite]
    out[finite] = [tariff.cost(float(b), price) for b in flat]
    return out


def _action_power(fleet, levels, per_server_load) -> float:
    levels = np.asarray(levels)
    load = np.asarray(per_server_load, dtype=np.float64)
    on = levels >= 0
    idx = np.nonzero(on)[0]
    if idx.size == 0:
        return 0.0
    coeff = fleet.dyn_coeff[idx, levels[idx]]
    per_server = fleet.static_power[idx] + coeff * load[idx]
    return float(np.sum(fleet.counts[idx] * per_server))


def _action_delay_sum(fleet, levels, per_server_load, delay_model=None) -> float:
    levels = np.asarray(levels)
    load = np.asarray(per_server_load, dtype=np.float64)
    on = levels >= 0
    idx = np.nonzero(on)[0]
    if idx.size == 0:
        return 0.0 if np.all(load[~on] <= 0) else np.inf
    x = fleet.speed_table[idx, levels[idx]]
    lam = load[idx]
    if delay_model is None:
        if np.any(lam >= x):
            return np.inf
        return float(np.sum(fleet.counts[idx] * lam / (x - lam)))
    return float(np.sum(fleet.counts[idx] * delay_model.cost(lam, x)))


def oracle_evaluate(problem: SlotProblem, levels, per_server_load) -> SlotEvaluation:
    """The historical ``SlotProblem.evaluate`` of per-group levels and
    loads."""
    fleet = problem.fleet
    delay_sum = _action_delay_sum(
        fleet, levels, per_server_load, delay_model=problem.delay_model
    )
    served = (
        float(np.sum(fleet.counts * per_server_load))
        if problem.network_delay > 0.0
        else 0.0
    )
    return problem.evaluate_totals(
        _action_power(fleet, levels, per_server_load),
        delay_sum,
        served,
        problem.switching_energy(levels),
    )


def oracle_solve(
    problem: SlotProblem, *, switching_aware: bool = True
) -> SlotSolution:
    """The historical ``HomogeneousEnumerationSolver._solve``."""
    fleet = problem.fleet
    if not fleet.is_homogeneous:
        raise ValueError(
            "HomogeneousEnumerationSolver requires a single-profile fleet; "
            "use CoordinateDescentSolver or GSDSolver instead"
        )
    problem.check_feasible()

    profile = fleet.groups[0].profile
    speeds = profile.speeds  # (K,)
    dyn_coeff = profile.energy_per_request  # (K,) MW per req/s
    counts = fleet.counts  # (G,)
    G, K = fleet.num_groups, speeds.size
    lam = problem.arrival_rate
    pue = problem.pue

    # Candidate on-set sizes: prefix sums, j groups on (j = 0..G).
    prefix = np.concatenate(([0.0], np.cumsum(counts)))  # (G+1,)
    M = prefix[:, None]  # (G+1, 1) servers on
    with np.errstate(divide="ignore", invalid="ignore"):
        load = np.where(M > 0, lam / M, np.inf)  # per-server load
    load = np.broadcast_to(load, (G + 1, K)).copy()

    feasible = load <= problem.gamma * (1.0 + 1e-12) * speeds[None, :]
    if lam <= 0.0:
        feasible[0, :] = True
        load[0, :] = 0.0
    if not feasible.any():
        raise InfeasibleError("no (servers-on, speed) candidate can serve the load")

    with np.errstate(invalid="ignore"):
        it_power = M * (profile.static_power + dyn_coeff[None, :] * load)
    it_power = np.where(feasible, it_power, np.inf)

    # Switching energy per candidate (depends only on the prefix size).
    sw_energy = np.zeros(G + 1)
    if (
        switching_aware
        and problem.switching is not None
        and problem.switching.enabled
        and problem.prev_on_counts is not None
    ):
        prev = problem.prev_on_counts
        turned_on = np.concatenate(
            ([0.0], np.cumsum(np.maximum(counts - prev, 0.0)))
        )
        sw_energy = problem.switching.energy_per_toggle * turned_on
        if problem.switching.charge_off:
            off_tail = np.concatenate(([0.0], np.cumsum(prev[::-1])))[::-1]
            sw_energy = sw_energy + problem.switching.energy_per_toggle * off_tail

    slot_h = problem.slot_hours
    facility = pue * it_power + sw_energy[:, None] / slot_h
    brown = np.maximum(facility - problem.onsite, 0.0) * slot_h
    e_cost = _tariff_cost_batch(problem.tariff, brown, problem.price)
    with np.errstate(invalid="ignore"):
        delay_sum = M * problem.delay_model.cost(load, speeds[None, :])
        delay_sum = np.where(M > 0, delay_sum, 0.0)
        if problem.network_delay > 0.0:
            delay_sum = delay_sum + problem.network_delay * lam
        delay_cost = problem.delay_weight * delay_sum * slot_h
        g_cost = e_cost + delay_cost
        if problem.peak_power_cap is not None:
            feasible &= facility <= problem.peak_power_cap * (1 + 1e-12)
        if problem.max_delay_cost is not None:
            feasible &= delay_cost <= problem.max_delay_cost * (1 + 1e-12)
        if not feasible.any():
            raise InfeasibleError(
                "no candidate satisfies the peak-power/max-delay caps"
            )
        objective = np.where(
            feasible, problem.V * g_cost + problem.q * brown, np.inf
        )

    j, k = np.unravel_index(int(np.argmin(objective)), objective.shape)
    levels = np.where(np.arange(G) < j, k, -1).astype(np.int64)
    per_server = np.where(
        np.arange(G) < j, min(load[j, k], problem.gamma * speeds[k]), 0.0
    )
    action = action_from_loads(fleet, levels, per_server)
    evaluation = oracle_evaluate(problem, levels, per_server)
    return SlotSolution(
        action=action,
        evaluation=evaluation,
        info={
            "servers_on": float(M[j, 0]),
            "speed_level": int(k) if j > 0 else -1,
            "candidates": int(feasible.sum()),
        },
    )
