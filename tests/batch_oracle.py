"""Whole-horizon candidate grid: the test oracle for the batch sweep.

:func:`repro.solvers.batch.batch_enumerate` finds each slot's optimum by
bisecting the servers-on count per speed level.  This module keeps the
historical formulation -- every ``(slot, servers-on, speed)`` cell of a
``(slots, G+1, K)`` tensor scored in 1,024-slot chunks and reduced with one
``argmin`` -- so tests can pin the shipped sweep to it bit for bit.  It is
not importable from the package and no engine calls it.

:func:`oracle_batch_enumerate` is the historical ``batch_enumerate`` body
verbatim, with one change it shares with the shipped sweep: a cell whose
per-server load lies within ``check_feasible``'s ``(1 + 1e-12)`` window
above ``gamma * s`` is feasible (its load clamped to the cap), so a load
at the fleet's capped capacity is served rather than rejected.
"""

from __future__ import annotations

import numpy as np

from repro.solvers.batch import BatchResult, supports_batch
from repro.solvers.problem import InfeasibleError

__all__ = ["oracle_batch_enumerate"]

_CHUNK = 1024


def oracle_batch_enumerate(
    model,
    arrival: np.ndarray,
    onsite: np.ndarray,
    price: np.ndarray,
    *,
    q: np.ndarray | float = 0.0,
    V: float = 1.0,
    pue: np.ndarray | float | None = None,
) -> BatchResult:
    """Solve every slot's P3 (without switching terms) in vectorized chunks.

    Parameters
    ----------
    model:
        A :class:`~repro.core.config.DataCenterModel` with a homogeneous
        fleet and linear tariff (checked via :func:`supports_batch`).
    arrival, onsite, price:
        Per-slot inputs (req/s, MW, $/MWh).
    q:
        Brown-energy penalty: scalar, or one value per slot.
    V:
        Cost weight (Eq. (16)).
    pue:
        Optional PUE override: scalar or per-slot array (defaults to the
        model's constant).
    """
    if not supports_batch(model):
        raise ValueError("batch sweep needs a homogeneous fleet and linear tariff")
    arrival = np.asarray(arrival, dtype=np.float64)
    onsite = np.asarray(onsite, dtype=np.float64)
    price = np.asarray(price, dtype=np.float64)
    n = arrival.size
    if onsite.size != n or price.size != n:
        raise ValueError("per-slot inputs must share a length")
    q_arr = np.broadcast_to(np.asarray(q, dtype=np.float64), (n,))
    pue_arr = np.broadcast_to(
        np.asarray(
            model.power_model.pue if pue is None else pue, dtype=np.float64
        ),
        (n,),
    )

    fleet = model.fleet
    profile = fleet.groups[0].profile
    speeds = profile.speeds  # (K,)
    coeff = profile.energy_per_request  # (K,)
    prefix = np.concatenate(([0.0], np.cumsum(fleet.counts)))  # (G+1,)
    kappa = model.beta * model.delay_unit_cost
    gamma = model.gamma
    # MW -> MWh per slot; delay cost likewise accrues over the slot length.
    slot_h = getattr(model, "slot_hours", 1.0)

    cap_per_server = gamma * speeds  # (K,)
    max_capacity = prefix[-1] * cap_per_server[-1]
    if np.any(arrival > max_capacity * (1.0 + 1e-12)):
        raise InfeasibleError("some slot's workload exceeds capped capacity")

    out = {
        name: np.empty(n)
        for name in (
            "servers_on",
            "it_power",
            "brown_energy",
            "electricity_cost",
            "delay_cost",
            "cost",
            "objective",
        )
    }
    out_level = np.empty(n, dtype=np.int64)

    M = prefix[None, :, None]  # (1, G+1, 1)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        lam = arrival[lo:hi, None, None]  # (c, 1, 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            load = np.where(M > 0, lam / M, np.inf)  # (c, G+1, 1)
        feasible = load <= cap_per_server[None, None, :] * (1.0 + 1e-12)  # (c, G+1, K)
        zero_lam = arrival[lo:hi] <= 0.0
        if zero_lam.any():
            feasible[zero_lam, 0, :] = True

        with np.errstate(invalid="ignore"):
            load_k = np.where(feasible, np.minimum(load, cap_per_server), 0.0)
            it_power = M * (profile.static_power + coeff[None, None, :] * load_k)
            it_power = np.where(feasible, it_power, np.inf)
            brown = (
                np.maximum(
                    pue_arr[lo:hi, None, None] * it_power - onsite[lo:hi, None, None],
                    0.0,
                )
                * slot_h
            )
            e_cost = price[lo:hi, None, None] * brown
            delay = M * model.delay_model.cost(load_k, speeds[None, None, :]) * slot_h
            delay = np.where(M > 0, delay, 0.0)
            g = e_cost + kappa * delay
            objective = V * g + q_arr[lo:hi, None, None] * brown
            objective = np.where(feasible, objective, np.inf)

        flat = objective.reshape(hi - lo, -1)
        best = np.argmin(flat, axis=1)
        j, k = np.unravel_index(best, objective.shape[1:])
        rows = np.arange(hi - lo)
        out["servers_on"][lo:hi] = prefix[j]
        out_level[lo:hi] = np.where(j > 0, k, -1)
        out["it_power"][lo:hi] = np.where(j > 0, it_power[rows, j, k], 0.0)
        out["brown_energy"][lo:hi] = np.where(
            j > 0, brown[rows, j, k], np.maximum(-onsite[lo:hi], 0.0)
        )
        out["electricity_cost"][lo:hi] = np.where(j > 0, e_cost[rows, j, k], 0.0)
        out["delay_cost"][lo:hi] = kappa * np.where(j > 0, delay[rows, j, k], 0.0)
        out["cost"][lo:hi] = np.where(j > 0, g[rows, j, k], 0.0)
        out["objective"][lo:hi] = np.where(j > 0, flat[rows, best], 0.0)

    return BatchResult(speed_level=out_level, **out)
