"""Group-level cold water-fill: the test oracle for the shipped solver.

:func:`repro.solvers.load_distribution.distribute_load` solves Eq. (18)
over (profile, level) classes with warm starts.  This module keeps the
historical formulation -- one row per *group*, vectorized over groups,
cold bisection to floating-point bracket collapse -- so tests can pin the
shipped solver against an independent computation of the same optimum.
It is not importable from the package and no engine calls it.

The batched ``(K, G)`` engine (:mod:`repro.solvers.batched`) replicates
this arithmetic per row, so its cold rows match :func:`oracle_distribute`
bit for bit.  The one departure from the historical code is shared with
the shipped solver: at ``Wd == 0`` and zero electricity weight, where
every split is optimal, the greedy fill takes the least power-hungry rows
first instead of going by index.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.power import LinearTariff
from repro.solvers.load_distribution import (
    _EARLY_EXIT,
    _MU_ITERS,
    _NU_ITERS,
    LoadDistribution,
)
from repro.solvers.problem import InfeasibleError, SlotProblem

__all__ = ["oracle_distribute"]


def _fill_when_delay_free(lam, weights, caps, counts):
    order = np.argsort(weights, kind="stable")
    loads = np.zeros_like(caps)
    remaining = lam
    for g in order:
        if counts[g] <= 0.0:
            continue
        take = min(remaining, caps[g] * counts[g])
        loads[g] = take / counts[g]
        remaining -= take
        if remaining <= 0:
            break
    if remaining > 1e-9 * max(lam, 1.0):
        raise InfeasibleError("load exceeds capped capacity of the on-set")
    return loads


def _close_residual(lam, loads, caps, n):
    residual = lam - float(np.sum(n * loads))
    for _ in range(loads.size + 1):
        interior = (loads > 0.0) & (loads < caps) if residual < 0 else (loads < caps)
        weight = float(np.sum(n[interior]))
        if weight <= 0.0:
            break
        proposed = loads[interior] + residual / weight
        clipped = np.clip(proposed, 0.0, caps[interior])
        loads = loads.copy()
        loads[interior] = clipped
        if not np.any(clipped != proposed):
            break
        residual = lam - float(np.sum(n * loads))
    return loads


def _waterfill(problem, lam, we, x, c, n):
    dm = problem.delay_model
    wd = problem.V * problem.delay_weight
    caps = problem.gamma * x
    elec_marginal = we * problem.pue * c

    if wd <= 0.0:
        weights = elec_marginal if we * problem.pue > 0.0 else c
        return (
            _fill_when_delay_free(lam, weights, caps, n),
            float(elec_marginal.min(initial=0.0)),
            0,
        )

    def loads_at(nu):
        m = (nu - elec_marginal) / wd
        lam_g = np.where(m > 0, dm.load_at_marginal(np.maximum(m, 1e-300), x), 0.0)
        return np.clip(lam_g, 0.0, caps)

    def served(nu):
        return float(np.sum(n * loads_at(nu)))

    lo = float(np.min(elec_marginal + wd * dm.marginal(np.zeros_like(x), x)))
    hi = max(lo, float(np.max(elec_marginal + wd * dm.marginal(caps, x)))) + 1.0
    while served(hi) < lam:
        hi = 2.0 * hi + 1.0
        if hi > 1e300:
            raise InfeasibleError("load exceeds capped capacity of the on-set")
    iters = 0
    for _ in range(_NU_ITERS):
        mid = 0.5 * (lo + hi)
        collapsed = mid == lo or mid == hi
        if served(mid) < lam:
            lo = mid
        else:
            hi = mid
        iters += 1
        if collapsed and _EARLY_EXIT:
            break
    return _close_residual(lam, loads_at(hi), caps, n), hi, iters


def oracle_distribute(problem: SlotProblem, levels: np.ndarray) -> LoadDistribution:
    """Cold group-level solve of Eq. (18) for ``levels`` (same regimes,
    same :class:`InfeasibleError` conditions as the shipped solver)."""
    fleet = problem.fleet
    levels = np.asarray(levels, dtype=np.int64)
    lam = problem.arrival_rate
    on = np.nonzero(levels >= 0)[0]
    full = np.zeros(fleet.num_groups)
    if lam <= 0.0:
        return LoadDistribution(full, 0.0, "free", 0.0)
    if on.size == 0:
        raise InfeasibleError("positive workload but every group is off")

    x = fleet.speed_table[on, levels[on]]
    c = fleet.dyn_coeff[on, levels[on]]
    n = fleet.counts[on]
    if lam > problem.gamma * float(np.sum(n * x)) * (1.0 + 1e-12):
        raise InfeasibleError("load exceeds capped capacity of the on-set")

    pue = problem.pue
    static_it = float(np.sum(n * fleet.static_power[on]))
    total_iters = 0

    def facility(loads):
        return pue * (static_it + float(np.sum(n * c * loads)))

    def weight_full(brown_guess):
        return problem.V * problem.tariff.marginal(brown_guess, problem.price) + problem.q

    we = weight_full(0.0)
    for _ in range(1 if isinstance(problem.tariff, LinearTariff) else 3):
        loads_a, nu_a, it_a = _waterfill(problem, lam, we, x, c, n)
        total_iters += it_a
        brown = max(facility(loads_a) - problem.onsite, 0.0) * problem.slot_hours
        new_we = weight_full(brown)
        if abs(new_we - we) <= 1e-12 * max(we, 1.0):
            break
        we = new_we
    if facility(loads_a) >= problem.onsite * (1.0 - 1e-12):
        full[on] = loads_a
        return LoadDistribution(full, nu_a, "billed", we, False, total_iters)

    loads_b, nu_b, it_b = _waterfill(problem, lam, 0.0, x, c, n)
    total_iters += it_b
    if facility(loads_b) <= problem.onsite * (1.0 + 1e-12):
        full[on] = loads_b
        return LoadDistribution(full, nu_b, "free", 0.0, False, total_iters)

    lo_mu, hi_mu = 0.0, we
    loads_m, nu_m = loads_b, nu_b
    mu = 0.5 * (lo_mu + hi_mu)
    for _ in range(_MU_ITERS):
        mu = 0.5 * (lo_mu + hi_mu)
        collapsed = mu == lo_mu or mu == hi_mu
        loads_m, nu_m, it_m = _waterfill(problem, lam, mu, x, c, n)
        total_iters += it_m
        if facility(loads_m) > problem.onsite:
            lo_mu = mu
        else:
            hi_mu = mu
        if collapsed and _EARLY_EXIT:
            break
    full[on] = loads_m
    return LoadDistribution(full, nu_m, "boundary", mu, False, total_iters)
