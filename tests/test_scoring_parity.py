"""Parity of the cache's class-space score with the per-group evaluation.

:meth:`EvaluationCache.flip` scores a candidate from the class
record :func:`distribute_load` returns for its histogram -- totals summed
over class rows and :meth:`SlotProblem.cost_terms`, no action and no
:class:`SlotEvaluation`.  The engines report the evaluation
:meth:`EvaluationCache.solution_for` returns, which must be
``problem.evaluate(action)`` of its action bit for bit.  Against the
per-group evaluation of that action (``tests.billing_oracle``) the score
must agree on every scoring path: the same verdict, and the same
objective up to summation order (1e-12 relative).

The paths: the billed, free and boundary regimes, a tiered tariff,
peak-power and max-delay caps, switching charged on and off, network
delay with a PUE override, zero arrival, a load at the on-set's capped
capacity (whose class rows' capped total rounds below it), and the
squared-load delay model.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import Fleet, ServerGroup, cubic_dvfs_profile, opteron_2380
from repro.cluster.power import TieredTariff
from repro.cluster.queueing import SquaredLoadDelay
from repro.cluster.switching import SwitchingCostModel
from repro.solvers import (
    EvaluationCache,
    InfeasibleError,
    SlotProblem,
    distribute_load,
    solve_fixed_levels,
)
from tests.billing_oracle import evaluate, group_loads

RTOL = 1e-12


def _fleet() -> Fleet:
    """Eight groups, two profiles, unequal counts."""
    return Fleet(
        [
            ServerGroup(opteron_2380(), 5 + 3 * g)
            if g % 2 == 0
            else ServerGroup(cubic_dvfs_profile(), 4 + 2 * g)
            for g in range(8)
        ]
    )


def _mixed(fleet: Fleet) -> np.ndarray:
    """Distinct speeds across groups, so billed and free loads differ."""
    top = (fleet.num_levels - 1).astype(np.int64)
    return np.maximum(top - (np.arange(top.size) % 3), 0).astype(np.int64)


def _facility(problem: SlotProblem, levels: np.ndarray) -> float:
    return solve_fixed_levels(problem, levels)[1].facility_power


def _case(name: str) -> tuple[SlotProblem, np.ndarray]:
    """A slot problem exercising one scoring path, and the walk's start."""
    fleet = _fleet()
    top = (fleet.num_levels - 1).astype(np.int64)
    gamma = 0.59 if name == "capped_capacity" else 0.95
    base = SlotProblem(
        fleet=fleet,
        arrival_rate=0.55 * fleet.capacity(gamma),
        onsite=0.0,
        price=40.0,
        q=5.0,
        V=20.0,
        gamma=gamma,
    )
    if name == "billed":
        return base, top
    if name == "free":
        return replace(base, onsite=1e9), top
    if name == "boundary":
        levels = _mixed(fleet)
        billed = _facility(base, levels)
        free = _facility(replace(base, onsite=1e9), levels)
        assert free > billed
        return replace(base, onsite=0.5 * (billed + free)), levels
    if name == "tiered_tariff":
        threshold = 0.3 * _facility(base, top)
        tariff = TieredTariff(thresholds=(threshold,), multipliers=(1.0, 2.5))
        return replace(base, tariff=tariff), top
    if name == "caps":
        power = _facility(base, top)
        delay = solve_fixed_levels(base, top)[1].delay_cost
        return replace(base, peak_power_cap=0.97 * power, max_delay_cost=1.3 * delay), top
    if name == "switching":
        prev = np.where(np.arange(fleet.num_groups) % 3 == 0, 0.0, fleet.counts)
        switching = SwitchingCostModel(energy_per_toggle=2e-4, charge_off=True)
        return replace(base, switching=switching, prev_on_counts=prev), top
    if name == "network_pue":
        return replace(base, network_delay=0.02, pue_override=1.7, onsite=0.004), top
    if name == "zero_arrival":
        return replace(base, arrival_rate=0.0), top
    if name == "capped_capacity":
        # All on at top speed, exactly at capacity: the class rows' capped
        # total rounds below the load, so the water-fill puts every class
        # at its cap with an unbounded dual.
        problem = replace(base, arrival_rate=fleet.capacity(gamma))
        assert math.isinf(distribute_load(problem, top).nu)
        return problem, top
    if name == "squared_delay":
        return replace(base, delay_model=SquaredLoadDelay(), beta=1.0), top
    raise ValueError(name)


CASES = (
    "billed",
    "free",
    "boundary",
    "tiered_tariff",
    "caps",
    "switching",
    "network_pue",
    "zero_arrival",
    "capped_capacity",
    "squared_delay",
)


def _check(problem: SlotProblem, cache: EvaluationCache, got: float) -> str:
    """Assert the parity of the cache's current vector, which scored
    ``got``; returns its verdict: ``"ok"``, ``"caps"`` (solved, breaks a
    cap) or ``"infeasible"``."""
    levels = np.array(cache.levels)
    if math.isinf(got) and cache.distribution_of(cache.key()) is None:
        # Screened out or rejected by the inner solve: a fresh per-group
        # solve must reject it too, or break a cap.
        try:
            action, _ = solve_fixed_levels(problem, levels)
        except InfeasibleError:
            return "infeasible"
        want = evaluate(problem, levels, group_loads(problem.fleet, action))
        assert problem.violates_caps(want)
        return "caps"
    action, evaluation = cache.solution_for(levels)
    assert evaluation == problem.evaluate(action)
    want = evaluate(problem, levels, group_loads(problem.fleet, action))
    if math.isinf(got):
        assert problem.violates_caps(want)
        return "caps"
    assert not problem.violates_caps(want)
    assert abs(got - want.objective) <= RTOL * abs(want.objective)
    return "ok"


@pytest.mark.parametrize("name", CASES)
def test_objective_of_matches_evaluated_solution(name):
    problem, start = _case(name)
    fleet = problem.fleet
    rng = np.random.default_rng(7)
    cache = EvaluationCache(problem)
    got = cache.reset(start)
    verdicts = []
    for step in range(120):
        if step:
            g = int(rng.integers(0, fleet.num_groups))
            old = cache.levels[g]
            got = cache.flip(g, int(rng.integers(-1, fleet.num_levels[g])))
        verdicts.append(_check(problem, cache, got))
        if step and verdicts[-1] != "ok":  # walk back, as GSD does
            cache.move(g, old)
    assert "ok" in verdicts
    if name == "caps":
        assert "caps" in verdicts


def test_regimes_and_edges_are_reached():
    """The cases above reach the paths they are named for."""
    regimes = {}
    for name in ("billed", "free", "boundary", "tiered_tariff", "capped_capacity"):
        problem, start = _case(name)
        cache = EvaluationCache(problem)
        cache.reset(start)
        regimes[name] = cache.distribution_of(cache.key())
    assert regimes["billed"].regime == "billed"
    assert regimes["free"].regime == "free"
    assert regimes["boundary"].regime == "boundary"
    assert regimes["tiered_tariff"].electricity_weight > 20.0 * 40.0 + 5.0
    assert math.isinf(regimes["capped_capacity"].nu)
    problem, start = _case("zero_arrival")
    cache = EvaluationCache(problem)
    assert cache.reset(start) > 0.0
    assert cache.distribution_of(cache.key()).classes is None
