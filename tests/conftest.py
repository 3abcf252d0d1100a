"""Shared fixtures for the test suite.

Scenario construction involves calibration sweeps, so the expensive
fixtures are session-scoped; tests must treat them as immutable (scenarios
and traces are frozen dataclasses, so accidental mutation raises).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Fleet, ServerGroup, cubic_dvfs_profile, opteron_2380
from repro.core import DataCenterModel
from repro.scenarios import small_scenario
from repro.solvers import InfeasibleError, SlotProblem, solve_fixed_levels


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite the golden-run regression files from the current code "
        "(see docs/TESTING.md) instead of comparing against them",
    )


@pytest.fixture
def update_goldens(request) -> bool:
    """True when the run should refresh committed goldens."""
    return bool(request.config.getoption("--update-goldens"))


@pytest.fixture
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_fleet() -> Fleet:
    """3 homogeneous groups x 10 Opterons -- brute-forceable."""
    return Fleet([ServerGroup(opteron_2380(), 10) for _ in range(3)])


@pytest.fixture(scope="session")
def hetero_fleet() -> Fleet:
    """Two different profiles -- exercises heterogeneous paths."""
    return Fleet(
        [
            ServerGroup(opteron_2380(), 8),
            ServerGroup(cubic_dvfs_profile(), 12),
        ]
    )


@pytest.fixture(scope="session")
def tiny_model(tiny_fleet) -> DataCenterModel:
    return DataCenterModel(fleet=tiny_fleet, beta=10.0)


@pytest.fixture(scope="session")
def hetero_model(hetero_fleet) -> DataCenterModel:
    return DataCenterModel(fleet=hetero_fleet, beta=10.0)


@pytest.fixture(scope="session")
def week_scenario():
    """One-week small scenario (fast; ~170 slots)."""
    return small_scenario(horizon=24 * 7)


@pytest.fixture(scope="session")
def fortnight_scenario():
    """Two-week small scenario for integration tests."""
    return small_scenario(horizon=24 * 14)


def make_problem(model, *, lam_frac=0.5, onsite=0.0, price=40.0, q=0.0, V=1.0, **kw):
    """Helper to build a slot problem at a fraction of capped capacity."""
    lam = lam_frac * model.fleet.capacity(model.gamma)
    return model.slot_problem(
        arrival_rate=lam, onsite=onsite, price=price, q=q, V=V, **kw
    )


def direct_problem(model, **slot) -> SlotProblem:
    """``model.slot_problem(**slot)`` built through the dataclass's own
    ``__init__`` instead of the model's fast build."""
    return SlotProblem(
        fleet=model.fleet,
        beta=model.beta,
        gamma=model.gamma,
        delay_model=model.delay_model,
        power_model=model.power_model,
        tariff=model.tariff,
        delay_unit_cost=model.delay_unit_cost,
        switching=model.switching,
        peak_power_cap=model.peak_power_cap,
        max_delay_cost=model.max_delay_cost,
        slot_hours=model.slot_hours,
        **slot,
    )


#: Both ways to build a slot problem from a model and per-slot inputs,
#: ``build(model, **slot)``; validation tests run every case through both,
#: so the fast build cannot skip a check.
PROBLEM_BUILDERS = (direct_problem, DataCenterModel.slot_problem)


def validate_action(fleet, action, total_load, gamma, *, atol=1e-6) -> None:
    """Raise ``ValueError`` unless ``action`` satisfies constraints (7)-(9)
    in class space: valid levels, rows that are the on classes of those
    levels with their server counts, row loads in ``[0, gamma * x]``, and
    loads serving ``total_load``."""
    levels = action.levels
    if levels.shape != (fleet.num_groups,):
        raise ValueError("levels must have one entry per group")
    if np.any(levels >= fleet.num_levels) or np.any(levels < -1):
        raise ValueError("speed level out of range for some group")
    counts = fleet.class_counts(levels)[1]
    classes = np.flatnonzero(counts)
    rows = action.rows
    if rows.classes != tuple(classes.tolist()) or rows.counts != tuple(counts[classes].tolist()):
        raise ValueError("rows are not the on classes of the levels: an off group carries load")
    loads = np.asarray(rows.loads, dtype=np.float64)
    if np.any(loads < -atol):
        raise ValueError("negative per-server load")
    speeds = fleet.class_speed[classes]
    if np.any(loads > gamma * speeds + atol * np.maximum(speeds, 1.0)):
        raise ValueError("per-server load exceeds gamma * speed")
    served = rows.served
    if abs(served - total_load) > 1e-6 * max(abs(total_load), 1.0) + atol:
        raise ValueError(f"load distribution serves {served:.6g}, expected {total_load:.6g}")


def cold_objective(problem, levels):
    """P3 objective of ``levels`` scored without the fast path: one cold
    inner solve and its evaluation; ``inf`` when the on-set cannot carry
    the load or the action violates the operational caps."""
    try:
        _, evaluation = solve_fixed_levels(problem, levels)
    except InfeasibleError:
        return np.inf
    if problem.violates_caps(evaluation):
        return np.inf
    return evaluation.objective


def assert_local_minimum(problem, solution):
    """``solution`` scores exactly as the cold path does, and no single-group
    level change improves it under :func:`cold_objective` by more than
    1e-12 relative."""
    levels = solution.action.levels
    best = cold_objective(problem, levels)
    assert solution.objective == best
    fleet = problem.fleet
    for g in range(fleet.num_groups):
        for cand in range(-1, int(fleet.num_levels[g])):
            if cand == levels[g]:
                continue
            neighbor = levels.copy()
            neighbor[g] = cand
            assert cold_objective(problem, neighbor) >= best - 1e-12 * max(abs(best), 1.0)
