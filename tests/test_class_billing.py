"""The slot bill in class space against the per-group oracle.

:class:`~repro.sim.engine.SlotRunner` realizes every slot's decision over
its (profile, level) class rows and bills the rows once
(:func:`repro.sim.engine.realize_action`,
:meth:`~repro.solvers.SlotProblem.evaluate`).  :mod:`tests.billing_oracle`
keeps the per-group form: the action's rows spread over its groups, a
realization group by group and the sums over the realized groups.  The
contract is the same bill to rounding: every field of the
evaluation within ``RTOL`` relative, equal realized levels, equal dropped
load (zero on both or within ``RTOL``).  The ``[.]^+`` kink is the one
place where rounding moves a value from zero: a boundary-regime slot puts
facility power exactly at the renewable supply, so brown energy and the
costs after it are held to ``RTOL`` of the slot's facility draw instead.

The randomized half bills engine decisions directly and holds every
decision to the rows check of ``tests.conftest.validate_action``: one row
per on class, under the full fleet's class ids even when a failed-group
sub-fleet renumbered them.  The run half records every decision of a
simulated run, fallbacks and failed-group slots included, and re-bills it
with the oracle.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import CarbonUnaware
from repro.cluster import Fleet, ServerGroup, cubic_dvfs_profile, opteron_2380
from repro.cluster.queueing import SquaredLoadDelay
from repro.cluster.switching import SwitchingCostModel
from repro.core import COCA, DataCenterModel
from repro.core.controller import Controller, SlotObservation
from repro.faults import DegradationPolicy, FaultSchedule
from repro.scenarios import small_scenario
from repro.sim import simulate
from repro.sim.engine import realize_action
from repro.solvers import (
    CoordinateDescentSolver,
    DistributedGSD,
    GSDSolver,
    HomogeneousEnumerationSolver,
    InfeasibleError,
    SlotEvaluation,
)
from tests.billing_oracle import bill, evaluate, group_loads
from tests.conftest import validate_action
from tests.failed_groups_oracle import solve_with_failed_groups, subset

#: Relative tolerance between the class-space bill and the per-group one.
RTOL = 1e-12

#: Evaluation fields read before the ``[.]^+`` kink (relative check).
_SMOOTH = ("it_power", "facility_power", "delay_sum", "delay_cost", "switching_energy")

ENGINES = {
    "enumeration": lambda: HomogeneousEnumerationSolver(),
    "gsd": lambda: GSDSolver(iterations=40, rng=np.random.default_rng(3)),
    "distributed": lambda: DistributedGSD(iterations=12, rng=np.random.default_rng(4)),
    "coordinate_descent": lambda: CoordinateDescentSolver(rng=np.random.default_rng(5)),
}


def two_profile_fleet(rng: np.random.Generator) -> Fleet:
    groups = [
        ServerGroup(opteron_2380() if rng.random() < 0.5 else cubic_dvfs_profile(), int(n))
        for n in rng.integers(1, 40, size=int(rng.integers(2, 9)))
    ]
    groups[0] = ServerGroup(opteron_2380(), groups[0].count)
    groups[-1] = ServerGroup(cubic_dvfs_profile(), groups[-1].count)
    return Fleet(groups)


def homogeneous_fleet(rng: np.random.Generator) -> Fleet:
    profile = opteron_2380()
    return Fleet([ServerGroup(profile, int(n)) for n in rng.integers(1, 40, size=8)])


def close(got: float, want: float, scale: float = 0.0) -> bool:
    return abs(got - want) <= RTOL * max(abs(want), scale)


def assert_same_bill(got, want, problem) -> None:
    """Every field of two slot evaluations within ``RTOL``; past the kink,
    relative to the slot's facility draw priced at the slot's tariff."""
    for name in _SMOOTH:
        assert close(getattr(got, name), getattr(want, name)), name
    draw = want.facility_power * problem.slot_hours
    e_scale = problem.tariff.cost(draw, problem.price)
    assert close(got.brown_energy, want.brown_energy, draw), "brown_energy"
    assert close(got.electricity_cost, want.electricity_cost, e_scale)
    cost_scale = e_scale + abs(want.delay_cost)
    assert close(got.cost, want.cost, cost_scale), "cost"
    obj_scale = problem.V * cost_scale + problem.q * draw
    assert close(got.objective, want.objective, obj_scale), "objective"


def assert_same_dropped(got: float, want: float) -> None:
    assert (got == 0.0) == (want == 0.0)
    assert close(got, want)


def class_bill(model, solution, actual, obs, prev_on, failed):
    """The slot engine's bill: realize the rows, bill them once."""
    realized, dropped = realize_action(
        model, solution.action, actual, obs.arrival_rate, failed_groups=failed
    )
    problem = model.slot_problem(
        arrival_rate=actual,
        onsite=obs.onsite,
        price=obs.price,
        prev_on_counts=prev_on,
        network_delay=obs.network_delay,
        pue_override=obs.pue,
    )
    return realized, dropped, problem.evaluate(realized), problem


def check_slot(model, solution, actual, obs, prev_on=None, failed=None):
    realized, dropped, got, problem = class_bill(
        model, solution, actual, obs, prev_on, failed
    )
    levels, loads, want_dropped, want = bill(
        model, solution.action, actual, obs, prev_on, failed
    )
    fleet = model.fleet
    assert np.array_equal(realized.levels, levels)
    assert_same_dropped(dropped, want_dropped)
    assert_same_bill(got, want, problem)
    assert close(realized.rows.served, float((fleet.counts * loads).sum()))
    assert realized.rows.active_servers == float(fleet.counts[levels >= 0].sum())
    np.testing.assert_allclose(group_loads(fleet, realized), loads, rtol=RTOL, atol=0.0)


# ---------------------------------------------------------------------------
# Randomized slots
# ---------------------------------------------------------------------------
def random_slot(rng, fleet, *, switching: bool):
    """A model and an observation with random prices, renewables, PUE,
    network delay and delay model; the arrival is a fraction of capped
    capacity."""
    model_kw = {"fleet": fleet, "beta": float(rng.uniform(0.0, 20.0))}
    if switching:
        model_kw["switching"] = SwitchingCostModel(
            energy_per_toggle=float(rng.uniform(1e-6, 1e-4)),
            charge_off=bool(rng.random() < 0.5),
        )
    if rng.random() < 0.25:
        model_kw["delay_model"] = SquaredLoadDelay()
    model = DataCenterModel(**model_kw)
    obs = SlotObservation(
        t=0,
        arrival_rate=float(rng.uniform(0.05, 0.9)) * fleet.capacity(model.gamma),
        onsite=float(rng.uniform(0.0, 1.0)) * fleet.max_power,
        price=float(rng.uniform(5.0, 120.0)),
        network_delay=float(rng.choice([0.0, rng.uniform(0.0, 0.05)])),
        pue=None if rng.random() < 0.5 else float(rng.uniform(1.0, 1.8)),
    )
    return model, obs


def decide(model, engine, obs, prev_on, failed, rng):
    problem = model.slot_problem(
        arrival_rate=obs.arrival_rate,
        onsite=obs.onsite,
        price=obs.price,
        q=float(rng.choice([0.0, rng.uniform(0.0, 300.0)])),
        V=float(rng.uniform(1.0, 200.0)),
        prev_on_counts=prev_on,
        network_delay=obs.network_delay,
        pue_override=obs.pue,
    )
    if failed:
        return solve_with_failed_groups(engine, problem, failed)
    return engine.solve(problem)


def actual_arrivals(rng, model, solution, planned):
    """Prediction error both ways, zero, exactly the on-set's capped
    capacity, and twice it (load dropped)."""
    fleet = model.fleet
    levels = solution.action.levels
    on_cap = float(
        np.sum(np.where(levels >= 0, fleet.counts * model.gamma * fleet.group_speeds(levels), 0.0))
    )
    return (
        planned,
        planned * float(rng.uniform(0.5, 1.0)),
        planned * float(rng.uniform(1.0, 1.6)),
        0.0,
        on_cap,
        2.0 * on_cap,
    )


@pytest.mark.parametrize("engine_name", list(ENGINES))
@pytest.mark.parametrize("failures", [False, True], ids=["healthy", "failed_groups"])
def test_randomized_slots_bill_like_the_oracle(engine_name, failures):
    rng = np.random.default_rng(2024)
    solved = 0
    for case in range(12):
        fleet = (
            homogeneous_fleet(rng)
            if engine_name == "enumeration"
            else two_profile_fleet(rng)
        )
        model, obs = random_slot(rng, fleet, switching=case % 3 == 0)
        prev_on = np.where(rng.random(fleet.num_groups) < 0.5, fleet.counts, 0.0)
        failed = None
        if failures:
            picks = rng.choice(fleet.num_groups, size=max(1, fleet.num_groups // 3), replace=False)
            failed = frozenset(int(g) for g in picks)
        try:
            solution = decide(model, ENGINES[engine_name](), obs, prev_on, failed, rng)
        except InfeasibleError:
            continue
        validate_action(fleet, solution.action, obs.arrival_rate, model.gamma)
        solved += 1
        for actual in actual_arrivals(rng, model, solution, obs.arrival_rate):
            check_slot(model, solution, actual, obs, prev_on, failed)
        # Nothing planned: the arrival is spread pro rata to capacity.
        check_slot(model, solution, obs.arrival_rate, replace(obs, arrival_rate=0.0), prev_on, failed)
    assert solved >= 6


def test_plan_with_failed_groups_on_is_masked():
    """A controller that ignores failures plans failed groups on; the
    realization forces them off and re-derives the rows."""
    rng = np.random.default_rng(9)
    fleet = two_profile_fleet(rng)
    model, obs = random_slot(rng, fleet, switching=True)
    solution = CarbonUnaware(model).decide(obs)
    on = np.flatnonzero(solution.action.levels >= 0)
    assert on.size >= 2
    failed = frozenset(int(g) for g in on[: on.size // 2])
    prev_on = fleet.counts.copy()
    for actual in actual_arrivals(rng, model, solution, obs.arrival_rate):
        check_slot(model, solution, actual, obs, prev_on, failed)


# ---------------------------------------------------------------------------
# Failed-group sub-fleets that renumber class ids
# ---------------------------------------------------------------------------
#: Two-profile fleets whose failed set takes out one profile entirely:
#: ``(profiles in listed order, failed groups)``.  Opteron has four speed
#: levels, the narrow cubic profile two.
REMAP_CASES = {
    # The first-listed profile is down: the survivors become profile 0.
    "first_profile_down": (
        (lambda: cubic_dvfs_profile(levels=2), opteron_2380), (0, 2, 4)
    ),
    # The widest profile is down: the survivors are renumbered and the
    # sub-fleet's tables shrink from four levels to two.
    "widest_profile_down": (
        (opteron_2380, lambda: cubic_dvfs_profile(levels=2)), (0, 2, 4)
    ),
}


@pytest.mark.parametrize("engine_name", ["gsd", "distributed", "coordinate_descent"])
@pytest.mark.parametrize("case", list(REMAP_CASES))
def test_failed_profile_rows_carry_full_fleet_ids(case, engine_name):
    makers, failed = REMAP_CASES[case]
    fleet = Fleet([ServerGroup(makers[g % 2](), 6 + 5 * g) for g in range(6)])
    survivors = subset(fleet, [g for g in range(6) if g not in failed])
    assert survivors.profile_ids.tolist() == [0, 0, 0]
    assert fleet.profile_ids[1] == 1
    if case == "widest_profile_down":
        assert survivors.max_levels < fleet.max_levels
    rng = np.random.default_rng(17)
    for _ in range(4):
        model, obs = random_slot(rng, fleet, switching=True)
        share = float(rng.uniform(0.05, 0.9))
        obs = replace(obs, arrival_rate=share * survivors.capacity(model.gamma))
        prev_on = np.where(rng.random(fleet.num_groups) < 0.5, fleet.counts, 0.0)
        solution = decide(
            model, ENGINES[engine_name](), obs, prev_on, frozenset(failed), rng
        )
        # Every row is a class of a surviving (profile 1) group on the full
        # fleet, never the sub-fleet's profile 0 id.
        K = fleet.max_levels
        assert solution.action.rows.classes
        assert all(c > K for c in solution.action.rows.classes)
        validate_action(fleet, solution.action, obs.arrival_rate, model.gamma)
        problem = model.slot_problem(
            arrival_rate=obs.arrival_rate, onsite=obs.onsite, price=obs.price,
            prev_on_counts=prev_on, network_delay=obs.network_delay,
            pue_override=obs.pue,
        )
        planned = problem.evaluate(solution.action)
        want = evaluate(
            problem, solution.action.levels, group_loads(fleet, solution.action)
        )
        assert_same_bill(planned, want, problem)
        check_slot(model, solution, obs.arrival_rate, obs, prev_on, frozenset(failed))


# ---------------------------------------------------------------------------
# Whole runs
# ---------------------------------------------------------------------------
class Recorder(Controller):
    """Wraps a controller and keeps each slot's observation, committed
    decision (fallbacks included) and failed set."""

    def __init__(self, inner: Controller) -> None:
        self.inner = inner
        self.failed: frozenset[int] = frozenset()
        self.slots: dict[int, tuple] = {}

    def bind_telemetry(self, telemetry) -> None:
        self.inner.bind_telemetry(telemetry)

    def start(self, environment) -> None:
        self.inner.start(environment)

    def set_failed_groups(self, failed) -> None:
        self.failed = frozenset(failed)
        self.inner.set_failed_groups(failed)

    def decide(self, observation):
        solution = self.inner.decide(observation)
        self.slots[observation.t] = (observation, solution, self.failed)
        return solution

    def on_fallback(self, observation, solution) -> None:
        self.inner.on_fallback(observation, solution)
        self.slots[observation.t] = (observation, solution, self.failed)

    def observe(self, outcome) -> None:
        self.inner.observe(outcome)

    def name(self) -> str:
        return self.inner.name()


def rebill(model, environment, recorder, record) -> int:
    """Bill every recorded slot with the oracle and compare the record's
    columns; returns the number of fallback slots."""
    prev_on = None
    fallbacks = 0
    for t in range(environment.horizon):
        obs, solution, failed = recorder.slots[t]
        fallbacks += "fallback" in solution.info
        actual = environment.actual_arrival(t)
        levels, loads, dropped, want = bill(
            model, solution.action, actual, obs, prev_on, failed
        )
        problem = model.slot_problem(
            arrival_rate=actual, onsite=obs.onsite, price=obs.price,
            network_delay=obs.network_delay, pue_override=obs.pue,
        )
        got = SlotEvaluation(
            it_power=record.it_power[t],
            facility_power=record.facility_power[t],
            brown_energy=record.brown_energy[t],
            electricity_cost=record.electricity_cost[t],
            delay_sum=want.delay_sum,
            delay_cost=record.delay_cost[t],
            switching_energy=record.switching_energy[t],
            switching_cost=0.0,
            cost=record.cost[t],
            objective=record.cost[t],  # billed at q = 0, V = 1
        )
        assert_same_bill(got, want, problem)
        assert_same_dropped(record.dropped[t], dropped)
        counts = model.fleet.counts
        assert close(record.served[t], float((counts * loads).sum()))
        assert record.active_servers[t] == float(counts[levels >= 0].sum())
        prev_on = np.where(levels >= 0, counts, 0.0)
    return fallbacks


@pytest.fixture(scope="module")
def day():
    return small_scenario(horizon=48)


def two_profile_model(model):
    fleet = Fleet(
        [ServerGroup(opteron_2380(), 50) for _ in range(4)]
        + [ServerGroup(cubic_dvfs_profile(), 50) for _ in range(4)]
    )
    return replace(model, fleet=fleet)


RUN_ENGINES = {
    "enumeration": lambda: HomogeneousEnumerationSolver(),
    "gsd": lambda: GSDSolver(iterations=20, rng=np.random.default_rng(1)),
    "distributed": lambda: DistributedGSD(iterations=8, rng=np.random.default_rng(2)),
    "coordinate_descent": lambda: CoordinateDescentSolver(rng=np.random.default_rng(3)),
}


@pytest.mark.parametrize("mode", ["last_action", "proportional"])
@pytest.mark.parametrize("engine_name", list(RUN_ENGINES))
def test_chaos_run_bills_like_the_oracle(day, engine_name, mode):
    """Failed groups on most slots, stale and missing signals, lost
    protocol rounds, switching charges and fallbacks in both modes."""
    model = day.model
    if engine_name != "enumeration":
        model = two_profile_model(model)
    model = replace(
        model, switching=SwitchingCostModel(energy_per_toggle=2e-5, charge_off=True)
    )
    schedule = FaultSchedule.generate(
        11, horizon=day.horizon, num_groups=model.fleet.num_groups,
        failure_rate=0.2, mean_repair=4.0, signal_rate=0.2, loss=0.05,
    )
    recorder = Recorder(
        COCA(model, day.environment.portfolio, v_schedule=50.0, solver=RUN_ENGINES[engine_name]())
    )
    record = simulate(
        model, recorder, day.environment, faults=schedule,
        degradation=DegradationPolicy(mode=mode, retries=0),
    )
    fallbacks = rebill(model, day.environment, recorder, record)
    assert fallbacks > 0
    assert any(failed for _, _, failed in recorder.slots.values())


def test_unaware_controller_run_bills_like_the_oracle(day):
    """A controller that plans failed groups on: the realization masks
    them on every failed slot."""
    schedule = FaultSchedule.generate(
        5, horizon=day.horizon, num_groups=day.model.fleet.num_groups,
        failure_rate=0.2, mean_repair=4.0,
    )
    recorder = Recorder(CarbonUnaware(day.model))
    record = simulate(day.model, recorder, day.environment, faults=schedule)
    rebill(day.model, day.environment, recorder, record)


@pytest.mark.parametrize(
    "make",
    [
        lambda: HomogeneousEnumerationSolver(),
        lambda: GSDSolver(iterations=20, rng=np.random.default_rng(1)),
    ],
    ids=["enumeration", "gsd"],
)
def test_chaos_week_runs(week_scenario, make):
    """A small-scenario week under generated group failures and degraded
    signals completes on the exact engine and on GSD with a finite bill
    on every slot."""
    sc = week_scenario
    schedule = FaultSchedule.generate(
        3, horizon=sc.horizon, num_groups=sc.model.fleet.num_groups,
        failure_rate=0.1, mean_repair=6.0, signal_rate=0.05,
    )
    record = simulate(
        sc.model,
        COCA(sc.model, sc.environment.portfolio, v_schedule=150.0, solver=make()),
        sc.environment,
        faults=schedule,
    )
    assert record.horizon == sc.horizon
    assert np.all(np.isfinite(record.cost))
