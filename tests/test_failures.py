"""Tests for GSD under server failures (section 4.2's failure remark).

The first half covers a *static* failed set on a single solve; the
``TestDynamicFailures`` half drives whole simulations through
``FaultSchedule`` so groups fail and recover mid-horizon (including
fail → repair → fail cycles and concurrent outages), asserting the served
load and the Theorem 2 carbon accounting across the transitions.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import Fleet, ServerGroup, cubic_dvfs_profile, opteron_2380
from repro.core import DataCenterModel
from repro.core.coca import COCA
from repro.faults import FaultEvent, FaultSchedule
from repro.scenarios import small_scenario
from repro.sim import realize_action, simulate
from repro.solvers import (
    CoordinateDescentSolver,
    DistributedGSD,
    GSDSolver,
    InfeasibleError,
)
from repro.state.records import record_mismatches
from tests.billing_oracle import action_from_loads, group_loads
from tests.brute_force_oracle import BruteForceOracle
from tests.conftest import make_problem
from tests.failed_groups_oracle import solve_on_sub_fleets


class TestGSDWithFailures:
    """GSD with failed groups on the slot problem: only the survivors run."""

    def test_failed_groups_stay_dark(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=0.4, failed=[1])
        solver = GSDSolver(iterations=1500, delta=1e5, rng=np.random.default_rng(0))
        sol = solver.solve(p)
        assert sol.action.levels[1] == -1
        assert group_loads(tiny_model.fleet, sol.action)[1] == 0.0
        assert sol.action.rows.served == pytest.approx(
            p.arrival_rate, rel=1e-6
        )

    def test_matches_oracle_on_degraded_fleet(self, tiny_model):
        """GSD restricted to functioning groups must match brute force on
        the fleet with the failed group removed."""
        p = make_problem(tiny_model, lam_frac=0.5, failed=[0])
        delta = GSDSolver.auto_delta(p, greediness=50.0)
        solver = GSDSolver(iterations=3000, delta=delta, rng=np.random.default_rng(1))
        sol = solver.solve(p)

        degraded = Fleet([ServerGroup(opteron_2380(), 10) for _ in range(2)])
        dm = DataCenterModel(fleet=degraded, beta=10.0)
        p2 = dm.slot_problem(
            arrival_rate=p.arrival_rate, onsite=p.onsite, price=p.price, q=p.q
        )
        oracle = BruteForceOracle().solve(p2)
        assert sol.objective <= oracle.objective * 1.02 + 1e-12

    def test_all_failed_rejected(self, tiny_model):
        with pytest.raises(InfeasibleError, match="every server group"):
            make_problem(tiny_model, lam_frac=0.1, failed=[0, 1, 2])

    def test_out_of_range_rejected(self, tiny_model):
        with pytest.raises(ValueError, match="out of range"):
            make_problem(tiny_model, lam_frac=0.1, failed=[7])

    def test_infeasible_when_survivors_lack_capacity(self, tiny_model):
        # needs ~2.7 groups
        p = make_problem(tiny_model, lam_frac=0.9, failed=[0, 1])
        solver = GSDSolver(iterations=50, delta=1e5)
        with pytest.raises(InfeasibleError):
            # The remaining single group cannot carry 90% of total capacity.
            solver.solve(p)


@pytest.fixture(scope="module")
def outage_scenario():
    """A seeded day on the small fleet for dynamic-failure runs."""
    return small_scenario(horizon=24, seed=11)


def _run_with_faults(scenario, schedule, *, v=150.0):
    controller = COCA(
        scenario.model,
        scenario.environment.portfolio,
        v_schedule=v,
        alpha=scenario.alpha,
    )
    record = simulate(
        scenario.model, controller, scenario.environment, faults=schedule
    )
    return record, controller


def _assert_carbon_accounting(record, controller, scenario):
    """Replay Eq. (17) from the recorded arrays: the queue the controller
    saw at each decision must equal the recursion over realized brown and
    off-site supply (``record.queue`` holds q *before* the slot's update)."""
    alpha = scenario.alpha
    z = controller.queue.rec_per_slot
    q = 0.0
    for t in range(record.horizon):
        assert record.queue[t] == pytest.approx(q, abs=1e-9), f"slot {t}"
        q = max(q + record.brown_energy[t] - alpha * record.offsite[t] - z, 0.0)
    assert controller.queue.length == pytest.approx(q, abs=1e-9)


class TestDynamicFailures:
    def test_fail_repair_fail_cycle(self, outage_scenario):
        """One group failing, recovering, then failing again mid-horizon."""
        schedule = FaultSchedule(
            events=(
                FaultEvent(t=3, kind="group_fail", group=1),
                FaultEvent(t=8, kind="group_repair", group=1),
                FaultEvent(t=14, kind="group_fail", group=1),
                FaultEvent(t=19, kind="group_repair", group=1),
            )
        )
        record, controller = _run_with_faults(outage_scenario, schedule)
        assert record.horizon == outage_scenario.horizon
        # Load stays conserved through every transition...
        np.testing.assert_allclose(
            record.served + record.dropped, record.arrival_actual, rtol=1e-9
        )
        # ...one group down leaves ample capacity, so nothing is dropped...
        assert record.dropped.sum() == 0.0
        # ...and the deficit queue still follows the Theorem 2 recursion.
        _assert_carbon_accounting(record, controller, outage_scenario)

    def test_concurrent_failures(self, outage_scenario):
        """Several groups down at once, recovering at different times."""
        schedule = FaultSchedule(
            events=(
                FaultEvent(t=4, kind="group_fail", group=0),
                FaultEvent(t=4, kind="group_fail", group=2),
                FaultEvent(t=6, kind="group_fail", group=5),
                FaultEvent(t=10, kind="group_repair", group=2),
                FaultEvent(t=12, kind="group_repair", group=0),
                FaultEvent(t=16, kind="group_repair", group=5),
            )
        )
        record, controller = _run_with_faults(outage_scenario, schedule)
        np.testing.assert_allclose(
            record.served + record.dropped, record.arrival_actual, rtol=1e-9
        )
        _assert_carbon_accounting(record, controller, outage_scenario)

    def test_outage_reduces_active_servers(self, outage_scenario):
        """During the outage window the realized fleet must actually be
        smaller -- the failure cannot be decision-side only."""
        G = outage_scenario.model.fleet.num_groups
        schedule = FaultSchedule(
            events=tuple(
                FaultEvent(t=6, kind="group_fail", group=g)
                for g in range(G // 2)
            )
            + tuple(
                FaultEvent(t=18, kind="group_repair", group=g)
                for g in range(G // 2)
            )
        )
        record, _ = _run_with_faults(outage_scenario, schedule)
        baseline, _ = _run_with_faults(outage_scenario, FaultSchedule.empty())
        in_window = slice(6, 18)
        servers_per_group = outage_scenario.model.fleet.counts.max()
        healthy_cap = (G - G // 2) * servers_per_group
        assert record.active_servers[in_window].max() <= healthy_cap
        # Outside the window behavior converges back to the healthy run.
        assert record.active_servers[0] == baseline.active_servers[0]

    def test_unserveable_load_is_dropped_not_lost(self, outage_scenario):
        """Fail all but one group: the survivor serves what it can, the
        rest shows up as dropped -- never silently vanishing."""
        G = outage_scenario.model.fleet.num_groups
        schedule = FaultSchedule(
            events=tuple(
                FaultEvent(t=2, kind="group_fail", group=g)
                for g in range(G - 1)
            )
        )
        record, controller = _run_with_faults(outage_scenario, schedule)
        np.testing.assert_allclose(
            record.served + record.dropped, record.arrival_actual, rtol=1e-9
        )
        assert record.dropped.sum() > 0
        assert record.served[3:].min() > 0  # the survivor keeps serving
        _assert_carbon_accounting(record, controller, outage_scenario)


def _two_profile(model):
    """``model`` on a fleet alternating the Opteron and a cubic profile of
    the same top speed, group for group, so its capacity is unchanged."""
    groups = [
        ServerGroup(opteron_2380() if g % 2 == 0 else cubic_dvfs_profile(), grp.count)
        for g, grp in enumerate(model.fleet.groups)
    ]
    return replace(model, fleet=Fleet(groups))


#: ``engine -> (model transform, solver factory, message loss)``.
_CHAOS_ENGINES = {
    "enumeration": (lambda m: m, lambda: None, 0.0),
    "gsd": (
        lambda m: m,
        lambda: GSDSolver(iterations=60, rng=np.random.default_rng(5)),
        0.0,
    ),
    "distributed": (
        lambda m: m,
        lambda: DistributedGSD(iterations=12, rng=np.random.default_rng(5)),
        0.10,
    ),
    "coordinate_descent": (
        _two_profile, lambda: CoordinateDescentSolver(restarts=3), 0.0
    ),
}


class TestSlicedSubFleets:
    """Failed groups are a constraint of the slot problem; a chaos run must
    not change when every failed-group slot is solved on the sub-fleet of
    survivors instead (``tests/failed_groups_oracle.py``)."""

    @pytest.mark.parametrize("engine", list(_CHAOS_ENGINES))
    def test_chaos_run_matches_constructed_sub_fleets(self, outage_scenario, engine):
        transform, make_solver, loss = _CHAOS_ENGINES[engine]
        model = transform(outage_scenario.model)
        G = model.fleet.num_groups
        schedule = FaultSchedule.generate(
            7, horizon=outage_scenario.horizon, num_groups=G,
            failure_rate=0.15, mean_repair=3.0, loss=loss,
        )

        def run(oracle):
            solver = make_solver()
            controller = COCA(
                model,
                outage_scenario.environment.portfolio,
                v_schedule=150.0,
                alpha=outage_scenario.alpha,
                solver=solver,
            )
            if oracle:
                solve_on_sub_fleets(controller.solver, calls)
            return simulate(
                model, controller, outage_scenario.environment, faults=schedule
            )

        calls = []
        masked = run(False)
        reference = run(True)
        assert len(calls) >= outage_scenario.horizon // 2  # failures on most slots
        assert record_mismatches(masked, reference) == []

    @pytest.mark.parametrize("failed", [(), (4,), tuple(range(1, 8))])
    def test_realize_mask_matches_isin(self, outage_scenario, failed):
        model = outage_scenario.model
        G = model.fleet.num_groups
        levels = np.full(G, model.fleet.num_levels[0] - 1, dtype=np.int64)
        action = action_from_loads(model.fleet, levels, np.full(G, 20.0))
        planned = action.rows.served

        mask = np.isin(np.arange(G), sorted(failed))
        forced = action_from_loads(
            model.fleet,
            np.where(mask, -1, action.levels),
            np.where(mask, 0.0, group_loads(model.fleet, action)),
        )
        for actual in (0.8 * planned, 1.1 * planned):
            got, got_drop = realize_action(
                model, action, actual, planned, failed_groups=failed
            )
            want, want_drop = realize_action(model, forced, actual, planned)
            assert np.array_equal(got.levels, want.levels)
            assert got.rows == want.rows
            assert got_drop == want_drop
