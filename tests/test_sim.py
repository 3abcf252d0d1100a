"""Tests for the environment, slot engine, and record metrics."""

import numpy as np
import pytest

from repro.baselines import CarbonUnaware
from repro.core import COCA
from repro.energy import RenewablePortfolio
from repro.sim import Environment, simulate
from repro.sim.engine import realize_action
from repro.traces import Trace, overestimate


class TestEnvironment:
    def test_horizon_consistency_enforced(self, week_scenario):
        sc = week_scenario
        bad_price = Trace(np.ones(10))
        with pytest.raises(ValueError, match="horizon"):
            Environment(
                workload=sc.environment.actual_workload,
                portfolio=sc.environment.portfolio,
                price=bad_price,
            )

    def test_observation_fields(self, week_scenario):
        env = week_scenario.environment
        obs = env.observation(5)
        assert obs.t == 5
        assert obs.arrival_rate == env.predicted_workload[5]
        assert obs.onsite == env.portfolio.onsite[5]
        assert obs.price == env.price[5]

    def test_prediction_model_splits_views(self, week_scenario):
        env = week_scenario.environment
        pair = overestimate(env.actual_workload, 1.2)
        env2 = env.with_workload(pair)
        assert env2.observation(3).arrival_rate == pytest.approx(
            1.2 * env2.actual_arrival(3)
        )

    def test_with_portfolio(self, week_scenario):
        env = week_scenario.environment
        pf = env.portfolio.with_budget_split(env.portfolio.carbon_budget * 2, 0.5)
        assert env.with_portfolio(pf).portfolio.carbon_budget == pytest.approx(
            env.portfolio.carbon_budget * 2
        )


class TestRealizeAction:
    def test_exact_prediction_is_identity(self, week_scenario):
        sc = week_scenario
        unaware = CarbonUnaware(sc.model)
        obs = sc.environment.observation(12)
        sol = unaware.decide(obs)
        realized, dropped = realize_action(
            sc.model, sol.action, obs.arrival_rate, obs.arrival_rate
        )
        assert dropped == 0.0
        assert np.array_equal(realized.levels, sol.action.levels)
        assert realized.rows.classes == sol.action.rows.classes
        np.testing.assert_allclose(realized.rows.loads, sol.action.rows.loads)

    def test_overestimation_scales_down(self, week_scenario):
        sc = week_scenario
        unaware = CarbonUnaware(sc.model)
        obs = sc.environment.observation(12)
        sol = unaware.decide(obs)
        realized, dropped = realize_action(
            sc.model, sol.action, 0.5 * obs.arrival_rate, obs.arrival_rate
        )
        assert dropped == 0.0
        assert realized.rows.served == pytest.approx(
            0.5 * obs.arrival_rate
        )

    def test_underestimation_uses_headroom(self, week_scenario):
        sc = week_scenario
        unaware = CarbonUnaware(sc.model)
        obs = sc.environment.observation(12)
        sol = unaware.decide(obs)
        actual = 1.2 * obs.arrival_rate
        realized, dropped = realize_action(sc.model, sol.action, actual, obs.arrival_rate)
        capacity_on = float(
            np.sum(
                sc.model.fleet.counts
                * sc.model.gamma
                * sc.model.fleet.group_speeds(sol.action.levels)
            )
        )
        served = realized.rows.served
        assert served + dropped == pytest.approx(actual, rel=1e-9)
        assert served <= capacity_on * (1 + 1e-9)

    def test_zero_actual_clears_loads(self, week_scenario):
        sc = week_scenario
        unaware = CarbonUnaware(sc.model)
        sol = unaware.decide(sc.environment.observation(12))
        realized, dropped = realize_action(sc.model, sol.action, 0.0, 100.0)
        assert realized.rows.served == 0.0
        assert dropped == 0.0

    def test_nothing_on_drops_everything(self, week_scenario):
        from repro.cluster import FleetAction

        sc = week_scenario
        off = FleetAction.all_off(sc.model.fleet)
        realized, dropped = realize_action(sc.model, off, 50.0, 0.0)
        assert realized.rows.classes == ()
        assert dropped == pytest.approx(50.0)


class TestSimulationRecord:
    @pytest.fixture(scope="class")
    def record(self, week_scenario):
        sc = week_scenario
        coca = COCA(sc.model, sc.environment.portfolio, v_schedule=0.01)
        return simulate(sc.model, coca, sc.environment)

    def test_lengths(self, record, week_scenario):
        assert record.horizon == week_scenario.horizon
        assert len(record.queue) == record.horizon
        assert len(record.v_applied) == record.horizon

    def test_cost_decomposition(self, record):
        np.testing.assert_allclose(
            record.cost, record.electricity_cost + record.delay_cost
        )

    def test_served_matches_actual(self, record):
        np.testing.assert_allclose(
            record.served + record.dropped, record.arrival_actual, rtol=1e-9
        )

    def test_no_drops_under_perfect_prediction(self, record):
        assert record.dropped.sum() == pytest.approx(0.0, abs=1e-6)

    def test_running_average_endpoints(self, record):
        run = record.running_average_cost()
        assert run[0] == pytest.approx(record.cost[0])
        assert run[-1] == pytest.approx(record.average_cost)

    def test_moving_average_window(self, record):
        ma = record.moving_average_cost(window=24)
        assert ma[0] == pytest.approx(record.cost[0])
        assert ma[30] == pytest.approx(record.cost[7:31].mean())

    def test_deficit_series_sums_to_ledger(self, record, week_scenario):
        pf = week_scenario.environment.portfolio
        total = record.deficit_series(pf).sum()
        ledger = record.ledger(pf)
        assert total == pytest.approx(ledger.deficit, rel=1e-9)

    def test_summary_row(self, record, week_scenario):
        s = record.summary(week_scenario.environment.portfolio)
        row = s.as_row()
        assert row["controller"] == "COCA"
        assert s.average_cost == pytest.approx(record.average_cost)

    def test_brown_consistent_with_power(self, record):
        """brown = [facility - onsite]^+ slot by slot."""
        np.testing.assert_allclose(
            record.brown_energy,
            np.maximum(record.facility_power - record.onsite, 0.0),
            rtol=1e-9,
            atol=1e-12,
        )

    def test_array_length_validation(self, record):
        from dataclasses import replace

        with pytest.raises(ValueError, match="length"):
            replace(record, cost=record.cost[:-1])
