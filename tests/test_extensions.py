"""Tests for the section-3.1/2.3 extensions: operational caps and network
delay."""

import numpy as np
import pytest

from dataclasses import replace

from repro.core import DataCenterModel
from repro.sim import Environment, simulate
from repro.solvers import (
    CoordinateDescentSolver,
    GSDSolver,
    HomogeneousEnumerationSolver,
    InfeasibleError,
)
from repro.traces import Trace
from tests.brute_force_oracle import BruteForceOracle
from tests.conftest import make_problem


class TestPeakPowerCap:
    def test_cap_respected_by_enumeration(self, tiny_model):
        uncapped = HomogeneousEnumerationSolver().solve(
            make_problem(tiny_model, lam_frac=0.5)
        )
        cap = 0.8 * uncapped.evaluation.facility_power
        p = make_problem(tiny_model, lam_frac=0.5)
        p = replace(p, peak_power_cap=cap)
        capped = HomogeneousEnumerationSolver().solve(p)
        assert capped.evaluation.facility_power <= cap * (1 + 1e-9)
        assert capped.objective >= uncapped.objective - 1e-12

    def test_cap_respected_by_all_engines(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=0.5)
        cap = 0.85 * HomogeneousEnumerationSolver().solve(p).evaluation.facility_power
        p = replace(p, peak_power_cap=cap)
        for solver in (
            BruteForceOracle(),
            CoordinateDescentSolver(),
            GSDSolver(iterations=1500, delta=1e5, rng=np.random.default_rng(0)),
        ):
            sol = solver.solve(p)
            assert sol.evaluation.facility_power <= cap * (1 + 1e-9), solver

    def test_impossible_cap_raises(self, tiny_model):
        p = replace(make_problem(tiny_model, lam_frac=0.9), peak_power_cap=1e-9)
        with pytest.raises(InfeasibleError):
            HomogeneousEnumerationSolver().solve(p)
        with pytest.raises(InfeasibleError):
            BruteForceOracle().solve(p)

    def test_cap_validation(self, tiny_model):
        with pytest.raises(ValueError):
            replace(make_problem(tiny_model), peak_power_cap=0.0)

    def test_model_level_cap_propagates(self, tiny_fleet):
        model = DataCenterModel(fleet=tiny_fleet, peak_power_cap=0.05)
        p = model.slot_problem(arrival_rate=10.0, onsite=0.0, price=40.0)
        assert p.peak_power_cap == 0.05


class TestMaxDelayCap:
    def test_delay_cap_forces_more_capacity(self, tiny_model):
        # Light load so the uncapped optimum leaves servers off, making a
        # tighter delay target reachable by powering more on.
        base = make_problem(tiny_model, lam_frac=0.3)
        uncapped = HomogeneousEnumerationSolver().solve(base)
        tight = replace(base, max_delay_cost=0.85 * uncapped.evaluation.delay_cost)
        capped = HomogeneousEnumerationSolver().solve(tight)
        assert capped.evaluation.delay_cost <= tight.max_delay_cost * (1 + 1e-9)
        assert capped.action.active_servers(tiny_model.fleet) >= uncapped.action.active_servers(
            tiny_model.fleet
        )

    def test_delay_cap_validation(self, tiny_model):
        with pytest.raises(ValueError):
            replace(make_problem(tiny_model), max_delay_cost=-1.0)

    def test_violates_caps_helper(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=0.5)
        sol = HomogeneousEnumerationSolver().solve(p)
        assert not p.violates_caps(sol.evaluation)
        tight = replace(p, max_delay_cost=0.5 * sol.evaluation.delay_cost)
        assert tight.violates_caps(sol.evaluation)


class TestNetworkDelay:
    def test_adds_served_times_delay(self, tiny_model):
        base = make_problem(tiny_model, lam_frac=0.5)
        with_net = replace(base, network_delay=0.2)
        sol = HomogeneousEnumerationSolver().solve(base)
        ev_base = base.evaluate(sol.action)
        ev_net = with_net.evaluate(sol.action)
        extra = 0.2 * sol.action.served_load(tiny_model.fleet)
        assert ev_net.delay_sum == pytest.approx(ev_base.delay_sum + extra)
        assert ev_net.delay_cost == pytest.approx(
            ev_base.delay_cost + base.delay_weight * extra
        )

    def test_does_not_change_the_argmin(self, tiny_model):
        """Network delay scales with served load only, so the optimal
        configuration is unchanged."""
        base = make_problem(tiny_model, lam_frac=0.5)
        with_net = replace(base, network_delay=0.5)
        a = HomogeneousEnumerationSolver().solve(base)
        b = HomogeneousEnumerationSolver().solve(with_net)
        np.testing.assert_array_equal(a.action.levels, b.action.levels)

    def test_environment_trace_flows_to_observation(self, week_scenario):
        sc = week_scenario
        net = Trace(np.full(sc.horizon, 0.05), name="net-delay", unit="s")
        env = Environment(
            workload=sc.environment.workload,
            portfolio=sc.environment.portfolio,
            price=sc.environment.price,
            network_delay=net,
        )
        assert env.observation(3).network_delay == 0.05

    def test_simulation_records_higher_delay_cost(self, week_scenario):
        from repro.baselines import CarbonUnaware

        sc = week_scenario
        net = Trace(np.full(sc.horizon, 0.05))
        env = Environment(
            workload=sc.environment.workload,
            portfolio=sc.environment.portfolio,
            price=sc.environment.price,
            network_delay=net,
        )
        base = simulate(sc.model, CarbonUnaware(sc.model), sc.environment)
        with_net = simulate(sc.model, CarbonUnaware(sc.model), env)
        assert with_net.delay_cost.sum() > base.delay_cost.sum()
        np.testing.assert_allclose(with_net.served, base.served, rtol=1e-9)

    def test_horizon_checked(self, week_scenario):
        sc = week_scenario
        with pytest.raises(ValueError, match="horizon"):
            Environment(
                workload=sc.environment.workload,
                portfolio=sc.environment.portfolio,
                price=sc.environment.price,
                network_delay=Trace(np.ones(3)),
            )

    def test_negative_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            replace(make_problem(tiny_model), network_delay=-0.1)
