"""Generality tests: the paper claims its analysis is not tied to the
specific delay-cost form (section 2.3) or the linear tariff (section 2.1),
and supports the energy-capping variant (section 2.2).  These tests
exercise each claim end to end."""

import numpy as np
import pytest

from repro.cluster import (
    Fleet,
    ServerGroup,
    SquaredLoadDelay,
    TieredTariff,
    opteron_2380,
)
from repro.core import COCA, DataCenterModel
from repro.energy import RenewablePortfolio
from repro.sim import Environment, simulate
from repro.solvers import (
    CoordinateDescentSolver,
    GSDSolver,
    HomogeneousEnumerationSolver,
    distribute_load,
)
from repro.traces import Trace, fiu_workload, price_trace
from tests.brute_force_oracle import BruteForceOracle
from tests.conftest import make_problem


@pytest.fixture(scope="module")
def squared_model():
    fleet = Fleet([ServerGroup(opteron_2380(), 10) for _ in range(3)])
    return DataCenterModel(fleet=fleet, beta=10.0, delay_model=SquaredLoadDelay())


@pytest.fixture(scope="module")
def tiered_model():
    fleet = Fleet([ServerGroup(opteron_2380(), 10) for _ in range(3)])
    tariff = TieredTariff(thresholds=(0.005,), multipliers=(1.0, 3.0))
    return DataCenterModel(fleet=fleet, beta=10.0, tariff=tariff)


class TestAlternativeDelayModel:
    """Section 2.3: 'our analysis is not restricted to the specific delay
    cost given by (4)'."""

    def test_waterfilling_balances_load(self, squared_model):
        p = make_problem(squared_model, lam_frac=0.5)
        dist = distribute_load(p, np.full(3, 3))
        served = float(np.sum(squared_model.fleet.counts * dist.per_server_load))
        assert served == pytest.approx(p.arrival_rate, rel=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_engines_agree(self, squared_model, seed):
        rng = np.random.default_rng(seed)
        p = make_problem(
            squared_model,
            lam_frac=float(rng.uniform(0.1, 0.8)),
            price=float(rng.uniform(10, 80)),
            q=float(rng.choice([0.0, 20.0])),
        )
        bf = BruteForceOracle().solve(p)
        en = HomogeneousEnumerationSolver().solve(p)
        cd = CoordinateDescentSolver().solve(p)
        assert en.objective == pytest.approx(bf.objective, rel=1e-9)
        assert cd.objective <= bf.objective * (1 + 1e-9)

    def test_coca_run_with_squared_delay(self, squared_model):
        horizon = 24 * 5
        workload = fiu_workload(horizon, peak=0.4 * squared_model.fleet.max_capacity, seed=3)
        price = price_trace(horizon, seed=4)
        portfolio = RenewablePortfolio(
            onsite=Trace(np.zeros(horizon)),
            offsite=Trace(np.full(horizon, 0.01)),
            recs=1.0,
        )
        env = Environment(workload=workload, portfolio=portfolio, price=price)
        record = simulate(
            squared_model, COCA(squared_model, portfolio, v_schedule=1.0), env
        )
        assert np.all(np.isfinite(record.cost))
        assert record.dropped.sum() == 0.0


class TestTieredTariff:
    """Section 2.1: nonlinear convex electricity cost functions."""

    def test_enumeration_prices_tiers_exactly(self, tiered_model):
        p = make_problem(tiered_model, lam_frac=0.6)
        sol = HomogeneousEnumerationSolver().solve(p)
        expected = tiered_model.tariff.cost(sol.evaluation.brown_energy, p.price)
        assert sol.evaluation.electricity_cost == pytest.approx(expected)

    @pytest.mark.parametrize("seed", range(3))
    def test_engines_agree(self, tiered_model, seed):
        rng = np.random.default_rng(seed + 10)
        p = make_problem(
            tiered_model,
            lam_frac=float(rng.uniform(0.1, 0.8)),
            price=float(rng.uniform(10, 80)),
        )
        bf = BruteForceOracle().solve(p)
        en = HomogeneousEnumerationSolver().solve(p)
        assert en.objective == pytest.approx(bf.objective, rel=1e-6)

    def test_tiered_penalizes_heavy_draw(self, tiered_model, tiny_model):
        """At identical inputs, the convex tariff yields (weakly) lower
        optimal brown energy than the linear one."""
        p_lin = make_problem(tiny_model, lam_frac=0.7, price=40.0)
        p_tier = make_problem(tiered_model, lam_frac=0.7, price=40.0)
        lin = HomogeneousEnumerationSolver().solve(p_lin)
        tier = HomogeneousEnumerationSolver().solve(p_tier)
        assert tier.evaluation.brown_energy <= lin.evaluation.brown_energy + 1e-12


class TestEnergyCappingVariant:
    """Section 2.2's remark: drop renewables, let Z be the energy cap."""

    def test_coca_honors_pure_energy_cap(self, tiny_model):
        horizon = 24 * 7
        workload = fiu_workload(horizon, peak=0.4 * tiny_model.fleet.max_capacity, seed=8)
        price = price_trace(horizon, seed=9)

        # Uncapped usage first.
        free = RenewablePortfolio.energy_capping(horizon, cap=0.0)
        env_free = Environment(workload=workload, portfolio=free, price=price)
        from repro.baselines import CarbonUnaware, calibrate_budget

        uncapped = calibrate_budget(tiny_model, env_free)

        cap = 0.9 * uncapped
        portfolio = RenewablePortfolio.energy_capping(horizon, cap=cap)
        env = Environment(workload=workload, portfolio=portfolio, price=price)
        controller = COCA(tiny_model, portfolio, v_schedule=1e-4)
        record = simulate(tiny_model, controller, env)
        assert record.total_brown <= cap * (1 + 1e-6)
        assert record.dropped.sum() == 0.0
