"""Tests for the per-slot time-varying PUE override (footnote 1's cooling
overhead "(time-varying) PUE factor")."""

import numpy as np
import pytest

from repro.baselines import CarbonUnaware, OfflineOptimal
from repro.sim import Environment, simulate
from repro.solvers.batch import batch_enumerate
from repro.traces import Trace


class TestTimeVaryingPUEEndToEnd:
    def _env_with_pue(self, scenario, pue_values):
        return Environment(
            workload=scenario.environment.workload,
            portfolio=scenario.environment.portfolio,
            price=scenario.environment.price,
            pue=Trace(pue_values),
        )

    def test_constant_override_matches_scaled_power(self, week_scenario):
        sc = week_scenario
        env = self._env_with_pue(sc, np.full(sc.horizon, 1.4))
        base = simulate(sc.model, CarbonUnaware(sc.model), sc.environment)
        hot = simulate(sc.model, CarbonUnaware(sc.model), env)
        # Facility power strictly above the PUE=1 run whenever IT power > 0.
        mask = hot.it_power > 0
        assert np.all(
            hot.facility_power[mask] >= 1.4 * hot.it_power[mask] * (1 - 1e-12)
        )
        assert hot.total_brown > base.total_brown

    def test_pue_below_one_rejected(self, week_scenario):
        sc = week_scenario
        with pytest.raises(ValueError, match=">= 1"):
            self._env_with_pue(sc, np.full(sc.horizon, 0.8))

    def test_batch_sweep_pue_array_matches_scalar(self, tiny_model):
        rng = np.random.default_rng(3)
        n = 32
        lam = rng.uniform(0, 0.8, n) * tiny_model.fleet.capacity(tiny_model.gamma)
        onsite = np.zeros(n)
        price = rng.uniform(20, 60, n)
        scalar = batch_enumerate(tiny_model, lam, onsite, price, pue=1.3)
        array = batch_enumerate(
            tiny_model, lam, onsite, price, pue=np.full(n, 1.3)
        )
        np.testing.assert_allclose(scalar.objective, array.objective)
        np.testing.assert_allclose(scalar.brown_energy, array.brown_energy)

    def test_higher_pue_more_brown(self, tiny_model):
        rng = np.random.default_rng(4)
        n = 24
        lam = rng.uniform(0.2, 0.8, n) * tiny_model.fleet.capacity(tiny_model.gamma)
        onsite = np.zeros(n)
        price = np.full(n, 40.0)
        cool = batch_enumerate(tiny_model, lam, onsite, price, pue=1.1)
        hot = batch_enumerate(tiny_model, lam, onsite, price, pue=1.6)
        assert hot.total_brown > cool.total_brown

    def test_opt_respects_budget_under_pue_trace(self, week_scenario):
        sc = week_scenario
        # A hot-afternoon cooling cycle: PUE 1.1 at night, 1.4 mid-afternoon.
        hour = np.arange(sc.horizon) % 24
        pue = Trace(1.25 - 0.15 * np.cos(2.0 * np.pi * (hour - 3) / 24.0))
        env = Environment(
            workload=sc.environment.workload,
            portfolio=sc.environment.portfolio,
            price=sc.environment.price,
            pue=pue,
        )
        budget = 1.05 * sc.budget  # PUE overhead needs some slack
        opt = OfflineOptimal(sc.model, budget=budget, alpha=sc.alpha)
        record = simulate(sc.model, opt, env)
        assert record.total_brown <= budget * (1 + 1e-6)
