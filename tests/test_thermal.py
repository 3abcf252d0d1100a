"""Tests for the per-slot time-varying PUE override (footnote 1's cooling
overhead "(time-varying) PUE factor")."""

import numpy as np
import pytest

from repro.baselines import (
    CarbonUnaware,
    DualReplay,
    OfflineOptimal,
    dual_sweep,
    lookahead_optima,
)
from repro.core.controller import SlotObservation
from repro.scenarios import small_scenario
from repro.sim import Environment, simulate
from repro.solvers.batch import batch_enumerate
from repro.traces import Trace


def _cooling_cycle(scenario) -> Environment:
    """The scenario under a hot-afternoon cooling cycle: PUE 1.1 at night,
    1.4 mid-afternoon."""
    hour = np.arange(scenario.horizon) % 24
    return Environment(
        workload=scenario.environment.workload,
        portfolio=scenario.environment.portfolio,
        price=scenario.environment.price,
        pue=Trace(1.25 - 0.15 * np.cos(2.0 * np.pi * (hour - 3) / 24.0)),
    )


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
        env = _cooling_cycle(sc)
        budget = 1.05 * sc.budget  # PUE overhead needs some slack
        opt = OfflineOptimal(sc.model, budget=budget)
        record = simulate(sc.model, opt, env)
        assert record.total_brown <= budget * (1 + 1e-6)


class TestDualSweepPricesPUE:
    """The dual sweeps solve the slot problem the replay prices, PUE included."""

    def test_frame_replays_meet_their_budgets(self):
        sc = small_scenario(horizon=168, seed=3)
        env = _cooling_cycle(sc)
        for T in (24, 56, 84, 168):
            frames = lookahead_optima(sc.model, env, T)
            replay = DualReplay(sc.model, np.repeat([f.mu for f in frames], T))
            used = simulate(sc.model, replay, env).brown_energy.reshape(-1, T).sum(axis=1)
            for frame, brown in zip(frames, used):
                if frame.feasible:
                    assert brown <= frame.budget * (1 + 1e-6), (T, frame)
        # The week as one frame meets its budget; it is P1, so OPT agrees.
        (week,) = frames
        assert week.feasible
        opt = OfflineOptimal(sc.model, budget=week.budget)
        opt.start(env)
        assert opt.frame == week

    def test_per_slot_sweep_matches_replay_slot(self, hetero_model):
        rng = np.random.default_rng(5)
        n = 6
        lam = rng.uniform(0.2, 0.8, n) * hetero_model.fleet.capacity(hetero_model.gamma)
        onsite = np.zeros(n)
        price = rng.uniform(20, 60, n)
        pue = rng.uniform(1.1, 1.5, n)
        brown, cost = dual_sweep(hetero_model, lam, onsite, price, q=0.0, pue=pue)
        for t in range(n):
            # A fresh controller: no previous on-set, so no switching charge.
            solution = CarbonUnaware(hetero_model).decide(
                SlotObservation(t, lam[t], onsite[t], price[t], pue=pue[t])
            )
            assert brown[t] == solution.evaluation.brown_energy
            assert cost[t] == solution.evaluation.cost
