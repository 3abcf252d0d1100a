"""Tests for the baseline policies: carbon-unaware, OPT, PerfectHP,
T-step lookahead, and the one dual replay they share."""

import numpy as np
import pytest

from repro.baselines import (
    CarbonUnaware,
    DualReplay,
    OfflineOptimal,
    PerfectHP,
    calibrate_budget,
    lookahead_optima,
)
from repro.baselines.perfect_hp import allocate_caps
from repro.core import COCA
from repro.sim import simulate


class TestCarbonUnaware:
    def test_minimizes_per_slot_cost(self, week_scenario):
        """No other controller can beat carbon-unaware on average cost
        (it per-slot-minimizes g with no coupling constraint)."""
        sc = week_scenario
        unaware = simulate(sc.model, CarbonUnaware(sc.model), sc.environment)
        coca = COCA(sc.model, sc.environment.portfolio, v_schedule=0.01)
        coca_rec = simulate(sc.model, coca, sc.environment)
        assert unaware.average_cost <= coca_rec.average_cost + 1e-9

    def test_calibrate_budget_matches_simulation(self, week_scenario):
        sc = week_scenario
        budget = calibrate_budget(sc.model, sc.environment)
        record = simulate(sc.model, CarbonUnaware(sc.model), sc.environment)
        assert budget == pytest.approx(record.total_brown, rel=1e-9)

    def test_scenario_unaware_brown_consistent(self, week_scenario):
        sc = week_scenario
        assert calibrate_budget(sc.model, sc.environment) == pytest.approx(
            sc.unaware_brown, rel=1e-9
        )


class TestOfflineOptimal:
    def test_meets_budget(self, fortnight_scenario):
        sc = fortnight_scenario
        opt = OfflineOptimal(sc.model, budget=sc.budget)
        record = simulate(sc.model, opt, sc.environment)
        assert record.total_brown <= sc.budget * (1 + 1e-6)

    def test_zero_multiplier_when_budget_slack(self, fortnight_scenario):
        sc = fortnight_scenario
        opt = OfflineOptimal(sc.model, budget=sc.unaware_brown * 2)
        opt.start(sc.environment)
        assert opt.mu == 0.0
        assert opt.frame.total_brown == pytest.approx(sc.unaware_brown, rel=1e-9)

    def test_beats_coca_on_cost(self, fortnight_scenario):
        """OPT has full information: for the same budget its cost is a
        lower benchmark for neutral COCA runs."""
        sc = fortnight_scenario
        opt = OfflineOptimal(sc.model, budget=sc.budget)
        opt_rec = simulate(sc.model, opt, sc.environment)
        coca = COCA(sc.model, sc.environment.portfolio, v_schedule=0.01)
        coca_rec = simulate(sc.model, coca, sc.environment)
        if coca_rec.total_brown <= sc.budget:
            # Allow the tiny duality gap of the discrete dual policy.
            assert opt_rec.average_cost <= coca_rec.average_cost * 1.01

    def test_lower_bound_below_policy_cost(self, fortnight_scenario):
        sc = fortnight_scenario
        opt = OfflineOptimal(sc.model, budget=sc.budget)
        opt.start(sc.environment)
        assert opt.mu > 0.0
        assert opt.frame.lower_bound <= opt.frame.average_cost + 1e-9

    def test_requires_start(self, fortnight_scenario):
        sc = fortnight_scenario
        opt = OfflineOptimal(sc.model, budget=sc.budget)
        with pytest.raises(RuntimeError):
            opt.decide(sc.environment.observation(0))

    def test_negative_budget_rejected(self, fortnight_scenario):
        sc = fortnight_scenario
        with pytest.raises(ValueError):
            OfflineOptimal(sc.model, budget=-1.0).start(sc.environment)

    def test_unreachable_budget_rejected(self, week_scenario):
        sc = week_scenario
        opt = OfflineOptimal(sc.model, budget=0.0)
        with pytest.raises(ValueError, match="cannot meet the budget"):
            opt.start(sc.environment)


class TestPerfectHP:
    def test_cap_allocation_proportional_within_window(self):
        predicted = np.concatenate([np.full(48, 1.0), np.full(48, 3.0)])
        caps = allocate_caps(predicted, budget=96.0, window=48)
        # Even split across windows: 48 each; uniform within each window.
        np.testing.assert_allclose(caps[:48], 1.0)
        np.testing.assert_allclose(caps[48:], 1.0)
        # Proportional within a mixed window:
        mixed = np.concatenate([np.full(24, 1.0), np.full(24, 3.0)])
        caps2 = allocate_caps(mixed, budget=48.0, window=48)
        assert caps2[30] == pytest.approx(3 * caps2[0])

    def test_caps_sum_to_budget(self):
        rng = np.random.default_rng(0)
        predicted = rng.uniform(0.1, 2.0, 200)
        caps = allocate_caps(predicted, budget=77.0, window=48)
        assert caps.sum() == pytest.approx(77.0)

    def test_idle_window_uniform(self):
        caps = allocate_caps(np.zeros(48), budget=48.0, window=48)
        np.testing.assert_allclose(caps, 1.0)

    def test_respects_caps_except_fallback(self, fortnight_scenario):
        sc = fortnight_scenario
        hp = PerfectHP(sc.model, alpha=sc.alpha)
        record = simulate(sc.model, hp, sc.environment)
        ok = record.brown_energy <= hp.caps * (1 + 1e-6) + 1e-9
        violations = ~ok
        # Any violation must be a declared fallback hour.
        assert np.all(hp.fallback[violations])

    def test_costlier_than_coca_or_worse_deficit(self, fortnight_scenario):
        """The paper's Fig. 3 claim, weakly: COCA does at least as well on
        cost while keeping the deficit no worse."""
        sc = fortnight_scenario
        hp_rec = simulate(sc.model, PerfectHP(sc.model, alpha=sc.alpha), sc.environment)
        coca = COCA(sc.model, sc.environment.portfolio, v_schedule=0.005)
        coca_rec = simulate(sc.model, coca, sc.environment)
        pf = sc.environment.portfolio
        assert (
            coca_rec.average_cost <= hp_rec.average_cost * 1.02
            or coca_rec.average_deficit(pf) <= hp_rec.average_deficit(pf)
        )

    def test_requires_start(self, fortnight_scenario):
        sc = fortnight_scenario
        hp = PerfectHP(sc.model)
        with pytest.raises(RuntimeError):
            hp.decide(sc.environment.observation(0))


class TestLookahead:
    def test_frames_meet_their_budgets(self, fortnight_scenario):
        sc = fortnight_scenario
        frames = lookahead_optima(sc.model, sc.environment, T=24 * 7)
        assert len(frames) == 2
        for fr in frames:
            assert fr.feasible
            assert fr.lower_bound <= fr.average_cost + 1e-9

    def test_infeasible_frames_reported_not_raised(self, fortnight_scenario):
        """Daily frames can violate the paper's feasibility assumption
        (a high-load, low-renewable day); they must degrade gracefully."""
        sc = fortnight_scenario
        frames = lookahead_optima(sc.model, sc.environment, T=24)
        assert len(frames) == 14
        assert all(np.isfinite(f.average_cost) for f in frames)

    def test_indivisible_horizon_rejected(self, fortnight_scenario):
        sc = fortnight_scenario
        with pytest.raises(ValueError, match="divide"):
            lookahead_optima(sc.model, sc.environment, T=100)

    def test_longer_frames_cheaper(self, fortnight_scenario):
        """More lookahead (larger T) can only help the oracle on average
        (budget pooling), modulo the tiny dual gap."""
        sc = fortnight_scenario
        short = lookahead_optima(sc.model, sc.environment, T=24)
        full = lookahead_optima(sc.model, sc.environment, T=sc.horizon)
        avg_short = np.mean([f.average_cost for f in short])
        avg_full = np.mean([f.average_cost for f in full])
        assert avg_full <= avg_short * 1.02

    def test_controller_form_runs(self, week_scenario):
        """P2's frames replay through the one dual controller."""
        sc = week_scenario
        frames = lookahead_optima(sc.model, sc.environment, T=24, alpha=sc.alpha)
        ctrl = DualReplay(sc.model, np.repeat([f.mu for f in frames], 24))
        record = simulate(sc.model, ctrl, sc.environment)
        assert record.horizon == sc.horizon
        assert np.isfinite(record.average_cost)

    def test_controller_requires_start(self, week_scenario):
        ctrl = DualReplay(week_scenario.model)
        with pytest.raises(RuntimeError):
            ctrl.decide(week_scenario.environment.observation(0))
