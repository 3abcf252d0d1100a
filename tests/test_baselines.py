"""Tests for the baseline policies: carbon-unaware, OPT, PerfectHP,
T-step lookahead, and the one dual replay they share."""

import math

import numpy as np
import pytest

import repro.baselines.dual as dual
from repro.baselines import (
    CarbonUnaware,
    DualReplay,
    OfflineOptimal,
    PerfectHP,
    calibrate_budget,
    lookahead_optima,
)
from repro.baselines.dual import bracket_root
from repro.baselines.perfect_hp import allocate_caps
from repro.core import COCA
from repro.sim import simulate


def _search(f, feasible, infeasible, **kw):
    """``bracket_root`` on ``f``; returns the end, its use and the calls."""
    calls = []

    def use(x):
        calls.append(x)
        return f(x)

    x, u = bracket_root(use, (feasible, f(feasible)), (infeasible, f(infeasible)), **kw)
    return x, u, calls


class TestBracketRoot:
    """The one root-finder behind OPT, P2 and the V calibration."""

    TOL, WIDTH = 1e-6, 1e-6

    @pytest.mark.parametrize("log", [False, True])
    def test_smooth_rising_stops_on_value(self, log):
        # use = x^2 / 4 rises through 1 at x = 2; feasible below.
        x, u, calls = _search(
            lambda x: x * x / 4, 0.5, 10.0, tol=self.TOL, width=self.WIDTH, log=log
        )
        assert 1 - self.TOL <= u <= 1 and x <= 2.0
        assert len(calls) < 16

    @pytest.mark.parametrize("log", [False, True])
    def test_smooth_falling_stops_on_value(self, log):
        # use = 4 / x^2 falls through 1 at x = 2; feasible above.
        x, u, calls = _search(
            lambda x: 4 / (x * x), 10.0, 0.5, tol=self.TOL, width=self.WIDTH, log=log
        )
        assert 1 - self.TOL <= u <= 1 and x >= 2.0
        assert len(calls) < 16

    @pytest.mark.parametrize("log", [False, True])
    def test_rising_staircase_stops_on_width(self, log):
        # Treads 0.1 apart, none within the tolerance of 1: the jump at
        # x = 5 takes use from 0.95 to 1.05, so only the width can stop it.
        f = lambda x: 0.55 + 0.1 * math.floor(x)  # noqa: E731
        x, u, calls = _search(f, 0.5, 40.0, tol=self.TOL, width=self.WIDTH, log=log)
        assert u == pytest.approx(0.95) and x < 5.0
        assert f(x * (1 + self.WIDTH)) > 1.0
        assert len(calls) < 30  # bisection alone needs about 23

    @pytest.mark.parametrize("log", [False, True])
    def test_falling_staircase_stops_on_width(self, log):
        # use from 1.05 to 0.95 at x = 6; feasible above.
        f = lambda x: 1.55 - 0.1 * math.floor(x)  # noqa: E731
        x, u, calls = _search(f, 12.5, 0.5, tol=self.TOL, width=self.WIDTH, log=log)
        assert u == pytest.approx(0.95) and x >= 6.0
        assert f(x * (1 - self.WIDTH)) > 1.0
        assert len(calls) < 30  # bisection alone needs about 23

    def test_ends_already_within_tolerance(self):
        x, u, calls = _search(lambda x: x, 0.99999, 2.0, tol=1e-4, width=1e-9)
        assert x == 0.99999 and not calls

    def test_not_a_bracket_rejected(self):
        with pytest.raises(ValueError, match="not a bracket"):
            _search(lambda x: x, 2.0, 3.0, tol=1e-6, width=1e-6)


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

    def test_multiplier_minimal_within_width(self, fortnight_scenario):
        """On the fortnight brown is a staircase with no step within the
        value tolerance, so the width stops the search: one width below the
        returned multiplier the sweep exceeds the budget."""
        sc = fortnight_scenario
        env = sc.environment
        budget = env.portfolio.carbon_budget
        frame = dual._frame_optimum(sc.model, env, budget, 0, slice(None))
        assert frame.mu > 0 and frame.total_brown <= budget
        assert frame.total_brown / budget < 1 - dual._MU_TOL
        brown, _ = dual.dual_sweep(
            sc.model,
            env.actual_workload.values,
            env.portfolio.onsite.values,
            env.price.values,
            q=frame.mu * (1 - dual._MU_WIDTH),
        )
        assert brown.sum() > budget

    def test_sweep_count_below_fixed_bisection(self, fortnight_scenario, monkeypatch):
        """The fixed 40-step bisection spent 42 sweeps on this frame, plain
        bisection to the width would spend 26 and plain Illinois 27; the
        root-finder, which bisects after a flat tread, spends 21."""
        sc = fortnight_scenario
        sweeps = []
        sweep = dual.dual_sweep
        monkeypatch.setattr(
            dual, "dual_sweep", lambda *a, **kw: sweeps.append(1) or sweep(*a, **kw)
        )
        OfflineOptimal(sc.model).start(sc.environment)
        assert len(sweeps) <= 25

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
