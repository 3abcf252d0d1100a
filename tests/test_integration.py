"""Integration tests: the paper's headline claims end-to-end on the small
scenario (two weeks, a few hundred servers -- same structure, laptop speed)."""

import numpy as np
import pytest

from repro.analysis import (
    budget_sweep,
    compare_with_perfecthp,
    find_neutral_v,
    run_coca,
    sweep_constant_v,
)
from repro.baselines import (
    CarbonUnaware,
    OfflineOptimal,
    PerfectHP,
    lookahead_optima,
)
from repro.core import COCA, quarterly
from repro.core.bounds import cost_bound, deficit_bound, lyapunov_constants
from repro.sim import simulate


class TestHeadlineClaims:
    """Each test maps to a claim in the paper's abstract / section 5."""

    def test_close_to_minimum_cost_while_neutral(self, fortnight_scenario):
        """'COCA achieves a close-to-minimum cost while still satisfying
        carbon neutrality' -- within ~10% of the unaware minimum at the
        default 92% budget."""
        sc = fortnight_scenario
        v = find_neutral_v(sc)
        record, _ = run_coca(sc, v)
        assert record.ledger(sc.environment.portfolio, sc.alpha).is_neutral()
        unaware = simulate(sc.model, CarbonUnaware(sc.model), sc.environment)
        assert record.average_cost <= 1.10 * unaware.average_cost

    def test_beats_perfecthp_on_both_axes(self, fortnight_scenario):
        """'COCA reduces cost ... while more accurately satisfying the
        desired carbon neutrality' -- at a neutral V, COCA must be cheaper
        or greener than PerfectHP, and not worse on both."""
        sc = fortnight_scenario
        v = find_neutral_v(sc)
        cmp = compare_with_perfecthp(sc, v)
        pf = sc.environment.portfolio
        coca, hp = cmp["coca"], cmp["perfecthp"]
        # COCA at its neutral V must be at least as cheap while neutral;
        # PerfectHP either costs more (its caps bind clumsily) or deviates
        # from the target budget more in magnitude.
        assert coca.ledger(pf, sc.alpha).is_neutral()
        assert coca.average_cost <= hp.average_cost * 1.001

    def test_v_tradeoff_shape(self, fortnight_scenario):
        """Fig. 2: cost monotone down in V, deficit monotone up, with the
        carbon-unaware asymptote at large V."""
        sc = fortnight_scenario
        rows = sweep_constant_v(sc, [1e-3, 1e-2, 1e-1, 1e2])
        costs = [r["avg_cost"] for r in rows]
        deficits = [r["avg_deficit"] for r in rows]
        assert costs == sorted(costs, reverse=True)
        assert deficits == sorted(deficits)
        unaware = simulate(sc.model, CarbonUnaware(sc.model), sc.environment)
        assert rows[-1]["avg_cost"] == pytest.approx(unaware.average_cost, rel=0.01)

    def test_close_to_opt(self, fortnight_scenario):
        """Fig. 5(a): 'COCA works remarkably well even compared to OPT'."""
        sc = fortnight_scenario
        v = find_neutral_v(sc)
        coca_rec, _ = run_coca(sc, v)
        opt = OfflineOptimal(sc.model, budget=sc.budget)
        opt_rec = simulate(sc.model, opt, sc.environment)
        assert coca_rec.average_cost <= 1.15 * opt_rec.average_cost

    def test_budget_sweep_shape(self, fortnight_scenario):
        """Tighter budgets cost more; all COCA points stay neutral; the
        unaware baseline violates the tight budgets."""
        rows = budget_sweep(fortnight_scenario, [0.85, 0.95], include_opt=True)
        assert rows[0]["coca_cost"] >= rows[1]["coca_cost"] - 1e-9
        assert all(r["coca_neutral"] for r in rows)
        assert not any(r["unaware_neutral"] for r in rows)
        # OPT <= COCA (up to dual-gap noise) at each budget.
        for r in rows:
            assert r["opt_cost"] <= r["coca_cost"] * 1.02


class TestTheorem2:
    def test_cost_bound_holds(self, fortnight_scenario):
        """COCA's measured average cost respects Theorem 2(b) against the
        T-step lookahead optimum."""
        sc = fortnight_scenario
        T = sc.horizon  # single frame
        frames = lookahead_optima(sc.model, sc.environment, T=T)
        g_star = np.array([f.average_cost for f in frames])
        for v in [0.01, 1.0]:
            record, _ = run_coca(sc, v)
            bound = cost_bound(
                lyapunov_constants(sc.model, sc.environment.portfolio),
                g_star,
                np.array([v]),
                T=T,
            )
            assert record.average_cost <= bound + 1e-6

    def test_deficit_bound_holds(self, fortnight_scenario):
        """Measured average brown energy respects Theorem 2(a)."""
        sc = fortnight_scenario
        T = sc.horizon
        frames = lookahead_optima(sc.model, sc.environment, T=T)
        g_star = np.array([f.average_cost for f in frames])
        consts = lyapunov_constants(sc.model, sc.environment.portfolio)
        for v in [0.01, 1.0]:
            record, _ = run_coca(sc, v)
            bound = deficit_bound(
                consts, sc.environment.portfolio, g_star, np.array([v]), T=T
            )
            assert record.brown_energy.mean() <= bound + 1e-9

    def test_multi_frame_bounds(self, fortnight_scenario):
        """Same with two one-week frames and differing V_r."""
        sc = fortnight_scenario
        T = sc.horizon // 2
        frames = lookahead_optima(sc.model, sc.environment, T=T)
        g_star = np.array([f.average_cost for f in frames])
        consts = lyapunov_constants(sc.model, sc.environment.portfolio)
        vs = np.array([0.01, 1.0])
        record, _ = run_coca(
            sc,
            __import__("repro.core", fromlist=["FrameV"]).FrameV(tuple(vs)),
        )
        # run with frame resets
        from repro.core import FrameV

        controller = COCA(
            sc.model,
            sc.environment.portfolio,
            v_schedule=FrameV(tuple(vs)),
            frame_length=T,
            alpha=sc.alpha,
        )
        record = simulate(sc.model, controller, sc.environment)
        assert record.average_cost <= cost_bound(consts, g_star, vs, T=T) + 1e-6
        assert record.brown_energy.mean() <= deficit_bound(
            consts, sc.environment.portfolio, g_star, vs, T=T
        )


class TestVaryingV:
    def test_quarterly_schedule_controls_tradeoff(self, fortnight_scenario):
        """Fig. 2(c,d): a small-then-large V schedule spends less early and
        relaxes later."""
        sc = fortnight_scenario
        T = sc.horizon // 4
        controller = COCA(
            sc.model,
            sc.environment.portfolio,
            v_schedule=quarterly([1e-3, 1e-3, 10.0, 10.0]),
            frame_length=T,
            alpha=sc.alpha,
        )
        record = simulate(sc.model, controller, sc.environment)
        first_half = record.cost[: 2 * T].mean()
        second_half = record.cost[2 * T :].mean()
        # Larger V later -> cheaper operation later (workload differences
        # aside, the schedule's effect dominates at these extremes).
        brown_first = record.brown_energy[: 2 * T].mean()
        brown_second = record.brown_energy[2 * T :].mean()
        assert brown_second > brown_first * 0.9
        assert len(np.unique(record.v_applied)) == 2


class TestRobustness:
    def test_overestimation_keeps_service(self, fortnight_scenario):
        """phi = 1.2 must never drop load (it only overprovisions)."""
        from repro.traces import overestimate

        sc = fortnight_scenario
        env = sc.environment.with_workload(
            overestimate(sc.environment.actual_workload, 1.2)
        )
        controller = COCA(sc.model, env.portfolio, v_schedule=0.01, alpha=sc.alpha)
        record = simulate(sc.model, controller, env)
        assert record.dropped.sum() == 0.0

    def test_switching_costs_bounded_impact(self, fortnight_scenario):
        """Fig. 5(d) direction: 10% switching cost changes total cost by a
        bounded amount (paper: <5%; allow slack at small scale)."""
        sc = fortnight_scenario
        v = find_neutral_v(sc)
        base, _ = run_coca(sc, v)
        sw, _ = run_coca(sc.with_switching(0.10), v)
        assert sw.average_cost <= base.average_cost * 1.10
