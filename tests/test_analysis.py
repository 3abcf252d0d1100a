"""Tests for the analysis helpers: sweeps, comparisons, tables."""

import numpy as np
import pytest

from repro.analysis import (
    compare_records,
    compare_with_perfecthp,
    cost_saving,
    find_neutral_v,
    format_value,
    overestimation_sweep,
    portfolio_sweep,
    render_table,
    run_coca,
    run_varying_v,
    sweep_constant_v,
    switching_sweep,
    time_bucket_rows,
)
from repro.baselines import CarbonUnaware
from repro.sim import simulate
from repro.telemetry import Telemetry


class TestTables:
    def test_render_basic(self):
        rows = [{"a": 1.0, "b": True}, {"a": 2.5, "b": False}]
        out = render_table(rows, title="T")
        assert "T" in out and "a" in out and "yes" in out and "no" in out

    def test_column_order_respected(self):
        rows = [{"x": 1, "y": 2}]
        out = render_table(rows, columns=["y", "x"])
        assert out.index("y") < out.index("x")

    def test_missing_keys_blank(self):
        out = render_table([{"a": 1}, {"b": 2}])
        assert "a" in out and "b" in out

    def test_empty(self):
        assert "(empty)" in render_table([])

    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(0.0) == "0"
        assert format_value(1234567.0) == "1.235e+06"
        assert format_value("s") == "s"


class TestSweeps:
    def test_constant_v_rows_monotone(self, fortnight_scenario):
        rows = sweep_constant_v(fortnight_scenario, [0.001, 0.05, 10.0])
        costs = [r["avg_cost"] for r in rows]
        deficits = [r["avg_deficit"] for r in rows]
        assert costs == sorted(costs, reverse=True)
        assert deficits == sorted(deficits)

    def test_find_neutral_v(self, fortnight_scenario):
        sc = fortnight_scenario
        v = find_neutral_v(sc)
        record, _ = run_coca(sc, v)
        assert record.ledger(sc.environment.portfolio, sc.alpha).is_neutral()
        # Not absurdly conservative: a much larger V should violate.
        record_hi, _ = run_coca(sc, v * 20)
        assert not record_hi.ledger(sc.environment.portfolio, sc.alpha).is_neutral()

    def test_find_neutral_v_stop_rule(self, fortnight_scenario):
        """The returned V is neutral, and either uses the budget to within
        the value tolerance or sits within the width of a V that is not."""
        from repro.analysis import sweep

        sc = fortnight_scenario
        portfolio = sc.environment.portfolio
        v = find_neutral_v(sc)
        ledger = run_coca(sc, v)[0].ledger(portfolio, sc.alpha)
        use = ledger.total_brown / ledger.budget_through()
        assert use <= 1.0
        if use < 1 - sweep._V_TOL:
            above = run_coca(sc, v * (1 + sweep._V_WIDTH))[0]
            assert not above.ledger(portfolio, sc.alpha).is_neutral()

    def test_neutral_run_reports_infeasible_budget(self, week_scenario):
        """A budget no V can meet is reported with the lowest V's run."""
        from repro.analysis import sweep

        sc = week_scenario.with_budget_fraction(0.05)
        with pytest.raises(ValueError, match="violates neutrality"):
            find_neutral_v(sc)
        record, v = sweep._neutral_run(sc, sc.environment, None)
        assert v == sweep._V_LO
        assert not record.ledger(sc.environment.portfolio, sc.alpha).is_neutral()

    def test_neutral_run_traces_only_the_kept_run(self, week_scenario):
        """The trial at the given V reaches the trace only when it is kept:
        phi 1.2 re-tunes V, and its rejected trial leaves no run behind."""
        tele = Telemetry.recording()
        rows = overestimation_sweep(week_scenario, [1.0, 1.2], v=0.0262, telemetry=tele)
        assert rows[0]["v_used"] == 0.0262 and rows[1]["v_used"] != 0.0262
        assert sum(e["kind"] == "run.start" for e in tele.events) == 2

    def test_varying_v_runs(self, fortnight_scenario):
        record, controller = run_varying_v(
            fortnight_scenario, [0.001, 1.0], frame_length=24 * 7
        )
        assert record.v_applied[0] == 0.001
        assert record.v_applied[-1] == 1.0

    def test_perfecthp_comparison_keys(self, week_scenario):
        out = compare_with_perfecthp(week_scenario, 0.01)
        assert set(out) >= {"coca", "perfecthp", "cost_saving"}

    def test_overestimation_sweep_baseline_zero(self, week_scenario):
        rows = overestimation_sweep(week_scenario, [1.0, 1.2], v=0.01)
        assert rows[0]["cost_increase"] == 0.0
        assert rows[1]["phi"] == 1.2
        assert all(r["dropped"] == 0.0 for r in rows)

    def test_switching_sweep_monotone_energy(self, week_scenario):
        rows = switching_sweep(week_scenario, [0.0, 0.10], v=0.01)
        assert rows[0]["switching_energy"] == 0.0
        assert rows[1]["switching_energy"] >= 0.0

    def test_portfolio_sweep_small_change(self, fortnight_scenario):
        rows = portfolio_sweep(fortnight_scenario, [0.2, 0.4, 0.6], v=0.005)
        assert rows[0]["cost_change"] == 0.0
        # Paper: <1% change across splits; allow some slack at small scale.
        assert all(abs(r["cost_change"]) < 0.05 for r in rows)


class TestComparisons:
    def test_compare_records(self, week_scenario):
        sc = week_scenario
        a = simulate(sc.model, CarbonUnaware(sc.model), sc.environment)
        rows = compare_records([a], sc.environment.portfolio)
        assert rows[0]["cost_vs_base"] == 1.0

    def test_compare_missing_baseline(self, week_scenario):
        sc = week_scenario
        a = simulate(sc.model, CarbonUnaware(sc.model), sc.environment)
        with pytest.raises(ValueError):
            compare_records([a], sc.environment.portfolio, baseline="nope")

    def test_cost_saving_sign(self, week_scenario):
        sc = week_scenario
        a = simulate(sc.model, CarbonUnaware(sc.model), sc.environment)
        assert cost_saving(a, a) == 0.0

    def test_time_bucket_rows(self, week_scenario):
        sc = week_scenario
        a = simulate(sc.model, CarbonUnaware(sc.model), sc.environment)
        rows = time_bucket_rows([a], sc.environment.portfolio, buckets=5)
        assert len(rows) == 5
        assert "carbon-unaware cost" in rows[0]
        rows_m = time_bucket_rows(
            [a], sc.environment.portfolio, buckets=3, kind="moving"
        )
        assert len(rows_m) == 3
        with pytest.raises(ValueError):
            time_bucket_rows([a], sc.environment.portfolio, kind="bogus")
