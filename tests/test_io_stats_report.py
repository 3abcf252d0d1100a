"""Tests for descriptive trace statistics and the report generator."""

import numpy as np
import pytest

from repro.analysis import (
    autocorrelation,
    scenario_report,
    summarize_trace,
)
from repro.traces import fiu_workload


class TestStats:
    def test_autocorrelation_lag0_is_one(self):
        rng = np.random.default_rng(3)
        acf = autocorrelation(rng.normal(size=500), max_lag=10)
        assert acf[0] == pytest.approx(1.0)
        assert np.all(np.abs(acf[1:]) < 0.2)

    def test_autocorrelation_periodic_signal(self):
        x = np.tile(np.sin(np.linspace(0, 2 * np.pi, 24, endpoint=False)), 30)
        acf = autocorrelation(x, max_lag=24)
        assert acf[24] == pytest.approx(1.0, abs=0.05)

    def test_autocorrelation_constant_series(self):
        acf = autocorrelation(np.full(50, 3.0), max_lag=5)
        assert acf[0] == 1.0
        assert np.all(acf[1:] == 0.0)

    def test_summary_fields(self):
        trace = fiu_workload(24 * 30, peak=100.0, seed=4)
        s = summarize_trace(trace)
        assert s.peak == pytest.approx(100.0)
        assert 0 < s.lag1_autocorr <= 1.0
        assert s.peak_to_mean > 1.0
        row = s.as_row()
        assert row["trace"] == trace.name


class TestScenarioReport:
    def test_report_contains_sections(self, week_scenario):
        text = scenario_report(week_scenario, v=0.02, include_opt=False)
        for heading in [
            "# COCA scenario report",
            "## Scenario",
            "## Input traces",
            "## Controllers",
            "## Carbon-deficit queue",
        ]:
            assert heading in text
        assert "carbon-unaware" in text
        assert "COCA" in text

    def test_report_with_opt(self, week_scenario):
        text = scenario_report(week_scenario, v=0.02, include_opt=True)
        assert "OPT (offline)" in text
