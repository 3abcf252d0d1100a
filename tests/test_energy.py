"""Tests for renewables, RECs, and the carbon ledger (section 2.2, Eq. (10))."""

import numpy as np
import pytest

from repro.energy import CarbonLedger, RenewablePortfolio, onsite_mix
from repro.traces import Trace


def make_portfolio(horizon=100, onsite=1.0, offsite=2.0, recs=50.0):
    return RenewablePortfolio(
        onsite=Trace(np.full(horizon, onsite)),
        offsite=Trace(np.full(horizon, offsite)),
        recs=recs,
    )


class TestPortfolio:
    def test_carbon_budget(self):
        pf = make_portfolio(horizon=10, offsite=2.0, recs=30.0)
        assert pf.carbon_budget == pytest.approx(50.0)
        assert pf.offsite_fraction == pytest.approx(0.4)

    def test_horizon_mismatch_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            RenewablePortfolio(
                onsite=Trace(np.ones(5)), offsite=Trace(np.ones(6)), recs=0.0
            )

    def test_negative_supply_rejected(self):
        with pytest.raises(ValueError):
            RenewablePortfolio(
                onsite=Trace(np.array([-1.0, 0.0])),
                offsite=Trace(np.zeros(2)),
                recs=0.0,
            )

    def test_budget_split_preserves_total(self):
        pf = make_portfolio().with_budget_split(100.0, 0.3)
        assert pf.carbon_budget == pytest.approx(100.0)
        assert pf.offsite.total == pytest.approx(30.0)
        assert pf.recs == pytest.approx(70.0)

    def test_budget_split_preserves_shape(self):
        pf = make_portfolio(horizon=4)
        shaped = RenewablePortfolio(
            onsite=pf.onsite,
            offsite=Trace(np.array([1.0, 2.0, 3.0, 4.0])),
            recs=0.0,
        ).with_budget_split(20.0, 0.5)
        np.testing.assert_allclose(shaped.offsite.values, [1.0, 2.0, 3.0, 4.0])

    def test_energy_capping_mode(self):
        """Section 2.2 remark: drop renewables, Z becomes the energy cap."""
        pf = RenewablePortfolio.energy_capping(10, cap=123.0)
        assert pf.onsite.total == 0.0
        assert pf.offsite.total == 0.0
        assert pf.carbon_budget == 123.0

    def test_onsite_mix_unit_total(self):
        mix = onsite_mix(24 * 30, solar_fraction=0.5, seed=3)
        assert mix.total == pytest.approx(1.0)
        assert mix.values.min() >= 0

    def test_onsite_mix_fraction_validated(self):
        with pytest.raises(ValueError):
            onsite_mix(100, solar_fraction=1.5)

    def test_windless_horizon_keeps_solar_share(self):
        """Regression: seed 221's first 24-hour wind draw is all zero, and
        rescaling it to a unit total used to raise.  The solar component
        now carries the unit total alone."""
        from repro.traces.solar import solar_trace

        mix = onsite_mix(24, solar_fraction=0.6, rng=np.random.default_rng(221))
        solar = solar_trace(24, rng=np.random.default_rng(221))
        assert mix.total == pytest.approx(1.0)
        np.testing.assert_allclose(mix.values, solar.scale_to_total(1.0).values)

    def test_windless_day_builds_a_paper_scenario(self):
        """``repro run --horizon 24`` on seed 219 (windless on-site mix) and
        seed 22 (windless off-site mix) used to fail at scenario build; the
        scenario builder draws its renewables from ``seed + 2``."""
        from repro.scenarios import small_scenario

        for seed in (219, 22):
            pf = small_scenario(horizon=24, seed=seed).environment.portfolio
            assert pf.onsite.total > 0.0 and pf.offsite.total > 0.0

    def test_all_zero_supply_still_raises(self, monkeypatch):
        import repro.energy.renewables as ren
        from repro.traces.base import Trace

        def dark(horizon, rng=None):
            return Trace(np.zeros(horizon), name="dark", unit="MW")

        monkeypatch.setattr(ren, "solar_trace", dark)
        monkeypatch.setattr(ren, "wind_trace", dark)
        with pytest.raises(ValueError, match="both zero"):
            onsite_mix(24)


class TestCarbonLedger:
    def test_neutral_run(self):
        pf = make_portfolio(horizon=10, offsite=2.0, recs=10.0)  # 3/slot budget
        ledger = CarbonLedger(portfolio=pf)
        for _ in range(10):
            ledger.record(2.5)
        assert ledger.is_neutral()
        assert ledger.deficit == pytest.approx(-5.0)
        assert ledger.surplus() == pytest.approx(5.0)
        assert ledger.required_trueup() == 0.0

    def test_violating_run(self):
        pf = make_portfolio(horizon=10, offsite=1.0, recs=0.0)
        ledger = CarbonLedger(portfolio=pf)
        for _ in range(10):
            ledger.record(2.0)
        assert not ledger.is_neutral()
        assert ledger.deficit == pytest.approx(10.0)
        assert ledger.required_trueup() == pytest.approx(10.0)

    def test_alpha_scales_budget(self):
        """Eq. (10): alpha < 1 demands using less than the full budget."""
        pf = make_portfolio(horizon=10, offsite=2.0, recs=10.0)
        ledger = CarbonLedger(portfolio=pf, alpha=0.5)
        for _ in range(10):
            ledger.record(2.0)
        assert not ledger.is_neutral()  # budget halved to 1.5/slot
        assert ledger.deficit == pytest.approx(20.0 - 15.0)

    def test_cannot_overfill(self):
        pf = make_portfolio(horizon=2)
        ledger = CarbonLedger(portfolio=pf)
        ledger.record(1.0)
        ledger.record(1.0)
        with pytest.raises(ValueError, match="full budgeting period"):
            ledger.record(1.0)

    def test_negative_brown_rejected(self):
        ledger = CarbonLedger(portfolio=make_portfolio())
        with pytest.raises(ValueError):
            ledger.record(-0.1)

    def test_partial_period_prorates_recs(self):
        pf = make_portfolio(horizon=10, offsite=0.0, recs=100.0)
        ledger = CarbonLedger(portfolio=pf)
        for _ in range(5):
            ledger.record(8.0)
        # Budget through 5 slots = 5 * (100/10) = 50; brown = 40.
        assert ledger.budget_through() == pytest.approx(50.0)
        assert ledger.is_neutral()
