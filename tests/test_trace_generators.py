"""Tests for the synthetic workload/renewable/price generators."""

import zlib

import numpy as np
import pytest

from repro.energy import onsite_mix
from repro.traces import (
    HOURS_PER_DAY,
    HOURS_PER_WEEK,
    HOURS_PER_YEAR,
    fiu_workload,
    msr_week,
    msr_workload,
    price_trace,
    solar_trace,
    wind_trace,
)


class TestFIUWorkload:
    def test_reproducible(self):
        a = fiu_workload(24 * 30, seed=7)
        b = fiu_workload(24 * 30, seed=7)
        np.testing.assert_array_equal(a.values, b.values)

    def test_seed_changes_trace(self):
        a = fiu_workload(24 * 30, seed=7)
        b = fiu_workload(24 * 30, seed=8)
        assert not np.array_equal(a.values, b.values)

    def test_peak_scaling(self):
        trace = fiu_workload(24 * 60, peak=5e5)
        assert trace.peak == pytest.approx(5e5)
        assert trace.values.min() >= 0

    def test_diurnal_structure(self):
        """Afternoon hours should carry more load than pre-dawn hours."""
        trace = fiu_workload(HOURS_PER_YEAR, seed=1)
        profile = trace.daily_profile()
        assert profile[13:16].mean() > 2.0 * profile[2:5].mean()

    def test_weekend_dip(self):
        trace = fiu_workload(HOURS_PER_YEAR, seed=1)
        daily = trace.values[: 364 * 24].reshape(-1, 24).mean(axis=1)
        dow = np.arange(daily.size) % 7
        weekday = daily[dow < 5].mean()
        weekend = daily[dow >= 5].mean()
        assert weekend < weekday

    def test_late_july_surge(self):
        """The paper's Fig. 1(a) feature: late-July peak over June."""
        trace = fiu_workload(HOURS_PER_YEAR, seed=1)
        daily = trace.values[: 364 * 24].reshape(-1, 24).mean(axis=1)
        late_july = daily[198:214].mean()  # ~Jul 18 - Aug 2
        june = daily[152:175].mean()
        assert late_july > 1.2 * june

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            fiu_workload(0)


class TestMSRWorkload:
    def test_week_length_and_normalization(self):
        week = msr_week()
        assert len(week) == HOURS_PER_WEEK
        assert week.peak == pytest.approx(1.0)

    def test_year_is_noisy_repetition(self):
        year = msr_workload(HOURS_PER_YEAR, seed=3, peak=1.0)
        assert len(year) == HOURS_PER_YEAR
        assert year.peak == pytest.approx(1.0)
        # Consecutive weeks correlate strongly (same base pattern) but are
        # not identical (noise).
        w0 = year.values[:HOURS_PER_WEEK]
        w1 = year.values[HOURS_PER_WEEK : 2 * HOURS_PER_WEEK]
        assert not np.array_equal(w0, w1)
        assert np.corrcoef(w0, w1)[0, 1] > 0.5

    def test_weekend_quieter(self):
        week = msr_week(seed=5)
        by_day = week.values.reshape(7, 24).mean(axis=1)
        # Days 2-3 of the window are the weekend in the generator.
        assert by_day[[2, 3]].mean() < by_day[[0, 1, 4, 5, 6]].mean()

    def test_burstier_than_fiu(self):
        """Coefficient of variation of MSR should exceed FIU's (different
        trace shape is the point of Fig. 5(b))."""
        fiu = fiu_workload(HOURS_PER_YEAR, seed=1, peak=1.0)
        msr = msr_workload(HOURS_PER_YEAR, seed=1, peak=1.0)
        cv = lambda x: x.values.std() / x.values.mean()
        assert cv(msr) > cv(fiu)


class TestSolar:
    def test_zero_at_night(self):
        trace = solar_trace(24 * 30, seed=2)
        night = trace.values.reshape(-1, 24)[:, [0, 1, 2, 23]]
        assert np.all(night == 0.0)

    def test_positive_at_noon(self):
        trace = solar_trace(24 * 30, seed=2)
        noon = trace.values.reshape(-1, 24)[:, 12]
        assert np.all(noon >= 0.0)
        assert noon.mean() > 0.1

    def test_summer_beats_winter(self):
        trace = solar_trace(HOURS_PER_YEAR, seed=2)
        daily = trace.values[: 364 * 24].reshape(-1, 24).sum(axis=1)
        summer = daily[152:244].mean()
        winter = np.concatenate([daily[:60], daily[334:]]).mean()
        assert summer > winter

    def test_nonnegative_and_reproducible(self):
        a = solar_trace(500, seed=9)
        b = solar_trace(500, seed=9)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.values.min() >= 0


class TestWind:
    def test_bounded_by_rated_capacity(self):
        trace = wind_trace(HOURS_PER_YEAR, seed=4)
        assert trace.values.min() >= 0.0
        assert trace.values.max() <= 1.0

    def test_available_at_night(self):
        """Wind (unlike solar) produces at night."""
        trace = wind_trace(24 * 90, seed=4)
        night = trace.values.reshape(-1, 24)[:, 2]
        assert night.mean() > 0.05

    def test_autocorrelated(self):
        trace = wind_trace(24 * 90, seed=4)
        x = trace.values
        corr = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert corr > 0.7

    def test_sometimes_calm_sometimes_rated(self):
        trace = wind_trace(HOURS_PER_YEAR, seed=4)
        assert (trace.values == 0.0).mean() > 0.01
        assert (trace.values == 1.0).mean() > 0.01


class TestPrice:
    def test_mean_and_floor(self):
        trace = price_trace(HOURS_PER_YEAR, mean_price=35.0, seed=5)
        assert trace.values.min() >= 5.0
        assert trace.mean == pytest.approx(35.0, rel=0.15)

    def test_diurnal_shape(self):
        trace = price_trace(HOURS_PER_YEAR, seed=5)
        profile = trace.daily_profile()
        assert profile[17] > profile[3]

    def test_spikes_exist(self):
        trace = price_trace(HOURS_PER_YEAR, seed=5)
        assert trace.peak > 3.0 * trace.mean

    def test_reproducible(self):
        a = price_trace(300, seed=11)
        b = price_trace(300, seed=11)
        np.testing.assert_array_equal(a.values, b.values)


def _crc(trace) -> int:
    return zlib.crc32(trace.values.tobytes())


class TestPinnedBytes:
    """A year of each generator at the paper scenario's seeds, pinned to
    its CRC32: a rewrite of a generator's arithmetic must keep every bit."""

    @pytest.mark.parametrize(
        "make, crc",
        [
            (lambda: fiu_workload(HOURS_PER_YEAR, seed=2012), 4210912899),
            (lambda: price_trace(HOURS_PER_YEAR, seed=2012), 4093527229),
            (lambda: wind_trace(HOURS_PER_YEAR, seed=2012), 2898760042),
        ],
        ids=["fiu", "price", "wind"],
    )
    def test_year_at_seed_2012(self, make, crc):
        assert _crc(make()) == crc

    def test_paper_scenario_onsite_draws(self):
        """The two on-site mixes ``paper_scenario`` draws from one stream
        seeded ``seed + 2``."""
        rng = np.random.default_rng(2014)
        onsite = onsite_mix(HOURS_PER_YEAR, solar_fraction=0.6, rng=rng)
        offsite = onsite_mix(HOURS_PER_YEAR, solar_fraction=0.45, rng=rng)
        assert (_crc(onsite), _crc(offsite)) == (1961936364, 663148137)
