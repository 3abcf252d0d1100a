"""Tests for the Trace container and its transformations."""

import numpy as np
import pytest

from repro.traces import Trace
from repro.traces.base import HOURS_PER_DAY


class TestConstruction:
    def test_values_copied_and_readonly(self):
        src = np.array([1.0, 2.0, 3.0])
        trace = Trace(src)
        src[0] = 99.0
        assert trace[0] == 1.0
        with pytest.raises(ValueError):
            trace.values[0] = 5.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            Trace(np.array([]))

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            Trace(np.ones((2, 2)))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            Trace(np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="non-finite"):
            Trace(np.array([1.0, np.inf]))

    def test_casts_ints_to_float(self):
        trace = Trace(np.array([1, 2, 3]))
        assert trace.values.dtype == np.float64


class TestStatistics:
    def test_peak_total_mean(self):
        trace = Trace(np.array([1.0, 3.0, 2.0]))
        assert trace.peak == 3.0
        assert trace.total == 6.0
        assert trace.mean == 2.0

    def test_len_and_iter(self):
        trace = Trace(np.array([1.0, 2.0]))
        assert len(trace) == 2
        assert list(trace) == [1.0, 2.0]
        assert trace.horizon == 2


class TestScaling:
    def test_scale_to_peak(self):
        trace = Trace(np.array([2.0, 4.0])).scale_to_peak(10.0)
        assert trace.peak == pytest.approx(10.0)
        assert trace[0] == pytest.approx(5.0)

    def test_scale_to_total(self):
        trace = Trace(np.array([1.0, 3.0])).scale_to_total(8.0)
        assert trace.total == pytest.approx(8.0)

    def test_normalized_has_unit_peak(self):
        trace = Trace(np.array([5.0, 2.0])).normalized()
        assert trace.peak == pytest.approx(1.0)

    def test_scale_zero_trace_rejected(self):
        with pytest.raises(ValueError):
            Trace(np.zeros(3)).scale_to_peak(1.0)
        with pytest.raises(ValueError):
            Trace(np.zeros(3)).scale_to_total(1.0)

    def test_name_and_unit_preserved(self):
        trace = Trace(np.array([1.0]), name="w", unit="req/s").scale(2.0)
        assert trace.name == "w" and trace.unit == "req/s"


class TestTransformations:
    def test_clip(self):
        trace = Trace(np.array([-1.0, 0.5, 2.0])).clip(0.0, 1.0)
        assert list(trace) == [0.0, 0.5, 1.0]

    def test_shift(self):
        assert Trace(np.array([1.0]))\
            .shift(2.0)[0] == 3.0

    def test_slice(self):
        trace = Trace(np.arange(10.0)).slice(2, 5)
        assert list(trace) == [2.0, 3.0, 4.0]

    def test_slice_bounds_checked(self):
        with pytest.raises(ValueError):
            Trace(np.arange(5.0)).slice(3, 11)
        with pytest.raises(ValueError):
            Trace(np.arange(5.0)).slice(4, 4)

    def test_repeat_to_tiles_and_truncates(self):
        trace = Trace(np.array([1.0, 2.0, 3.0])).repeat_to(7)
        assert list(trace) == [1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0]

    def test_repeat_to_shorter_truncates(self):
        assert len(Trace(np.arange(10.0)).repeat_to(4)) == 4

    def test_map(self):
        trace = Trace(np.array([1.0, 4.0])).map(np.sqrt)
        assert list(trace) == [1.0, 2.0]

    def test_with_noise_bounded(self, rng):
        base = Trace(np.full(1000, 10.0))
        noisy = base.with_noise(rng, 0.4)
        assert noisy.values.min() >= 6.0 - 1e-12
        assert noisy.values.max() <= 14.0 + 1e-12
        assert noisy.values.std() > 0

    def test_with_noise_zero_is_identity(self, rng):
        base = Trace(np.arange(1.0, 5.0))
        noisy = base.with_noise(rng, 0.0)
        np.testing.assert_allclose(noisy.values, base.values)

    def test_with_noise_negative_rejected(self, rng):
        with pytest.raises(ValueError):
            Trace(np.ones(3)).with_noise(rng, -0.1)


class TestAverages:
    def test_daily_profile(self):
        values = np.tile(np.arange(24.0), 3)
        profile = Trace(values).daily_profile()
        np.testing.assert_allclose(profile, np.arange(24.0))

    def test_daily_profile_needs_a_day(self):
        with pytest.raises(ValueError):
            Trace(np.ones(5)).daily_profile()

    def test_describe_mentions_name(self):
        assert "foo" in Trace(np.ones(3), name="foo").describe()
