"""Tests for the carbon-deficit queue, V-schedules, and Theorem 2 constants."""

import numpy as np
import pytest

from repro.core import (
    CarbonDeficitQueue,
    ConstantV,
    FrameV,
    quarterly,
)
from repro.core.bounds import cost_bound, deficit_bound, lyapunov_constants


class TestDeficitQueue:
    def test_eq17_dynamics(self):
        """q(t+1) = max(q + y - alpha f - z, 0)."""
        q = CarbonDeficitQueue(alpha=1.0, rec_per_slot=2.0)
        assert q.update(brown_energy=5.0, offsite=1.0) == pytest.approx(2.0)
        assert q.update(brown_energy=1.0, offsite=0.0) == pytest.approx(1.0)
        assert q.update(brown_energy=0.0, offsite=10.0) == 0.0  # floored

    def test_alpha_scales_service(self):
        q = CarbonDeficitQueue(alpha=0.5, rec_per_slot=0.0)
        q.update(brown_energy=4.0, offsite=4.0)
        assert q.length == pytest.approx(2.0)

    def test_never_negative(self):
        q = CarbonDeficitQueue(rec_per_slot=100.0)
        for _ in range(5):
            q.update(0.0, 0.0)
        assert q.length == 0.0

    def test_reset_keeps_history(self):
        q = CarbonDeficitQueue()
        q.update(3.0, 0.0)
        q.reset()
        assert q.length == 0.0
        assert list(q.history) == [3.0]

    def test_history_records_post_update(self):
        q = CarbonDeficitQueue(rec_per_slot=1.0)
        q.update(2.0, 0.0)
        q.update(2.0, 0.0)
        np.testing.assert_allclose(q.history, [1.0, 2.0])

    def test_input_validation(self):
        q = CarbonDeficitQueue()
        with pytest.raises(ValueError):
            q.update(-1.0, 0.0)
        with pytest.raises(ValueError):
            q.update(0.0, -1.0)
        with pytest.raises(ValueError):
            CarbonDeficitQueue(alpha=0.0)
        with pytest.raises(ValueError):
            CarbonDeficitQueue(rec_per_slot=-1.0)



class TestVSchedules:
    def test_constant(self):
        s = ConstantV(10.0)
        assert s.value(0) == s.value(99) == 10.0

    def test_constant_positive(self):
        with pytest.raises(ValueError):
            ConstantV(0.0)

    def test_frame_sequence_with_tail_reuse(self):
        s = FrameV((1.0, 2.0, 3.0))
        assert [s.value(r) for r in range(5)] == [1.0, 2.0, 3.0, 3.0, 3.0]

    def test_frame_validation(self):
        with pytest.raises(ValueError):
            FrameV(())
        with pytest.raises(ValueError):
            FrameV((1.0, -2.0))
        with pytest.raises(ValueError):
            FrameV((1.0,)).value(-1)

    def test_quarterly_needs_four(self):
        assert quarterly([1, 2, 3, 4]).value(2) == 3.0
        with pytest.raises(ValueError):
            quarterly([1, 2, 3])


class TestTheorem2Constants:
    def make(self, fortnight_scenario):
        sc = fortnight_scenario
        return lyapunov_constants(sc.model, sc.environment.portfolio)

    def test_constants_positive(self, fortnight_scenario):
        c = self.make(fortnight_scenario)
        assert c.B > 0 and c.D > 0 and c.y_max > 0

    def test_y_max_covers_worst_case(self, fortnight_scenario):
        sc = fortnight_scenario
        c = self.make(fortnight_scenario)
        assert c.y_max >= sc.model.fleet.max_power

    def test_C_increases_with_T(self, fortnight_scenario):
        c = self.make(fortnight_scenario)
        assert c.C(1) == pytest.approx(c.B)
        assert c.C(10) > c.C(2)
        with pytest.raises(ValueError):
            c.C(0)

    def test_cost_bound_shrinks_with_V(self, fortnight_scenario):
        c = self.make(fortnight_scenario)
        g = np.array([10.0, 12.0])
        hi = cost_bound(c, g, np.array([1.0, 1.0]), T=24)
        lo = cost_bound(c, g, np.array([100.0, 100.0]), T=24)
        assert lo < hi
        assert lo >= g.mean()

    def test_deficit_bound_grows_with_V(self, fortnight_scenario):
        sc = fortnight_scenario
        c = self.make(fortnight_scenario)
        g = np.array([10.0])
        lo = deficit_bound(c, sc.environment.portfolio, g, np.array([1.0]), T=24)
        hi = deficit_bound(c, sc.environment.portfolio, g, np.array([1e4]), T=24)
        assert hi > lo

    def test_shape_validation(self, fortnight_scenario):
        c = self.make(fortnight_scenario)
        with pytest.raises(ValueError):
            cost_bound(c, np.array([1.0]), np.array([1.0, 2.0]), T=1)
        with pytest.raises(ValueError):
            cost_bound(c, np.array([1.0]), np.array([-1.0]), T=1)
