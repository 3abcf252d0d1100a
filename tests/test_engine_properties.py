"""Property-based and edge-case tests for the simulation engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import CarbonUnaware
from repro.cluster import Fleet, ServerGroup, opteron_2380
from repro.core import DataCenterModel
from repro.sim import engine
from tests.billing_oracle import group_loads


@pytest.fixture(scope="module")
def model():
    fleet = Fleet([ServerGroup(opteron_2380(), 10) for _ in range(3)])
    return DataCenterModel(fleet=fleet, beta=10.0)


def planned_action(model, planned):
    """A plausible committed action for a planned arrival rate."""
    problem = model.slot_problem(arrival_rate=planned, onsite=0.0, price=40.0)
    return CarbonUnaware(model).solver.solve(problem).action


def realize_action(model, action, actual, planned):
    """The shipped class-space realization."""
    return engine.realize_action(model, action, actual, planned)


class TestRealizeActionProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(1.0, 280.0),  # planned
        st.floats(0.0, 280.0),  # actual
    )
    def test_serve_plus_drop_equals_actual(self, planned, actual):
        fleet = Fleet([ServerGroup(opteron_2380(), 10) for _ in range(3)])
        model = DataCenterModel(fleet=fleet, beta=10.0)
        action = planned_action(model, planned)
        realized, dropped = realize_action(model, action, actual, planned)
        served = realized.rows.served
        assert served + dropped == pytest.approx(actual, rel=1e-6, abs=1e-6)
        assert dropped >= 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.floats(1.0, 280.0), st.floats(0.0, 280.0))
    def test_caps_never_violated(self, planned, actual):
        fleet = Fleet([ServerGroup(opteron_2380(), 10) for _ in range(3)])
        model = DataCenterModel(fleet=fleet, beta=10.0)
        action = planned_action(model, planned)
        realized, _ = realize_action(model, action, actual, planned)
        speeds = model.fleet.group_speeds(realized.levels)
        caps = model.gamma * speeds
        loads = group_loads(model.fleet, realized)
        assert np.all(loads <= caps + 1e-9)
        assert np.all(loads >= -1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(1.0, 280.0), st.floats(0.0, 280.0))
    def test_levels_never_change_at_realization(self, planned, actual):
        """Realization can only rescale loads; the committed speeds are
        physical state that cannot retroactively change."""
        fleet = Fleet([ServerGroup(opteron_2380(), 10) for _ in range(3)])
        model = DataCenterModel(fleet=fleet, beta=10.0)
        action = planned_action(model, planned)
        realized, _ = realize_action(model, action, actual, planned)
        np.testing.assert_array_equal(realized.levels, action.levels)

    def test_drop_only_when_capacity_exhausted(self, model):
        """Load is only dropped when the committed on-set is saturated."""
        action = planned_action(model, 50.0)
        on_capacity = float(
            np.sum(
                model.fleet.counts
                * model.gamma
                * model.fleet.group_speeds(action.levels)
            )
        )
        realized, dropped = realize_action(model, action, on_capacity * 2, 50.0)
        assert dropped == pytest.approx(on_capacity, rel=1e-6)
        served = realized.rows.served
        assert served == pytest.approx(on_capacity, rel=1e-6)
