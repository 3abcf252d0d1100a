"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cluster import LinearTariff, MG1PSDelay, SquaredLoadDelay, TieredTariff
from repro.core import CarbonDeficitQueue
from repro.solvers import distribute_load
from repro.traces import Trace
from tests.billing_oracle import group_loads, solve_action
from tests.conftest import make_problem

finite_floats = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestTraceProperties:
    @given(
        arrays(np.float64, st.integers(1, 200), elements=st.floats(0.01, 1e6)),
        st.floats(0.5, 1e3),
    )
    def test_scale_to_peak_then_peak(self, values, peak):
        trace = Trace(values).scale_to_peak(peak)
        assert trace.peak == pytest.approx(peak, rel=1e-9)

    @given(arrays(np.float64, st.integers(1, 200), elements=st.floats(0.01, 1e6)))
    def test_normalization_idempotent(self, values):
        a = Trace(values).normalized()
        b = a.normalized()
        np.testing.assert_allclose(a.values, b.values, rtol=1e-12)

    @given(
        arrays(np.float64, st.integers(1, 50), elements=st.floats(0.0, 1e3)),
        st.integers(1, 400),
    )
    def test_repeat_to_preserves_values(self, values, horizon):
        trace = Trace(values).repeat_to(horizon)
        assert len(trace) == horizon
        for t in range(min(horizon, 25)):
            assert trace[t] == values[t % values.size]



class TestQueueProperties:
    @given(
        st.lists(
            st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 1e3)),
            min_size=1,
            max_size=60,
        ),
        st.floats(0.0, 10.0),
    )
    def test_queue_nonnegative_and_lipschitz(self, slots, z):
        """q(t) >= 0 always, and |q(t+1) - q(t)| <= max(y, alpha f + z)."""
        q = CarbonDeficitQueue(alpha=1.0, rec_per_slot=z)
        prev = 0.0
        for brown, offsite in slots:
            new = q.update(brown, offsite)
            assert new >= 0.0
            assert abs(new - prev) <= max(brown, offsite + z) + 1e-9
            prev = new

    @given(
        st.lists(st.floats(0.0, 100.0), min_size=1, max_size=60),
        st.floats(0.1, 10.0),
    )
    def test_queue_bounds_total_violation(self, browns, z):
        """The queue dominates the running constraint violation:
        q(T) >= sum(y) - sum(z) (the basis of Theorem 2(a))."""
        q = CarbonDeficitQueue(rec_per_slot=z)
        for y in browns:
            q.update(y, 0.0)
        violation = sum(browns) - z * len(browns)
        assert q.length >= violation - 1e-9


class TestDelayModelProperties:
    @given(st.floats(0.0, 9.99), st.floats(0.01, 1e4))
    def test_mg1ps_inverse_roundtrip(self, load, speed):
        assume(load < speed)
        m = MG1PSDelay()
        grad = m.marginal(load, speed)
        assume(np.isfinite(grad))
        back = m.load_at_marginal(grad, speed)
        assert back == pytest.approx(load, rel=1e-6, abs=1e-9)

    @given(
        st.floats(0.0, 5.0),
        st.floats(0.0, 5.0),
        st.floats(6.0, 50.0),
    )
    def test_convexity_midpoint(self, a, b, speed):
        for model in (MG1PSDelay(), SquaredLoadDelay()):
            mid = model.cost(0.5 * (a + b), speed)
            avg = 0.5 * (model.cost(a, speed) + model.cost(b, speed))
            assert mid <= avg + 1e-9


@st.composite
def tariffs(draw):
    if draw(st.booleans()):
        return LinearTariff()
    n = draw(st.integers(1, 4))
    thresholds = sorted(draw(st.sets(st.floats(1e-4, 10.0), min_size=n, max_size=n)))
    steps = draw(st.lists(st.floats(0.0, 3.0), min_size=n + 1, max_size=n + 1))
    return TieredTariff(tuple(thresholds), tuple(np.cumsum(steps).tolist()))


class TestModelContracts:
    """The contracts the exact engine's search relies on: a tariff is
    nondecreasing and convex in brown energy, and a delay cost is strictly
    decreasing in speed at positive load."""

    @given(tariffs(), st.floats(0.0, 20.0), st.floats(0.0, 20.0), st.floats(0.0, 200.0))
    def test_tariff_nondecreasing_and_convex(self, tariff, a, b, price):
        lo, hi = min(a, b), max(a, b)
        assert tariff.cost(lo, price) <= tariff.cost(hi, price)
        mid = tariff.cost(0.5 * (lo + hi), price)
        avg = 0.5 * (tariff.cost(lo, price) + tariff.cost(hi, price))
        assert mid <= avg + 1e-9 * (1.0 + avg)

    @given(st.floats(1e-6, 9.0), st.floats(1e-3, 10.0), st.floats(1e-3, 10.0))
    def test_delay_strictly_decreasing_in_speed(self, load, slow, extra):
        fast = slow + extra
        assume(fast > slow)
        for model in (MG1PSDelay(), SquaredLoadDelay()):
            for cost in (model.cost_at, lambda x, s: float(model.cost(x, s))):
                quick, lagging = cost(load, fast), cost(load, slow)
                # Past saturation at both speeds the cost is infinite.
                assert quick < lagging or quick == lagging == np.inf


class TestLoadDistributionProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(0.0, 0.94),
        st.floats(0.0, 0.01),
        st.floats(1.0, 100.0),
        st.floats(0.0, 500.0),
    )
    def test_invariants_hold(self, lam_frac, onsite, price, q):
        from repro.cluster import Fleet, ServerGroup, opteron_2380
        from repro.core import DataCenterModel

        fleet = Fleet([ServerGroup(opteron_2380(), 10) for _ in range(3)])
        model = DataCenterModel(fleet=fleet, beta=10.0)
        p = make_problem(model, lam_frac=lam_frac, onsite=onsite, price=price, q=q)
        levels = np.full(3, 3, dtype=np.int64)
        dist = distribute_load(p, levels)
        action = solve_action(fleet, levels, dist)
        loads = group_loads(fleet, action)
        # Balance
        served = float(np.sum(fleet.counts * loads))
        assert served == pytest.approx(p.arrival_rate, rel=1e-6, abs=1e-6)
        # Box constraints
        assert np.all(loads >= -1e-12)
        assert np.all(loads <= p.gamma * 10.0 + 1e-9)
        # Objective finite and action valid
        assert np.isfinite(p.objective(action))

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.05, 0.9), st.floats(1.0, 100.0))
    def test_onsite_never_hurts(self, lam_frac, price):
        """More on-site renewable supply can only (weakly) reduce the
        optimal objective."""
        from repro.solvers import HomogeneousEnumerationSolver
        from repro.cluster import Fleet, ServerGroup, opteron_2380
        from repro.core import DataCenterModel

        fleet = Fleet([ServerGroup(opteron_2380(), 10) for _ in range(3)])
        model = DataCenterModel(fleet=fleet, beta=10.0)
        solver = HomogeneousEnumerationSolver()
        dark = solver.solve(make_problem(model, lam_frac=lam_frac, price=price, onsite=0.0))
        sunny = solver.solve(
            make_problem(model, lam_frac=lam_frac, price=price, onsite=0.003)
        )
        assert sunny.objective <= dark.objective + 1e-12


class TestEnumerationProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(0.01, 0.9),
        st.floats(0.0, 0.01),
        st.floats(1.0, 100.0),
        st.floats(0.0, 1000.0),
    )
    def test_objective_monotone_in_q_weight(self, lam_frac, onsite, price, q):
        """The optimal *brown energy* is nonincreasing in q (the economics
        behind both the deficit queue and the OPT dual)."""
        from repro.solvers import HomogeneousEnumerationSolver
        from repro.cluster import Fleet, ServerGroup, opteron_2380
        from repro.core import DataCenterModel

        fleet = Fleet([ServerGroup(opteron_2380(), 10) for _ in range(3)])
        model = DataCenterModel(fleet=fleet, beta=10.0)
        solver = HomogeneousEnumerationSolver()
        lo = solver.solve(
            make_problem(model, lam_frac=lam_frac, onsite=onsite, price=price, q=q)
        )
        hi = solver.solve(
            make_problem(model, lam_frac=lam_frac, onsite=onsite, price=price, q=q + 100.0)
        )
        assert hi.evaluation.brown_energy <= lo.evaluation.brown_energy + 1e-12
        # And g itself is nondecreasing in q (cost of being greener).
        assert hi.cost >= lo.cost - 1e-12
