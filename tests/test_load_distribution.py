"""Tests for the convex load-distribution subproblem (GSD line 3).

The KKT/water-filling solution is validated against scipy's generic
constrained optimizer on random instances, and its structural properties
(balance, caps, regime logic, optimality conditions) are checked directly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from repro.cluster import FleetAction
from repro.solvers import InfeasibleError, distribute_load, solve_fixed_levels
from repro.solvers import load_distribution as ld
from tests.conftest import make_problem


def scipy_reference(problem, levels):
    """Brute-convex reference: minimize the P3 objective for fixed levels
    with SLSQP over per-server loads."""
    fleet = problem.fleet
    on = np.nonzero(np.asarray(levels) >= 0)[0]
    x = fleet.speed_table[on, np.asarray(levels)[on]]
    n = fleet.counts[on]
    caps = problem.gamma * x

    def objective(loads):
        full = np.zeros(fleet.num_groups)
        full[on] = loads
        action = FleetAction(np.asarray(levels, dtype=np.int64), full)
        return problem.objective(action)

    x0 = np.full(on.size, problem.arrival_rate / max(float(np.sum(n)), 1.0))
    x0 = np.minimum(x0, 0.99 * caps)
    res = minimize(
        objective,
        x0,
        method="SLSQP",
        bounds=[(0.0, c) for c in caps],
        constraints=[
            {
                "type": "eq",
                "fun": lambda loads: np.sum(n * loads) - problem.arrival_rate,
            }
        ],
        options={"maxiter": 500, "ftol": 1e-12},
    )
    return res


class TestBalanceAndCaps:
    @pytest.mark.parametrize("lam_frac", [0.0, 0.1, 0.5, 0.9, 0.999])
    def test_load_conservation(self, tiny_model, lam_frac):
        p = make_problem(tiny_model, lam_frac=lam_frac)
        levels = np.full(3, 3, dtype=np.int64)
        dist = distribute_load(p, levels)
        served = float(np.sum(tiny_model.fleet.counts * dist.per_server_load))
        assert served == pytest.approx(p.arrival_rate, rel=1e-9, abs=1e-9)

    def test_caps_respected(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=0.999)
        levels = np.full(3, 3, dtype=np.int64)
        dist = distribute_load(p, levels)
        assert np.all(dist.per_server_load <= p.gamma * 10.0 + 1e-9)

    def test_off_groups_carry_nothing(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=0.3)
        levels = np.array([3, -1, 3])
        dist = distribute_load(p, levels)
        assert dist.per_server_load[1] == 0.0

    def test_infeasible_raises(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=0.9)
        levels = np.array([3, -1, -1])  # one group cannot carry 90%
        with pytest.raises(InfeasibleError):
            distribute_load(p, levels)

    def test_all_off_with_load_raises(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=0.1)
        with pytest.raises(InfeasibleError):
            distribute_load(p, np.full(3, -1))

    def test_zero_load_trivial(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=0.0)
        dist = distribute_load(p, np.full(3, 3))
        assert np.all(dist.per_server_load == 0.0)
        assert dist.regime == "free"


class TestRegimes:
    def test_billed_regime_without_renewables(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=0.5, onsite=0.0)
        dist = distribute_load(p, np.full(3, 3))
        assert dist.regime == "billed"
        assert dist.electricity_weight == pytest.approx(p.electricity_weight)

    def test_free_regime_with_abundant_renewables(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=0.5, onsite=100.0)
        dist = distribute_load(p, np.full(3, 3))
        assert dist.regime == "free"
        action = FleetAction(np.full(3, 3, dtype=np.int64), dist.per_server_load)
        assert p.evaluate(action).brown_energy == 0.0

    def test_boundary_regime_pins_power_at_supply(self, hetero_model):
        """Pick r between the free and billed power levels -> boundary."""
        p = make_problem(hetero_model, lam_frac=0.5, onsite=0.0, q=100.0)
        levels = (hetero_model.fleet.num_levels - 1).astype(np.int64)
        billed = distribute_load(p, levels)
        action_b = FleetAction(levels, billed.per_server_load)
        power_billed = p.evaluate(action_b).facility_power

        p_free = make_problem(hetero_model, lam_frac=0.5, onsite=1e9, q=100.0)
        free = distribute_load(p_free, levels)
        action_f = FleetAction(levels, free.per_server_load)
        power_free = p_free.evaluate(action_f).facility_power

        if power_free > power_billed + 1e-9:
            r_mid = 0.5 * (power_billed + power_free)
            p_mid = make_problem(hetero_model, lam_frac=0.5, onsite=r_mid, q=100.0)
            dist = distribute_load(p_mid, levels)
            assert dist.regime == "boundary"
            action = FleetAction(levels, dist.per_server_load)
            assert p_mid.evaluate(action).facility_power == pytest.approx(
                r_mid, rel=1e-5
            )


class TestOptimality:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scipy_on_heterogeneous(self, hetero_model, seed):
        rng = np.random.default_rng(seed)
        lam_frac = float(rng.uniform(0.1, 0.9))
        p = make_problem(
            hetero_model,
            lam_frac=lam_frac,
            onsite=float(rng.uniform(0.0, 0.002)),
            price=float(rng.uniform(10.0, 80.0)),
            q=float(rng.choice([0.0, 10.0, 100.0])),
        )
        levels = (hetero_model.fleet.num_levels - 1).astype(np.int64)
        dist = distribute_load(p, levels)
        ours = p.objective(FleetAction(levels, dist.per_server_load))
        ref = scipy_reference(p, levels)
        assert ours <= ref.fun * (1.0 + 1e-6) + 1e-12

    def test_equalizes_marginals_within_group_type(self, tiny_model):
        """Interior groups share one marginal objective (KKT)."""
        p = make_problem(tiny_model, lam_frac=0.5)
        dist = distribute_load(p, np.full(3, 3))
        loads = dist.per_server_load
        np.testing.assert_allclose(loads, loads[0], rtol=1e-6)

    def test_cheaper_groups_loaded_first(self, hetero_model):
        """With q >> 0, groups with lower dynamic energy per request should
        run at (weakly) higher utilization."""
        p = make_problem(hetero_model, lam_frac=0.3, q=1e4, price=40.0)
        levels = (hetero_model.fleet.num_levels - 1).astype(np.int64)
        dist = distribute_load(p, levels)
        fleet = hetero_model.fleet
        coeff = fleet.dyn_coeff[np.arange(2), levels]
        util = dist.per_server_load / fleet.speed_table[np.arange(2), levels]
        order = np.argsort(coeff)
        assert util[order[0]] >= util[order[1]] - 1e-9


@st.composite
def residual_cases(draw):
    """Random residual-closure instances: strictly-interior starting loads
    and a served-load target within the fleet's capped capacity, shifted
    far enough (up to +-30%) that the uniform correction saturates groups
    and forces redistribution passes."""
    g = draw(st.integers(1, 6))
    caps = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=g, max_size=g)))
    fracs = np.array(draw(st.lists(st.floats(0.01, 0.99), min_size=g, max_size=g)))
    counts = np.array(
        draw(st.lists(st.integers(0, 5), min_size=g, max_size=g)), dtype=np.float64
    )
    if float(np.sum(counts)) <= 0.0:
        counts[draw(st.integers(0, g - 1))] = 1.0
    shift = draw(st.floats(-0.3, 0.3))
    loads = fracs * caps
    total_cap = float(np.sum(counts * caps))
    lam = float(
        np.clip((1.0 + shift) * float(np.sum(counts * loads)), 1e-6, total_cap)
    )
    return lam, loads, caps, counts


class TestResidualClosure:
    """Regression tests for the water-filling residual closure: clipping a
    saturating correction used to leave the served-load balance open (the
    clipped mass simply vanished); the closure now redistributes it over
    the still-interior set until the balance closes."""

    @settings(max_examples=200, deadline=None)
    @given(residual_cases())
    def test_balance_closes_within_bounds(self, case):
        lam, loads, caps, counts = case
        out = np.asarray(ld._close_residual(lam, loads, caps, counts))
        assert np.all(out >= 0.0)
        assert np.all(out <= caps)
        served = float(np.sum(counts * out))
        assert served == pytest.approx(lam, rel=1e-9, abs=1e-9)

    def test_saturating_correction_redistributes(self):
        """A correction that caps one group must push the overflow onto the
        others, not drop it (the pre-fix behavior)."""
        caps = np.array([1.0, 10.0, 10.0])
        loads = np.array([0.9, 5.0, 5.0])
        counts = np.array([1.0, 1.0, 1.0])
        lam = 12.0  # residual 1.1 caps group 0 at 1.0; 1.0 spills over
        out = np.asarray(ld._close_residual(lam, loads, caps, counts))
        assert out[0] == 1.0
        assert float(np.sum(counts * out)) == pytest.approx(12.0, rel=1e-12)

    def test_zero_count_groups_do_not_absorb(self):
        """Interior groups with zero servers contribute nothing to the
        served load; the closure must still converge on the others."""
        caps = np.array([5.0, 5.0])
        loads = np.array([1.0, 1.0])
        counts = np.array([0.0, 2.0])
        out = np.asarray(ld._close_residual(4.0, loads, caps, counts))
        assert float(np.sum(counts * out)) == pytest.approx(4.0, rel=1e-12)


class TestDelayFreeZeroCount:
    """Regression: the greedy ``Wd == 0`` fill divided by the group count,
    so a group emptied by failures (count 0) produced 0/0 NaNs that
    poisoned every later group's load."""

    def test_direct_fill_skips_zero_count_groups(self):
        loads = ld._fill_when_delay_free(
            10.0,
            weights=np.array([1.0, 2.0, 3.0]),
            caps=np.array([5.0, 5.0, 5.0]),
            counts=np.array([0.0, 4.0, 4.0]),
        )
        assert not np.any(np.isnan(loads))
        assert loads[0] == 0.0
        assert float(np.sum(np.array([0.0, 4.0, 4.0]) * loads)) == pytest.approx(10.0)

    def test_distribute_load_with_emptied_group(self, tiny_fleet):
        from repro.cluster import Fleet
        from repro.core import DataCenterModel

        model = DataCenterModel(fleet=Fleet(tiny_fleet.groups), beta=0.0)
        counts = model.fleet.counts.copy()
        counts[0] = 0.0
        counts.setflags(write=False)
        model.fleet.counts = counts
        p = model.slot_problem(arrival_rate=50.0, onsite=0.0, price=40.0)
        dist = distribute_load(p, np.full(3, 3))
        assert not np.any(np.isnan(dist.per_server_load))
        served = float(np.sum(counts * dist.per_server_load))
        assert served == pytest.approx(50.0)


class TestBoundaryWeightReporting:
    """Regression: the boundary regime used to report the *final bracket
    midpoint* as ``electricity_weight`` -- a weight no water-fill ever ran
    at -- so warm starts seeded their mu bracket around the wrong point and
    the result was not reproducible from its own metadata."""

    def test_reported_weight_reproduces_loads(self, hetero_model):
        from tests.test_fastpath import boundary_problem

        levels = (hetero_model.fleet.num_levels - 1).astype(np.int64)
        p = boundary_problem(hetero_model, levels)
        dist = distribute_load(p, levels)
        assert dist.regime == "boundary"
        assert 0.0 < dist.electricity_weight < p.electricity_weight

        # Re-running the water-fill at the reported weight (seeded with the
        # reported dual) must land on the returned loads.
        fleet = p.fleet
        on = np.nonzero(levels >= 0)[0]
        x = fleet.speed_table[on, levels[on]]
        c = fleet.dyn_coeff[on, levels[on]]
        n = fleet.counts[on]
        loads2, _, _, _ = ld._waterfill(
            p,
            p.arrival_rate,
            dist.electricity_weight,
            ld._ClassRows(p, x, c, n),
            nu_hint=dist.nu,
        )
        np.testing.assert_allclose(
            loads2, dist.per_server_load[on], rtol=1e-6, atol=1e-12
        )

    def test_self_hint_validates_boundary_bracket(self, hetero_model):
        from tests.test_fastpath import boundary_problem

        levels = (hetero_model.fleet.num_levels - 1).astype(np.int64)
        p = boundary_problem(hetero_model, levels)
        dist = distribute_load(p, levels)
        assert dist.regime == "boundary"
        redo = distribute_load(p, levels, hint=dist)
        assert redo.regime == "boundary"
        assert redo.warm_started
        assert redo.electricity_weight == pytest.approx(
            dist.electricity_weight, rel=1e-6
        )
        np.testing.assert_allclose(
            redo.per_server_load, dist.per_server_load, rtol=1e-6, atol=1e-12
        )


class TestSolveFixedLevels:
    def test_returns_consistent_pair(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=0.4)
        action, ev = solve_fixed_levels(p, np.full(3, 3))
        assert ev.objective == pytest.approx(p.objective(action))

    def test_delay_free_problem_fills_cheapest(self, tiny_fleet):
        """With beta = 0 the objective is linear: all load should go to the
        configured groups in dynamic-coefficient order."""
        from repro.core import DataCenterModel

        model = DataCenterModel(fleet=tiny_fleet, beta=0.0)
        p = model.slot_problem(arrival_rate=50.0, onsite=0.0, price=40.0)
        dist = distribute_load(p, np.full(3, 3))
        served = float(np.sum(tiny_fleet.counts * dist.per_server_load))
        assert served == pytest.approx(50.0)
        # Homogeneous coefficients: the three groups form one (profile,
        # level) class, which the greedy fills as a whole -- 50 req/s over
        # 30 servers, well under the 9.5 req/s cap each.  (Any split is
        # optimal for a linear objective; per group, the historical fill
        # put all 50 req/s on group 0 at the same cost.)
        np.testing.assert_allclose(dist.per_server_load, 50.0 / 30.0)
