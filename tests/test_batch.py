"""Tests for the vectorized whole-horizon sweep (solvers/batch.py).

The batch sweep must agree slot-for-slot with the per-slot enumeration
engine -- they implement the same optimization, one vectorized over time --
and bit for bit with the full candidate grid kept in
``tests/batch_oracle.py``.
"""

from dataclasses import fields

import numpy as np
import pytest

import repro.scenarios as scenarios
from repro.cluster import (
    Fleet,
    ServerGroup,
    SquaredLoadDelay,
    cubic_dvfs_profile,
    opteron_2380,
)
from repro.core import DataCenterModel
from repro.solvers import HomogeneousEnumerationSolver, InfeasibleError
from repro.solvers.batch import BatchResult, batch_enumerate, supports_batch

from tests.batch_oracle import oracle_batch_enumerate
from tests.billing_oracle import group_loads
from tests.conftest import validate_action


@pytest.fixture(scope="module")
def slot_inputs(rng_module=np.random.default_rng(77)):
    n = 64
    return {
        "arrival": rng_module.uniform(0.0, 0.85, n),  # fraction, scaled later
        "onsite": rng_module.uniform(0.0, 0.004, n),
        "price": rng_module.uniform(10.0, 90.0, n),
    }


class TestAgainstPerSlot:
    @pytest.mark.parametrize("q", [0.0, 10.0, 200.0])
    def test_matches_enumeration(self, tiny_model, slot_inputs, q):
        lam = slot_inputs["arrival"] * tiny_model.fleet.capacity(tiny_model.gamma)
        res = batch_enumerate(
            tiny_model, lam, slot_inputs["onsite"], slot_inputs["price"], q=q, V=1.0
        )
        solver = HomogeneousEnumerationSolver(switching_aware=False)
        for t in range(lam.size):
            p = tiny_model.slot_problem(
                arrival_rate=lam[t],
                onsite=slot_inputs["onsite"][t],
                price=slot_inputs["price"][t],
                q=q,
                V=1.0,
            )
            sol = solver.solve(p)
            assert res.objective[t] == pytest.approx(
                sol.objective, rel=1e-9, abs=1e-12
            ), f"slot {t}"
            assert res.brown_energy[t] == pytest.approx(
                sol.evaluation.brown_energy, rel=1e-9, abs=1e-12
            )
            assert res.cost[t] == pytest.approx(sol.cost, rel=1e-9, abs=1e-12)

    def test_per_slot_q_array(self, tiny_model, slot_inputs):
        lam = slot_inputs["arrival"] * tiny_model.fleet.capacity(tiny_model.gamma)
        q = np.linspace(0.0, 100.0, lam.size)
        res = batch_enumerate(
            tiny_model, lam, slot_inputs["onsite"], slot_inputs["price"], q=q
        )
        solver = HomogeneousEnumerationSolver(switching_aware=False)
        for t in [0, lam.size // 2, lam.size - 1]:
            p = tiny_model.slot_problem(
                arrival_rate=lam[t],
                onsite=slot_inputs["onsite"][t],
                price=slot_inputs["price"][t],
                q=float(q[t]),
            )
            assert res.objective[t] == pytest.approx(
                solver.solve(p).objective, rel=1e-9
            )


class TestProperties:
    def test_brown_monotone_in_q(self, tiny_model, slot_inputs):
        """The OPT bisection relies on total brown being nonincreasing in
        the penalty."""
        lam = slot_inputs["arrival"] * tiny_model.fleet.capacity(tiny_model.gamma)
        browns = [
            batch_enumerate(
                tiny_model, lam, slot_inputs["onsite"], slot_inputs["price"], q=q
            ).total_brown
            for q in [0.0, 5.0, 20.0, 100.0, 1000.0]
        ]
        assert all(b1 >= b2 - 1e-9 for b1, b2 in zip(browns, browns[1:]))

    def test_zero_arrival_all_off(self, tiny_model):
        res = batch_enumerate(
            tiny_model, np.zeros(4), np.zeros(4), np.full(4, 40.0)
        )
        assert np.all(res.servers_on == 0)
        assert np.all(res.it_power == 0)
        assert np.all(res.speed_level == -1)

    def test_infeasible_slot_raises(self, tiny_model):
        lam = np.array([10.0 * tiny_model.fleet.max_capacity])
        with pytest.raises(InfeasibleError):
            batch_enumerate(tiny_model, lam, np.zeros(1), np.full(1, 40.0))

    def test_supports_batch_detection(self, tiny_model, hetero_model):
        assert supports_batch(tiny_model)
        assert not supports_batch(hetero_model)

    def test_heterogeneous_rejected(self, hetero_model):
        with pytest.raises(ValueError, match="homogeneous"):
            batch_enumerate(hetero_model, np.ones(2), np.zeros(2), np.ones(2))

    def test_length_mismatch_rejected(self, tiny_model):
        with pytest.raises(ValueError, match="length"):
            batch_enumerate(tiny_model, np.ones(3), np.zeros(2), np.ones(3))


def assert_same_result(got: BatchResult, want: BatchResult) -> None:
    """Every field equal, bytes included (so a signed zero would show)."""
    for f in fields(BatchResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        np.testing.assert_array_equal(a, b, err_msg=f.name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name


def random_inputs(model, n: int, seed: int, *, idle: float = 0.0):
    """Per-slot inputs spanning light to near-capacity load, with a
    fraction ``idle`` of zero-arrival slots."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.0, 0.95, n) * model.fleet.capacity(model.gamma)
    lam[rng.random(n) < idle] = 0.0
    peak = model.fleet.max_power
    return lam, rng.uniform(0.0, 0.5 * peak, n), rng.uniform(0.0, 90.0, n)


class TestAgainstOracle:
    """Every field equals the full candidate grid's, bit for bit.

    The bisection and the grid evaluate each cell with the same expression,
    so they agree exactly wherever the computed objective is unimodal along
    the servers-on axis.  Should rounding ever break an exact float tie the
    other way on some input, the written contract is that the objectives
    agree within 1e-12 relative; none of these cases needs it.
    """

    @pytest.mark.parametrize("per_slot", [False, True])
    def test_q(self, tiny_model, per_slot):
        lam, onsite, price = random_inputs(tiny_model, 200, 1)
        q = np.linspace(0.0, 500.0, lam.size) if per_slot else 40.0
        assert_same_result(
            batch_enumerate(tiny_model, lam, onsite, price, q=q, V=3.0),
            oracle_batch_enumerate(tiny_model, lam, onsite, price, q=q, V=3.0),
        )

    @pytest.mark.parametrize("per_slot", [False, True])
    def test_pue(self, tiny_model, per_slot):
        lam, onsite, price = random_inputs(tiny_model, 200, 2)
        pue = np.linspace(1.0, 1.8, lam.size) if per_slot else 1.45
        assert_same_result(
            batch_enumerate(tiny_model, lam, onsite, price, q=7.0, pue=pue),
            oracle_batch_enumerate(tiny_model, lam, onsite, price, q=7.0, pue=pue),
        )

    def test_zero_arrival_slots(self, tiny_model):
        lam, onsite, price = random_inputs(tiny_model, 200, 3, idle=0.3)
        res = batch_enumerate(tiny_model, lam, onsite, price, q=5.0)
        assert np.all(res.speed_level[lam == 0] == -1)
        assert_same_result(
            res, oracle_batch_enumerate(tiny_model, lam, onsite, price, q=5.0)
        )

    def test_single_group(self):
        model = DataCenterModel(fleet=Fleet([ServerGroup(opteron_2380(), 25)]))
        lam, onsite, price = random_inputs(model, 100, 4, idle=0.2)
        assert_same_result(
            batch_enumerate(model, lam, onsite, price, q=20.0),
            oracle_batch_enumerate(model, lam, onsite, price, q=20.0),
        )

    @pytest.mark.parametrize("profile", [opteron_2380, cubic_dvfs_profile])
    @pytest.mark.parametrize("beta", [10.0, 1.0])
    def test_unequal_group_counts(self, profile, beta):
        """Prefix sizes that are not evenly spaced.  The cubic DVFS profile
        makes lower speed levels win often, so the choice across levels is
        exercised too (on the Opteron the top level always wins)."""
        counts = [1, 40, 3, 17, 2, 90, 5, 11, 64, 7, 29]
        fleet = Fleet([ServerGroup(profile(), c) for c in counts])
        model = DataCenterModel(fleet=fleet, beta=beta)
        lam, onsite, price = random_inputs(model, 300, 5, idle=0.1)
        for q in (0.0, 30.0, 3000.0):
            assert_same_result(
                batch_enumerate(model, lam, onsite, price, q=q, V=2.0),
                oracle_batch_enumerate(model, lam, onsite, price, q=q, V=2.0),
            )

    @pytest.mark.parametrize("profile", [opteron_2380, cubic_dvfs_profile])
    def test_squared_load_delay(self, profile):
        fleet = Fleet([ServerGroup(profile(), 10) for _ in range(6)])
        model = DataCenterModel(
            fleet=fleet, beta=1.0, delay_model=SquaredLoadDelay()
        )
        lam, onsite, price = random_inputs(model, 200, 6, idle=0.1)
        for q in (0.0, 50.0):
            assert_same_result(
                batch_enumerate(model, lam, onsite, price, q=q),
                oracle_batch_enumerate(model, lam, onsite, price, q=q),
            )

    @pytest.mark.parametrize("profile", [opteron_2380, cubic_dvfs_profile])
    def test_exact_ties(self, profile):
        """With no delay charge, every on-set the on-site supply covers
        scores exactly zero: the sweep must take the grid's tie order
        (fewest servers, then lowest level) across that plateau."""
        fleet = Fleet([ServerGroup(profile(), 10) for _ in range(12)])
        model = DataCenterModel(fleet=fleet, beta=0.0)
        lam, onsite, price = random_inputs(model, 300, 7, idle=0.1)
        onsite = onsite * 2.0
        res = batch_enumerate(model, lam, onsite, price, q=10.0)
        assert np.count_nonzero((res.objective == 0.0) & (lam > 0)) > 30
        assert_same_result(
            res, oracle_batch_enumerate(model, lam, onsite, price, q=10.0)
        )

    def test_paper_scenario_calibration_passes(self, monkeypatch):
        """Both unaware sweeps that fix a paper-scale week's on-site scale
        and carbon budget."""
        calls = []

        def recording(model, *args, **kwargs):
            calls.append((model, args, kwargs))
            return batch_enumerate(model, *args, **kwargs)

        monkeypatch.setattr(scenarios, "batch_enumerate", recording)
        scenarios.paper_scenario(horizon=168)
        assert len(calls) == 2
        for model, args, kwargs in calls:
            assert_same_result(
                batch_enumerate(model, *args, **kwargs),
                oracle_batch_enumerate(model, *args, **kwargs),
            )


class TestFeasibility:
    def test_load_just_above_capacity_raises(self):
        """A load beyond ``check_feasible``'s 1e-12 window above capacity
        has no feasible candidate: it must raise like the per-slot engine,
        not come back as an all-off slot."""
        model = scenarios.small_scenario(horizon=4).model
        speeds = model.fleet.groups[0].profile.speeds
        capacity = model.fleet.counts.sum() * (model.gamma * speeds)[-1]
        lam = capacity * (1.0 + 1e-11)
        assert lam > capacity
        with pytest.raises(InfeasibleError):
            batch_enumerate(
                model, np.array([0.5 * capacity, lam]), np.zeros(2), np.full(2, 40.0)
            )
        problem = model.slot_problem(arrival_rate=lam, onsite=0.0, price=40.0)
        with pytest.raises(InfeasibleError):
            HomogeneousEnumerationSolver(switching_aware=False).solve(problem)

    def test_load_inside_the_window_is_served_at_the_cap(self):
        """A load a few ulps above capacity, inside ``check_feasible``'s
        window, is served by every server at its cap in both engines."""
        model = scenarios.small_scenario(horizon=4).model
        speeds = model.fleet.groups[0].profile.speeds
        capacity = model.fleet.counts.sum() * (model.gamma * speeds)[-1]
        lam = capacity * (1.0 + 5e-13)
        model.slot_problem(arrival_rate=lam, onsite=0.0, price=40.0).check_feasible()
        res = batch_enumerate(model, np.array([lam]), np.zeros(1), np.full(1, 40.0))
        assert res.servers_on[0] == model.fleet.num_servers
        problem = model.slot_problem(arrival_rate=lam, onsite=0.0, price=40.0)
        sol = HomogeneousEnumerationSolver(switching_aware=False).solve(problem)
        assert np.all(group_loads(model.fleet, sol.action) == model.gamma * speeds[-1])

    @pytest.mark.parametrize("gamma", np.linspace(0.5, 0.99, 50).tolist())
    def test_paper_fleet_at_capped_capacity(self, gamma):
        """The paper fleet at exactly ``fleet.capacity(gamma)`` -- accepted
        by ``check_feasible`` on the whole grid, while the rows' per-server
        load rounds above ``gamma * s`` at 0.59, 0.69, 0.72, 0.85 and 0.94
        -- is served by every server at top speed, within its cap, in both
        engines and their oracles alike."""
        fleet = Fleet([ServerGroup(opteron_2380(), 1080) for _ in range(200)])
        model = DataCenterModel(fleet=fleet, gamma=gamma)
        lam = fleet.capacity(gamma)
        top = fleet.groups[0].profile.speeds.size - 1
        problem = model.slot_problem(arrival_rate=lam, onsite=0.0, price=40.0)
        problem.check_feasible()
        sol = HomogeneousEnumerationSolver().solve(problem)
        assert np.all(sol.action.levels == top)
        assert np.all(group_loads(fleet, sol.action) <= gamma * fleet.speed_table[:, top])
        validate_action(fleet, sol.action, lam, gamma)
        args = (model, np.array([lam]), np.zeros(1), np.full(1, 40.0))
        res = batch_enumerate(*args)
        assert res.servers_on[0] == fleet.num_servers
        assert res.speed_level[0] == top
        assert res.objective[0] == pytest.approx(sol.evaluation.objective, rel=1e-12)
        assert_same_result(res, oracle_batch_enumerate(*args))

    def test_load_at_capacity_is_feasible(self, tiny_model):
        speeds = tiny_model.fleet.groups[0].profile.speeds
        capacity = tiny_model.fleet.counts.sum() * (tiny_model.gamma * speeds)[-1]
        res = batch_enumerate(
            tiny_model, np.array([capacity]), np.zeros(1), np.full(1, 40.0)
        )
        assert res.servers_on[0] == tiny_model.fleet.num_servers
        assert res.speed_level[0] == speeds.size - 1


class TestValidation:
    """The convexity preconditions are enforced, scalar or per slot."""

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"price": np.array([40.0, -1.0, 40.0])}, "price"),
            ({"q": -0.5}, "deficit"),
            ({"q": np.array([1.0, 2.0, -1e-9])}, "deficit"),
            ({"V": 0.0}, "V must be positive"),
            ({"V": -2.0}, "V must be positive"),
            ({"pue": 0.99}, "PUE"),
            ({"pue": np.array([1.2, 0.5, 1.2])}, "PUE"),
        ],
    )
    def test_rejected(self, tiny_model, kwargs, match):
        args = {
            "arrival": np.full(3, 100.0),
            "onsite": np.zeros(3),
            "price": np.full(3, 40.0),
        }
        args.update(kwargs)
        with pytest.raises(ValueError, match=match):
            batch_enumerate(tiny_model, **args)
