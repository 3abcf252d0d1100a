"""Failed server groups as a constraint of the slot problem.

:attr:`~repro.solvers.problem.SlotProblem.failed` carries the groups that
are down; every engine holds them off in place.  These tests pin the
masked engines to the sub-fleet oracle (``tests/failed_groups_oracle.py``)
slot by slot, the problem's own validation of the failed set, and the
single feasibility check and bill per slot.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import Fleet, ServerGroup, cubic_dvfs_profile, opteron_2380
from repro.cluster.switching import SwitchingCostModel
from repro.core import COCA, DataCenterModel
from repro.scenarios import small_scenario
from repro.solvers import (
    CoordinateDescentSolver,
    DistributedGSD,
    GSDSolver,
    HomogeneousEnumerationSolver,
    InfeasibleError,
    SlotProblem,
    initial_levels,
)
from tests.conftest import make_problem, validate_action
from tests.failed_groups_oracle import solve_with_failed_groups, subset

ENGINES = {
    "enumeration": lambda: HomogeneousEnumerationSolver(),
    "gsd": lambda: GSDSolver(iterations=80, rng=np.random.default_rng(3)),
    "distributed": lambda: DistributedGSD(iterations=40, rng=np.random.default_rng(3)),
    "coordinate_descent": lambda: CoordinateDescentSolver(
        restarts=3, rng=np.random.default_rng(3)
    ),
}


def random_fleet(rng, homogeneous: bool) -> Fleet:
    """Up to 9 groups of random sizes; two profiles unless ``homogeneous``,
    listed in random order so the survivors may renumber them."""
    makers = (opteron_2380, lambda: cubic_dvfs_profile(levels=2))
    G = int(rng.integers(2, 10))
    return Fleet(
        [
            ServerGroup(
                opteron_2380() if homogeneous else makers[int(rng.integers(0, 2))](),
                int(rng.integers(1, 40)),
            )
            for _ in range(G)
        ]
    )


def random_problem(rng, fleet: Fleet) -> SlotProblem:
    """A slot on ``fleet`` with a random failed set (possibly empty),
    switching memory, network delay and PUE, loaded to a random share of
    the survivors' capped capacity."""
    G = fleet.num_groups
    failed = [int(g) for g in np.flatnonzero(rng.random(G) < 0.4)][: G - 1]
    # Toggle energies of ~9 and ~87 server-hours at full power, so the switching
    # charge can move the choice on these small fleets.
    switching = SwitchingCostModel(
        energy_per_toggle=float(rng.choice([0.0, 2e-3, 2e-2])),
        charge_off=bool(rng.random() < 0.5),
    )
    model = DataCenterModel(fleet=fleet, switching=switching)
    healthy = [g for g in range(G) if g not in failed]
    survivors = subset(fleet, healthy)
    return model.slot_problem(
        arrival_rate=float(rng.uniform(0.02, 0.95)) * survivors.capacity(model.gamma),
        onsite=float(rng.uniform(0.0, 0.6)) * fleet.max_power,
        price=float(rng.uniform(5.0, 120.0)),
        q=float(rng.choice([0.0, rng.uniform(0.0, 300.0)])),
        V=float(rng.uniform(1.0, 200.0)),
        prev_on_counts=np.where(rng.random(G) < 0.5, fleet.counts, 0.0),
        network_delay=float(rng.choice([0.0, 0.01])),
        pue_override=float(rng.choice([1.0, 1.4])),
        failed=failed,
    )


class TestMaskedEnginesMatchOracle:
    """Each engine on the masked full-fleet problem returns the sub-fleet
    oracle's action and evaluation, bit for bit."""

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_slot_matches_sub_fleet_oracle(self, engine):
        rng = np.random.default_rng(31)
        masked_slots = 0
        for _ in range(24):
            fleet = random_fleet(rng, homogeneous=engine == "enumeration")
            problem = random_problem(rng, fleet)
            got = ENGINES[engine]().solve(problem)
            want = solve_with_failed_groups(
                ENGINES[engine](), replace(problem, failed=None), problem.failed or ()
            )
            assert got.action == want.action
            assert got.evaluation == want.evaluation
            validate_action(fleet, got.action, problem.arrival_rate, problem.gamma)
            if problem.failed is not None:
                assert (got.action.levels[list(problem.failed)] == -1).all()
                masked_slots += 1
        assert masked_slots >= 12

    def test_healthy_capacity_has_the_sub_fleet_bits(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            fleet = random_fleet(rng, homogeneous=False)
            keep = np.flatnonzero(rng.random(fleet.num_groups) < 0.6)
            if keep.size:
                assert fleet.capacity(0.93, keep) == subset(fleet, keep).capacity(0.93)
        assert fleet.capacity(0.93, np.arange(fleet.num_groups)) == fleet.capacity(0.93)


class TestFailedSetValidation:
    """The slot problem validates and normalizes its failed set."""

    def test_out_of_range(self, tiny_model):
        for failed in ([1, 3], [-1], [7]):
            with pytest.raises(ValueError, match="out of range"):
                make_problem(tiny_model, lam_frac=0.2, failed=failed)

    def test_survivors_short_of_capacity(self, tiny_model):
        problem = make_problem(tiny_model, lam_frac=0.9, failed=[0, 1])
        with pytest.raises(InfeasibleError, match="exceeds capped capacity"):
            problem.check_feasible()
        for engine in ENGINES.values():
            with pytest.raises(InfeasibleError):
                engine().solve(problem)
        # Two survivors carry 60% of the full fleet's capped capacity.
        make_problem(tiny_model, lam_frac=0.6, failed=[1]).check_feasible()

    def test_normalized(self, tiny_model):
        problem = make_problem(tiny_model, lam_frac=0.2, failed=(2, 0, 2))
        assert problem.failed == (0, 2)
        assert problem.healthy.tolist() == [1]
        for empty in (None, (), frozenset()):
            problem = make_problem(tiny_model, lam_frac=0.2, failed=empty)
            assert problem.failed is None
            assert problem.healthy.tolist() == [0, 1, 2]

    def test_initial_levels_fill_only_healthy_groups(self, tiny_model):
        problem = make_problem(tiny_model, lam_frac=0.3, failed=[0])
        assert initial_levels(problem, "max").tolist() == [-1, 3, 3]
        assert initial_levels(problem, "min-capacity").tolist() == [-1, 3, -1]


def test_gsd_accepts_a_full_fleet_start_with_failed_groups():
    """A full-fleet ``initial_levels`` is valid on any slot; its failed
    entries are forced off."""
    scenario = small_scenario(horizon=24, seed=11)
    fleet = scenario.model.fleet
    problem = make_problem(scenario.model, lam_frac=0.3, failed=[0])
    for start in (np.full(8, -1), fleet.num_levels - 1):
        solver = GSDSolver(iterations=10, initial_levels=start)
        solution = solver.solve(problem)
        assert solution.action.levels[0] == -1
        assert solution.info["chain_levels"][0] == -1
        validate_action(fleet, solution.action, problem.arrival_rate, problem.gamma)


def test_failed_slot_checks_and_bills_once(monkeypatch):
    """COCA on the exact engine checks feasibility once and bills once on
    a slot with failed groups: the engine's evaluation is the slot's."""
    scenario = small_scenario(horizon=24, seed=11)
    controller = COCA(
        scenario.model, scenario.environment.portfolio, v_schedule=150.0,
        alpha=scenario.alpha,
    )
    counts = {"check_feasible": 0, "cost_terms": 0}
    for name in counts:
        method = getattr(SlotProblem, name)

        def counted(self, *args, _method=method, _name=name):
            counts[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(SlotProblem, name, counted)
    controller.set_failed_groups(frozenset({1, 4}))
    solution = controller.decide(scenario.environment.observation(0))
    assert solution.action.levels[[1, 4]].tolist() == [-1, -1]
    assert counts == {"check_feasible": 1, "cost_terms": 1}
