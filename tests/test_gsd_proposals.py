"""GSD's proposal set (Algorithm 2, line 7).

With load to serve and delay priced, a group explores off plus the
undominated levels of its own profile; otherwise every level.  On a profile
with no dominated level the draw is the all-levels one, level
``int(u * (K + 1)) - 1``, bit for bit.  A solve draws its randomness once,
``3 * iterations`` doubles.
"""

import math

import numpy as np
import pytest

from repro.cluster import Fleet, ServerGroup, cubic_dvfs_profile, default_fleet, opteron_2380
from repro.core import DataCenterModel
from repro.solvers import DistributedGSD, GSDSolver
from repro.solvers import convex
from repro.solvers.fastpath import EvaluationCache
from repro.solvers.gsd import _acceptance_probability
from tests.conftest import make_problem


class _Recording(GSDSolver):
    """GSD that keeps a copy of every level vector it scores."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.scored: list[np.ndarray] = []

    def _scorer(self, problem, cache, score):
        def recorded(c):
            self.scored.append(list(c.levels))
            return score(c)

        return recorded


def _scored(problem, *, iterations=300, seed=0):
    solver = _Recording(iterations=iterations, delta=1e4, rng=np.random.default_rng(seed))
    solver.solve(problem)
    return np.array(solver.scored)


def _paper_model(**kw):
    return DataCenterModel(fleet=default_fleet(num_groups=8, servers_per_group=100), **kw)


class TestPredicate:
    def test_load_and_priced_delay_drop_dominated_levels(self):
        model = _paper_model(beta=10.0)
        assert make_problem(model, lam_frac=0.4).drops_dominated_levels
        assert not make_problem(model, lam_frac=0.0).drops_dominated_levels
        assert not make_problem(_paper_model(beta=0.0), lam_frac=0.4).drops_dominated_levels


class TestProposals:
    def test_paper_fleet_never_proposes_dominated_levels(self):
        problem = make_problem(_paper_model(beta=10.0), lam_frac=0.4, q=5.0, V=50.0)
        scored = _scored(problem)
        assert len(scored) > 50
        assert set(np.unique(scored).tolist()) == {-1, 3}

    @pytest.mark.parametrize("case", ["no_load", "no_delay_price"])
    def test_every_level_proposed_without_the_predicate(self, case):
        if case == "no_load":
            problem = make_problem(_paper_model(beta=10.0), lam_frac=0.0)
        else:
            problem = make_problem(_paper_model(beta=0.0), lam_frac=0.4, q=5.0, V=50.0)
        assert not problem.drops_dominated_levels
        assert set(np.unique(_scored(problem)).tolist()) == {-1, 0, 1, 2, 3}

    def test_each_group_draws_from_its_own_profile(self):
        # Cubic groups (no dominated level) first: a draw from the first
        # profile's set alone would move the Opteron groups to levels 0-2.
        fleet = Fleet(
            [ServerGroup(cubic_dvfs_profile(), 12) for _ in range(3)]
            + [ServerGroup(opteron_2380(), 10) for _ in range(3)]
        )
        problem = make_problem(DataCenterModel(fleet=fleet, beta=10.0), lam_frac=0.4, q=5.0)
        scored = _scored(problem, iterations=400)
        cubic, opteron = scored[:, :3], scored[:, 3:]
        assert set(np.unique(opteron).tolist()) == {-1, 3}
        assert set(np.unique(cubic).tolist()) == {-1, 0, 1, 2, 3}
        assert fleet.level_options[1] == ((-1, 0, 1, 2, 3),) * 3 + ((-1, 3),) * 3


def _all_levels_chain(problem, *, iterations, delta, rng):
    """GSD's chain with the all-levels draw, level ``int(u * (K + 1)) - 1``
    from one ``random((iterations, 3))`` draw, as it would run without
    pruned proposals: ``(best levels, best objective, chain levels, chain
    objective per iteration)``."""
    cache = EvaluationCache(problem)
    groups = problem.healthy.tolist()
    current = cache.reset(convex.initial_levels(problem))
    levels = cache.levels
    best_levels, best = list(levels), current
    chain = []
    for u_group, u_level, u_accept in rng.random((iterations, 3)):
        g = groups[int(u_group * len(groups))]
        proposal = int(u_level * (problem.fleet.num_levels[g] + 1)) - 1
        if proposal != levels[g]:
            old = levels[g]
            explored = cache.flip(g, proposal)
            if math.isfinite(explored) and u_accept < _acceptance_probability(
                delta, explored, current
            ):
                current = explored
                if explored < best:
                    best, best_levels = explored, list(levels)
            else:
                cache.move(g, old)
        chain.append(current)
    return np.array(best_levels), best, np.array(levels), np.array(chain)


class TestUnprunedProfile:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cubic_fleet_chain_is_the_all_levels_chain(self, seed):
        fleet = Fleet([ServerGroup(cubic_dvfs_profile(), 12) for _ in range(5)])
        problem = make_problem(DataCenterModel(fleet=fleet, beta=10.0), lam_frac=0.4, q=5.0)
        assert problem.drops_dominated_levels
        assert fleet.level_options[0] == fleet.level_options[1]
        solution = GSDSolver(
            iterations=200, delta=1e4, rng=np.random.default_rng(seed), record_history=True
        ).solve(problem)
        best_levels, best, chain_levels, chain = _all_levels_chain(
            problem, iterations=200, delta=1e4, rng=np.random.default_rng(seed)
        )
        np.testing.assert_array_equal(solution.action.levels, best_levels)
        np.testing.assert_array_equal(solution.info["chain_levels"], chain_levels)
        assert solution.info["final_objective"] == best
        np.testing.assert_array_equal(solution.info["trace"].chain_objective, chain)


class TestOneDrawPerSolve:
    """A solve advances its generator by exactly ``3 * iterations``
    doubles, however many proposals repeat the current level, are screened
    or rejected: kill/resume replays the same chains."""

    @pytest.mark.parametrize("solver_cls", [GSDSolver, DistributedGSD])
    @pytest.mark.parametrize("iterations", [1, 37, 200])
    def test_generator_advances_three_doubles_per_iteration(self, solver_cls, iterations):
        problem = make_problem(_paper_model(beta=10.0), lam_frac=0.4, q=5.0, V=50.0)
        solver = solver_cls(iterations=iterations, delta=1e4, rng=np.random.default_rng(5))
        for _ in range(2):
            solver.solve(problem)
        reference = np.random.default_rng(5)
        reference.random(2 * 3 * iterations)
        assert solver.rng.bit_generator.state == reference.bit_generator.state

    def test_telemetry_and_failed_groups_draw_no_more(self):
        from repro.telemetry import Telemetry

        problem = make_problem(
            _paper_model(beta=10.0), lam_frac=0.3, q=5.0, V=50.0, failed=(1, 4)
        )
        solver = GSDSolver(iterations=50, delta=1e4, rng=np.random.default_rng(6))
        solver.bind_telemetry(Telemetry())
        solution = solver.solve(problem)
        assert solution.action.levels[[1, 4]].tolist() == [-1, -1]
        assert "gap_rel" in solution.info  # the exact shadow solve ran
        reference = np.random.default_rng(6)
        reference.random(3 * 50)
        assert solver.rng.bit_generator.state == reference.bit_generator.state
