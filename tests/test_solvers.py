"""Cross-validation of the P3 engines against the brute-force oracle.

Theorem 1 says GSD converges to the global optimum as delta grows; the
enumeration engine is exact for homogeneous fleets by construction; and
coordinate descent should find the optimum on these small instances.  All
three are checked against exhaustive search on randomized slot problems.
"""

import numpy as np
import pytest

from repro.solvers import (
    CoordinateDescentSolver,
    GSDSolver,
    HomogeneousEnumerationSolver,
    InfeasibleError,
    geometric_temperature,
)
from tests.brute_force_oracle import BruteForceOracle
from tests.conftest import make_problem


def random_problem(model, rng, *, q_choices=(0.0, 5.0, 50.0)):
    return make_problem(
        model,
        lam_frac=float(rng.uniform(0.02, 0.9)),
        onsite=float(rng.uniform(0.0, 0.004)),
        price=float(rng.uniform(10.0, 80.0)),
        q=float(rng.choice(q_choices)),
    )


class TestBruteForce:
    def test_config_count(self, tiny_model):
        assert BruteForceOracle().config_count(make_problem(tiny_model)) == 5**3

    def test_cap_enforced(self, tiny_model):
        solver = BruteForceOracle(max_configs=10)
        with pytest.raises(ValueError, match="cap"):
            solver.solve(make_problem(tiny_model))

    def test_infeasible_slot(self, tiny_model):
        with pytest.raises(InfeasibleError):
            BruteForceOracle().solve(make_problem(tiny_model, lam_frac=1.2))

    def test_action_is_valid(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=0.5)
        sol = BruteForceOracle().solve(p)
        tiny_model.fleet.validate_action(
            sol.action.levels, sol.action.per_server_load, p.arrival_rate, p.gamma
        )


class TestEnumerationExactness:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_homogeneous(self, tiny_model, seed):
        rng = np.random.default_rng(seed)
        p = random_problem(tiny_model, rng)
        bf = BruteForceOracle().solve(p)
        en = HomogeneousEnumerationSolver().solve(p)
        assert en.objective == pytest.approx(bf.objective, rel=1e-9, abs=1e-12)

    def test_rejects_heterogeneous(self, hetero_model):
        with pytest.raises(ValueError, match="single-profile"):
            HomogeneousEnumerationSolver().solve(make_problem(hetero_model))

    def test_zero_load_goes_all_off(self, tiny_model):
        sol = HomogeneousEnumerationSolver().solve(make_problem(tiny_model, lam_frac=0.0))
        assert sol.evaluation.it_power == 0.0
        assert np.all(sol.action.levels == -1)

    def test_reports_diagnostics(self, tiny_model):
        sol = HomogeneousEnumerationSolver().solve(make_problem(tiny_model, lam_frac=0.5))
        assert sol.info["servers_on"] > 0
        assert sol.info["candidates"] > 0

    def test_switching_aware_avoids_thrash(self, tiny_model):
        """With huge switching costs and all servers previously on, the
        switching-aware solver should keep them on rather than power-cycle
        down and up."""
        from dataclasses import replace

        from repro.cluster import SwitchingCostModel

        model = replace(
            tiny_model, switching=SwitchingCostModel(energy_per_toggle=10.0, charge_off=True)
        )
        p = model.slot_problem(
            arrival_rate=0.3 * model.fleet.capacity(model.gamma),
            onsite=0.0,
            price=40.0,
            prev_on_counts=model.fleet.counts.copy(),
        )
        aware = HomogeneousEnumerationSolver(switching_aware=True).solve(p)
        naive = HomogeneousEnumerationSolver(switching_aware=False).solve(p)
        assert aware.action.active_servers(model.fleet) >= naive.action.active_servers(
            model.fleet
        )
        assert aware.evaluation.switching_energy <= naive.evaluation.switching_energy


class TestCoordinateDescent:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, hetero_model, seed):
        rng = np.random.default_rng(seed)
        p = random_problem(hetero_model, rng, q_choices=(0.0, 20.0))
        bf = BruteForceOracle().solve(p)
        cd = CoordinateDescentSolver(restarts=8).solve(p)
        assert cd.objective <= bf.objective * (1.0 + 1e-9) + 1e-12

    def test_deterministic_given_seed(self, hetero_model):
        p = make_problem(hetero_model, lam_frac=0.4)
        a = CoordinateDescentSolver(rng=np.random.default_rng(3), restarts=2).solve(p)
        b = CoordinateDescentSolver(rng=np.random.default_rng(3), restarts=2).solve(p)
        assert a.objective == b.objective

    def test_validation(self):
        with pytest.raises(ValueError):
            CoordinateDescentSolver(max_sweeps=0)
        with pytest.raises(ValueError):
            CoordinateDescentSolver(restarts=0)


class TestGSD:
    @pytest.mark.parametrize("seed", range(5))
    def test_converges_to_optimum_homogeneous(self, tiny_model, seed):
        """Theorem 1: large delta concentrates on the global optimum."""
        rng = np.random.default_rng(seed)
        p = random_problem(tiny_model, rng)
        bf = BruteForceOracle().solve(p)
        delta = GSDSolver.auto_delta(p, greediness=3.0)
        gsd = GSDSolver(
            iterations=3000,
            delta=geometric_temperature(delta, 1.001),
            rng=np.random.default_rng(seed + 100),
        ).solve(p)
        assert gsd.objective <= bf.objective * 1.02 + 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_converges_heterogeneous_with_adaptive_delta(self, hetero_model, seed):
        rng = np.random.default_rng(seed)
        p = random_problem(hetero_model, rng, q_choices=(0.0, 20.0))
        delta = GSDSolver.auto_delta(p, greediness=2.0)
        gsd = GSDSolver(
            iterations=4000,
            delta=geometric_temperature(delta, 1.002),
            rng=np.random.default_rng(seed),
        ).solve(p)
        bf = BruteForceOracle().solve(p)
        assert gsd.objective <= bf.objective * 1.02 + 1e-12

    def test_history_recorded(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=0.5)
        sol = GSDSolver(iterations=200, delta=1e3, record_history=True).solve(p)
        trace = sol.info["trace"]
        assert len(trace) == 200
        # Best-so-far is monotone nonincreasing.
        assert np.all(np.diff(trace.best_objective) <= 1e-12)
        assert 0.0 <= trace.acceptance_rate <= 1.0

    def test_best_never_worse_than_initial(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=0.6)
        levels0 = np.full(3, 3, dtype=np.int64)
        from repro.solvers import solve_fixed_levels

        _, ev0 = solve_fixed_levels(p, levels0)
        sol = GSDSolver(iterations=500, delta=1e5, initial_levels=levels0).solve(p)
        assert sol.objective <= ev0.objective + 1e-12

    def test_infeasible_initial_recovers(self, tiny_model):
        p = make_problem(tiny_model, lam_frac=0.8)
        sol = GSDSolver(
            iterations=300, delta=1e5, initial_levels=np.array([-1, -1, -1])
        ).solve(p)
        assert np.isfinite(sol.objective)

    def test_larger_delta_more_greedy(self, tiny_model):
        """Fig. 4(a) mechanism: larger delta accepts fewer uphill moves."""
        p = make_problem(tiny_model, lam_frac=0.5)
        small = GSDSolver(
            iterations=800,
            delta=GSDSolver.auto_delta(p, greediness=0.05),
            rng=np.random.default_rng(0),
            record_history=True,
        ).solve(p)
        large = GSDSolver(
            iterations=800,
            delta=GSDSolver.auto_delta(p, greediness=100.0),
            rng=np.random.default_rng(0),
            record_history=True,
        ).solve(p)
        # The hot chain wanders more: its mean chain objective sits above
        # the greedy chain's.
        assert (
            small.info["trace"].chain_objective.mean()
            > large.info["trace"].chain_objective.mean()
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            GSDSolver(iterations=0)
        with pytest.raises(ValueError):
            GSDSolver(delta=-1.0)
        with pytest.raises(ValueError):
            geometric_temperature(-1.0)
        with pytest.raises(ValueError):
            geometric_temperature(1.0, 0.5)
