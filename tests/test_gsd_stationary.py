"""Statistical validation of Theorem 1's stationary distribution.

Appendix A proves the GSD Markov chain's stationary distribution is

    Omega(x)  =  exp(delta / g~(x)) / sum_x' exp(delta / g~(x')).

On a one-group fleet the chain lives on the K feasible speed levels, small
enough to compare empirical visit frequencies against Omega directly, and
to check the two limiting regimes: delta -> 0 approaches uniform
exploration, large delta concentrates on the minimizer.
"""

import numpy as np
import pytest

from repro.cluster import Fleet, ServerGroup, cubic_dvfs_profile
from repro.core import DataCenterModel
from repro.solvers import GSDSolver, solve_fixed_levels


@pytest.fixture(scope="module")
def one_group_problem():
    # A DVFS curve has no dominated level, so the chain proposes all four
    # speeds (on the Opteron only the top speed would stay).  Exponent 2
    # puts the best level 2.6% below the next; at the default 3 the top
    # two levels sit 0.16% apart, too close for any delta here to single
    # one out.
    fleet = Fleet([ServerGroup(cubic_dvfs_profile(exponent=2.0), 5)])
    model = DataCenterModel(fleet=fleet, beta=10.0)
    # Light load: every positive speed level is feasible; off is not.
    lam = 0.15 * fleet.capacity(model.gamma)
    return model.slot_problem(arrival_rate=lam, onsite=0.0, price=40.0, q=5.0)


def state_objectives(problem):
    """g~ for each feasible level of the single group."""
    out = {}
    for level in range(4):
        _, ev = solve_fixed_levels(problem, np.array([level]))
        out[level] = ev.objective
    return out


def run_chain(problem, delta, iterations, seed=0):
    solver = GSDSolver(
        iterations=iterations,
        delta=delta,
        rng=np.random.default_rng(seed),
        record_history=True,
        initial_levels=np.array([0]),
    )
    sol = solver.solve(problem)
    return sol.info["trace"].chain_objective


class TestStationaryDistribution:
    def test_empirical_matches_omega(self, one_group_problem):
        objectives = state_objectives(one_group_problem)
        # Temperature giving meaningful but not degenerate discrimination.
        g_vals = np.array(sorted(objectives.values()))
        delta = 2.0 / (1.0 / g_vals.min() - 1.0 / g_vals.max())

        chain = run_chain(one_group_problem, delta, iterations=40_000)
        burn = chain[8_000:]

        omega = {
            lvl: np.exp(delta / g) for lvl, g in objectives.items()
        }
        total = sum(omega.values())
        for lvl, g in objectives.items():
            expected = omega[lvl] / total
            empirical = float(np.mean(np.isclose(burn, g, rtol=1e-9)))
            assert empirical == pytest.approx(expected, abs=0.05), (
                f"level {lvl}: empirical {empirical:.3f} vs Omega {expected:.3f}"
            )

    def test_small_delta_explores_everything(self, one_group_problem):
        objectives = state_objectives(one_group_problem)
        chain = run_chain(one_group_problem, delta=1e-9, iterations=20_000, seed=1)
        burn = chain[4_000:]
        for g in objectives.values():
            frequency = float(np.mean(np.isclose(burn, g, rtol=1e-9)))
            # Near-zero temperature -> near-uniform over the 4 states.
            assert frequency == pytest.approx(0.25, abs=0.06)

    def test_large_delta_concentrates_on_minimizer(self, one_group_problem):
        objectives = state_objectives(one_group_problem)
        g_min = min(objectives.values())
        g_vals = np.array(sorted(objectives.values()))
        delta = 200.0 / (1.0 / g_vals.min() - 1.0 / g_vals.max())
        chain = run_chain(one_group_problem, delta, iterations=20_000, seed=2)
        burn = chain[4_000:]
        at_min = float(np.mean(np.isclose(burn, g_min, rtol=1e-9)))
        assert at_min > 0.95
