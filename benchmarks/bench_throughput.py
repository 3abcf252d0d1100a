"""Engine-room benchmarks: simulation and sweep throughput.

Not a paper figure -- these time the building blocks the experiment harness
leans on, so regressions in the hot paths (the vectorized whole-year sweep,
the per-slot enumeration engine, a full COCA policy-year) are visible.
"""

import numpy as np

from repro.core import COCA
from repro.sim import simulate
from repro.solvers import HomogeneousEnumerationSolver
from repro.solvers.batch import batch_enumerate


def test_batch_year_sweep(benchmark, fiu_scenario):
    """One whole-horizon year sweep (8760 slots x 4 speed levels, the
    servers-on count bisected over 201 sizes) at fixed q."""
    sc = fiu_scenario
    env = sc.environment

    result = benchmark(
        lambda: batch_enumerate(
            sc.model,
            env.actual_workload.values,
            env.portfolio.onsite.values,
            env.price.values,
            q=100.0,
        )
    )
    assert np.isfinite(result.total_brown)


def test_single_slot_enumeration(benchmark, fiu_scenario):
    """The per-slot engine COCA calls 8760 times per policy-year."""
    sc = fiu_scenario
    obs = sc.environment.observation(1500)
    problem = sc.model.slot_problem(
        arrival_rate=obs.arrival_rate, onsite=obs.onsite, price=obs.price, q=50.0
    )
    solver = HomogeneousEnumerationSolver()
    sol = benchmark(lambda: solver.solve(problem))
    assert np.isfinite(sol.objective)


def test_coca_policy_year(benchmark, fiu_scenario):
    """A full closed-loop COCA year (decide + realize + queue update)."""
    sc = fiu_scenario

    def run():
        controller = COCA(
            sc.model, sc.environment.portfolio, v_schedule=100.0, alpha=sc.alpha
        )
        return simulate(sc.model, controller, sc.environment)

    record = benchmark.pedantic(run, rounds=2, iterations=1)
    assert record.horizon == 8760


def _gsd_slot_problem(sc):
    """Paper-scale GSD snapshot (slot 1500, no queue), as in Fig. 4."""
    obs = sc.environment.observation(1500)
    return sc.model.slot_problem(
        arrival_rate=obs.arrival_rate, onsite=obs.onsite, price=obs.price, q=0.0
    )


def test_gsd_200groups_500iters(benchmark, fiu_scenario):
    """The paper's timing claim: a 500-iteration GSD chain on 200 groups.

    Runs the shipped chain (evaluation cache + warm-started inner solves);
    the fast-path counters land in ``extra_info`` in the benchmark JSON.
    """
    from repro.solvers import GSDSolver

    problem = _gsd_slot_problem(fiu_scenario)

    def run():
        solver = GSDSolver(iterations=500, rng=np.random.default_rng(0))
        return solver.solve(problem)

    sol = benchmark(run)
    assert np.isfinite(sol.objective)
    benchmark.extra_info.update(sol.info["fastpath"])


def _cd_hetero_problem():
    from repro.cluster import Fleet, ServerGroup, cubic_dvfs_profile, opteron_2380
    from repro.core import DataCenterModel

    groups = [ServerGroup(opteron_2380(), 60) for _ in range(12)] + [
        ServerGroup(cubic_dvfs_profile(), 40) for _ in range(8)
    ]
    model = DataCenterModel(fleet=Fleet(groups), beta=10.0)
    return model.slot_problem(
        arrival_rate=0.55 * model.fleet.capacity(model.gamma),
        onsite=0.2,
        price=40.0,
        q=5.0,
    )


def test_coordinate_descent_hetero(benchmark):
    """Coordinate descent on a heterogeneous fleet (no enumeration engine
    applies), as shipped: evaluation cache, cold inner solves."""
    from repro.solvers import CoordinateDescentSolver

    problem = _cd_hetero_problem()

    def run():
        solver = CoordinateDescentSolver(restarts=4, rng=np.random.default_rng(0))
        return solver.solve(problem)

    sol = benchmark(run)
    assert np.isfinite(sol.objective)
    benchmark.extra_info.update(sol.info["fastpath"])
