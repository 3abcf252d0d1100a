#!/usr/bin/env python
"""GSD in action: the paper's distributed Gibbs-sampling solver (Fig. 4).

Takes one slot's P3 problem, then:

1. runs GSD at several temperatures ``delta`` and prints how the total cost
   descends over iterations (Fig. 4(a): larger delta is greedier);
2. runs GSD from different initial points at a fixed delta and shows the
   final costs coincide (Fig. 4(b): insensitivity to initialization);
3. runs the distributed protocol (the same chain, each step billed as the
   messages the server agents and the load coordinator would exchange) on
   a reliable and on a lossy network and reports the communication bill.

Run:  python examples/distributed_gsd.py
"""

import numpy as np

from repro import small_scenario
from repro.analysis import render_table
from repro.solvers import (
    BusTimeoutError,
    DistributedGSD,
    GSDSolver,
    HomogeneousEnumerationSolver,
    MessageTransport,
    geometric_temperature,
)

scenario = small_scenario(horizon=24 * 7)
env = scenario.environment

# A busy afternoon slot, mid-week.
t = 14 + 24 * 3
obs = env.observation(t)
problem = scenario.model.slot_problem(
    arrival_rate=obs.arrival_rate, onsite=obs.onsite, price=obs.price, q=0.5, V=1.0
)
exact = HomogeneousEnumerationSolver().solve(problem)
print(f"slot {t}: lambda={obs.arrival_rate:.0f} req/s, w={obs.price:.1f} $/MWh")
print(f"exact optimum objective: {exact.objective:.6f}\n")

# ---------------------------------------------------------- Fig. 4(a)
print("Fig. 4(a): GSD cost vs iteration for different temperatures")
base = GSDSolver.auto_delta(problem, greediness=1.0)
rows = []
traces = {}
for mult in [3.0, 30.0, 300.0]:
    solver = GSDSolver(
        iterations=600,
        delta=base * mult,
        rng=np.random.default_rng(0),
        record_history=True,
    )
    sol = solver.solve(problem)
    trace = sol.info["trace"]
    traces[mult] = trace
    rows.append(
        {
            "delta": base * mult,
            "final_best": trace.best_objective[-1],
            "gap_vs_exact": trace.best_objective[-1] / exact.objective - 1.0,
            "acceptance_rate": trace.acceptance_rate,
        }
    )
print(render_table(rows))
print()
checkpoints = [0, 50, 100, 200, 400, 599]
iter_rows = [
    {
        "iteration": it,
        **{f"delta x{m:g}": traces[m].best_objective[it] for m in traces},
    }
    for it in checkpoints
]
print(render_table(iter_rows, title="best objective over iterations"))

# ---------------------------------------------------------- Fig. 4(b)
print("\nFig. 4(b): insensitivity to the initial point (fixed delta)")
fleet = scenario.model.fleet
rng = np.random.default_rng(7)
rows = []
for name, init in [
    ("all top speed", (fleet.num_levels - 1).astype(np.int64)),
    ("all lowest speed", np.zeros(fleet.num_groups, dtype=np.int64)),
    ("random", rng.integers(-1, 4, size=fleet.num_groups).astype(np.int64)),
]:
    sol = GSDSolver(
        iterations=1500,
        delta=geometric_temperature(base * 30.0, 1.005),
        rng=np.random.default_rng(1),
        initial_levels=init,
    ).solve(problem)
    rows.append(
        {
            "initial point": name,
            "final objective": sol.objective,
            "gap_vs_exact": sol.objective / exact.objective - 1.0,
        }
    )
print(render_table(rows))

# ---------------------------------------------------------- distributed run
print("\nDistributed execution (the same chain, billed as protocol messages):")
dgsd = DistributedGSD(iterations=120, delta=base * 300.0, rng=np.random.default_rng(2))
sol = dgsd.solve(problem)
print(f"  objective           : {sol.objective:.6f} "
      f"({100 * (sol.objective / exact.objective - 1):.2f}% vs exact)")
print(f"  messages delivered  : {sol.info['messages']:,}")
for kind, count in sorted(sol.info["messages_by_kind"].items()):
    print(f"    {kind:<12}: {count:,}")

# The same solve over a lossy network: 10% loss, 3% late replies, 2%
# duplicates, each message retried up to 3 times.  A pricing that stays
# unanswered makes its exploration infeasible; the chain moves on.
lossy = DistributedGSD(
    iterations=120, delta=base * 300.0, rng=np.random.default_rng(2), retries=3
)
lossy.transport_factory = lambda groups, retries: MessageTransport(
    groups, retries=retries, loss=0.10, delay=0.03, duplicate=0.02,
    rng=np.random.default_rng(5),
)
try:
    sol = lossy.solve(problem)
    print(f"  lossy objective     : {sol.objective:.6f} "
          f"({100 * (sol.objective / exact.objective - 1):.2f}% vs exact)")
except BusTimeoutError as err:
    # The simulator retries such a slot, then falls back to a safe action.
    print(f"  lossy solve failed  : {err}")
transport = lossy.last_transport
print(f"  pricings lost       : {transport.lost_pricings} of {transport.pricings}")
print("  faults              : " + ", ".join(
    f"{count:,} {name}" for name, count in transport.fault_stats().items()
) + f", {transport.retries_used:,} re-sends")
