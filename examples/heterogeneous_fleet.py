#!/usr/bin/env python
"""Heterogeneous fleet management: where DVFS speed selection earns its keep.

The paper emphasizes that COCA handles "a practical data center with
heterogeneous servers" via server-level DVFS.  The paper's own measured
Opteron profile has a degenerate optimum (its top speed dominates on every
axis, so the fleet policy collapses to "top speed or off"); this example
mixes three server generations, including cubic-power DVFS parts where
intermediate speeds are genuinely the most energy-efficient, and shows:

1. the chosen speed *levels* vary with load and electricity price;
2. coordinate descent and a long adaptive-delta GSD chain agree;
3. a short COCA run on the mixed fleet stays carbon-neutral.

Run:  python examples/heterogeneous_fleet.py
"""

import numpy as np

from repro import COCA, DataCenterModel, Fleet, ServerGroup, simulate
from repro.analysis import render_table
from repro.cluster import cubic_dvfs_profile, opteron_2380
from repro.energy import RenewablePortfolio, onsite_mix
from repro.sim import Environment
from repro.solvers import CoordinateDescentSolver, GSDSolver, geometric_temperature
from repro.traces import fiu_workload, price_trace

# Three server generations: the paper's Opteron, an efficient cubic-DVFS
# part, and an older power-hungry box.
fleet = Fleet(
    [
        ServerGroup(opteron_2380(), 40),
        ServerGroup(
            cubic_dvfs_profile(
                name="cubic-2013", max_speed=12.0, static_watts=80.0,
                max_dynamic_watts=180.0, levels=4,
            ),
            40,
        ),
        ServerGroup(
            cubic_dvfs_profile(
                name="legacy-2008", max_speed=6.0, static_watts=180.0,
                max_dynamic_watts=120.0, levels=3,
            ),
            40,
        ),
    ]
)
model = DataCenterModel(fleet=fleet, beta=10.0)
print("Fleet:")
for group in fleet.groups:
    print(f"  {group.count} x {group.profile.describe()}")

# ---------------------------------------------------------------------
# 1. Speed selection responds to load and price.
print("\nChosen speed level per group vs (load, price):")
solver = CoordinateDescentSolver(restarts=4)
rows = []
for lam_frac, price in [(0.15, 30.0), (0.15, 120.0), (0.55, 30.0), (0.85, 30.0)]:
    problem = model.slot_problem(
        arrival_rate=lam_frac * fleet.capacity(model.gamma),
        onsite=0.0,
        price=price,
        q=2.0,
    )
    sol = solver.solve(problem)
    rows.append(
        {
            "load": f"{lam_frac:.0%}",
            "price $/MWh": price,
            "opteron": int(sol.action.levels[0]),
            "cubic-2013": int(sol.action.levels[1]),
            "legacy-2008": int(sol.action.levels[2]),
            "cost": sol.cost,
        }
    )
print(render_table(rows))
print("(-1 = group off; higher level = faster DVFS state)")

# ---------------------------------------------------------------------
# 2. Solver agreement on a snapshot.
problem = model.slot_problem(
    arrival_rate=0.5 * fleet.capacity(model.gamma), onsite=0.0, price=45.0, q=1.0
)
cd = CoordinateDescentSolver(restarts=6).solve(problem)
delta0 = GSDSolver.auto_delta(problem, greediness=30.0)
gsd = GSDSolver(
    iterations=3000,
    delta=geometric_temperature(delta0, 1.002),
    rng=np.random.default_rng(0),
).solve(problem)
print("\nSolver agreement at 50% load:")
print(
    render_table(
        [
            {"solver": "coordinate descent", "objective": cd.objective},
            {"solver": "GSD (adaptive delta)", "objective": gsd.objective},
        ]
    )
)

# ---------------------------------------------------------------------
# 3. COCA on the mixed fleet for a week.
horizon = 24 * 7
workload = fiu_workload(horizon, peak=0.5 * fleet.max_capacity, seed=9)
price = price_trace(horizon, seed=10)
onsite = onsite_mix(horizon, seed=11).scale_to_total(0.2 * fleet.max_power * horizon * 0.3)
offsite = onsite_mix(horizon, seed=12, solar_fraction=0.4)
portfolio = RenewablePortfolio(onsite=onsite, offsite=offsite, recs=0.0)

# Budget calibration.  Unlike the paper's Opteron-only fleet, the efficient
# cubic parts make the carbon-unaware optimum nearly power-minimal already,
# so "92% of unaware" can be infeasible; set the budget midway between the
# minimum achievable brown energy and the unaware draw instead.
from repro.baselines import CarbonUnaware, calibrate_budget
from repro.baselines.offline_opt import _sweep

env = Environment(workload=workload, portfolio=portfolio, price=price)
unaware_brown = calibrate_budget(model, env)
min_brown = _sweep(model, env, mu=1e9, solver=CoordinateDescentSolver(restarts=2)).total_brown
budget = min_brown + 0.5 * (unaware_brown - min_brown)
print(f"\nbrown energy range: min feasible {min_brown:.2f} MWh, "
      f"unaware {unaware_brown:.2f} MWh -> budget {budget:.2f} MWh")
portfolio = portfolio.with_budget_split(budget, 0.4)
env = env.with_portfolio(portfolio)

# V is unit-scale dependent; pick the cheapest neutral value by bisection.
v_star = None
lo, hi = 1e-4, 1.0
for _ in range(8):
    mid = (lo * hi) ** 0.5
    trial = simulate(model, COCA(model, portfolio, v_schedule=mid), env)
    if trial.ledger(portfolio).is_neutral():
        lo, v_star = mid, mid
    else:
        hi = mid
coca = COCA(model, portfolio, v_schedule=v_star if v_star else lo)
record = simulate(model, coca, env)
ledger = record.ledger(portfolio)
print("\nCOCA on the mixed fleet (one week):")
print(f"  avg cost      : ${record.average_cost:.3f}/h")
print(f"  brown energy  : {record.total_brown:.2f} MWh vs budget {portfolio.carbon_budget:.2f} MWh")
print(f"  carbon neutral: {ledger.is_neutral()}")
