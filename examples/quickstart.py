#!/usr/bin/env python
"""Quickstart: run COCA on a small data center for two weeks.

Builds a scaled-down version of the paper's evaluation setup (same
structure: Opteron servers, FIU-style workload, CAISO-style prices and
renewables, a carbon budget at 92% of the carbon-unaware draw), runs COCA
next to the carbon-unaware baseline, and prints the trade-off.

Run:  python examples/quickstart.py
"""

from repro import COCA, CarbonUnaware, simulate, small_scenario
from repro.analysis import compare_records, find_neutral_v, render_table

# A two-week, 400-server scenario builds in well under a second.
scenario = small_scenario(horizon=24 * 14)
portfolio = scenario.environment.portfolio

print("Scenario")
print(f"  servers          : {scenario.model.fleet.num_servers}")
print(f"  horizon          : {scenario.horizon} hours")
print(f"  unaware brown    : {scenario.unaware_brown:.2f} MWh")
print(f"  carbon budget    : {scenario.budget:.2f} MWh (92% of unaware)")
print()

# The carbon-unaware baseline: minimize cost, ignore the budget.
unaware = simulate(scenario.model, CarbonUnaware(scenario.model), scenario.environment)

# COCA at the largest V that still satisfies carbon neutrality.  V trades
# cost for deficit; find_neutral_v finds the knee.
v_star = find_neutral_v(scenario)
print(f"neutral V* = {v_star:.4g}")

coca = COCA(
    scenario.model, portfolio, v_schedule=v_star, alpha=scenario.alpha
)
coca_record = simulate(scenario.model, coca, scenario.environment)

rows = compare_records([unaware, coca_record], portfolio, alpha=scenario.alpha)
print()
print(render_table(rows, title="carbon-unaware vs COCA (two weeks)"))
print()
penalty = coca_record.average_cost / unaware.average_cost - 1.0
print(
    f"COCA meets the 92% budget at {100 * penalty:.1f}% extra cost; "
    f"the unaware baseline overdraws it by "
    f"{unaware.total_brown - scenario.budget:.2f} MWh."
)
print(f"peak carbon-deficit queue length: {max(coca.queue.history):.3f} MWh")
