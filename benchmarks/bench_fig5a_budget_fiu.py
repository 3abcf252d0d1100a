"""Fig. 5(a): normalized cost vs carbon budget (FIU workload).

Sweeps the carbon budget (as a fraction of the carbon-unaware electricity
usage, the paper's normalization) and compares COCA (V auto-tuned for
neutrality at each budget), the offline OPT, and the carbon-unaware
baseline.  Expected shape (section 5.2.4): at an 85% budget COCA exceeds
the unaware cost by only a few percent while remaining neutral (which the
unaware policy violates); COCA tracks OPT closely; at budgets >= the
unaware usage, COCA converges to the unaware policy without using up the
budget.
"""

from repro.analysis import budget_sweep, render_table

FRACTIONS = [0.85, 0.90, 0.95, 1.00, 1.05]


def test_fig5a_budget_sweep_fiu(benchmark, publish, fiu_scenario):
    rows = benchmark.pedantic(
        lambda: budget_sweep(fiu_scenario, FRACTIONS, include_opt=True),
        rounds=1,
        iterations=1,
    )
    table = render_table(
        rows,
        title="Fig. 5(a): normalized average cost vs carbon budget, FIU "
        "(costs / unaware cost; budgets / unaware brown energy)",
    )
    publish("fig5a_budget_fiu", table)

    # Shape assertions from the paper's narrative.
    by_frac = {r["budget_fraction"]: r for r in rows}
    # Tighter budget -> higher COCA cost.
    coca_costs = [r["coca_cost"] for r in rows]
    assert coca_costs == sorted(coca_costs, reverse=True)
    # 85% budget costs only a few percent over the unaware minimum.
    assert by_frac[0.85]["coca_cost"] <= 1.15
    # COCA is neutral everywhere; unaware violates all sub-1.0 budgets.
    assert all(r["coca_neutral"] for r in rows)
    assert not any(r["unaware_neutral"] for r in rows if r["budget_fraction"] < 1.0)
    # COCA tracks OPT closely.
    for r in rows:
        assert r["coca_cost"] <= r["opt_cost"] * 1.10
    # With budget above the unaware draw, COCA == unaware.
    assert abs(by_frac[1.05]["coca_cost"] - 1.0) < 0.01
    benchmark.extra_info["coca_cost_at_085"] = by_frac[0.85]["coca_cost"]
