"""Fig. 5(b): normalized cost vs carbon budget (MSR workload).

Same sweep as Fig. 5(a) on the burstier MSR-style trace; the paper's
message is that the COCA/OPT/unaware ordering and the neutrality picture
are workload-independent.
"""

from repro.analysis import budget_sweep, render_table

FRACTIONS = [0.85, 0.95, 1.00]


def test_fig5b_budget_sweep_msr(benchmark, publish, msr_scenario):
    rows = benchmark.pedantic(
        lambda: budget_sweep(msr_scenario, FRACTIONS, include_opt=True),
        rounds=1,
        iterations=1,
    )
    table = render_table(
        rows,
        title="Fig. 5(b): normalized average cost vs carbon budget, MSR "
        "(same normalization as Fig. 5(a))",
    )
    publish("fig5b_budget_msr", table)

    coca_costs = [r["coca_cost"] for r in rows]
    assert coca_costs == sorted(coca_costs, reverse=True)
    assert all(r["coca_neutral"] for r in rows)
    for r in rows:
        assert r["coca_cost"] <= r["opt_cost"] * 1.10
    benchmark.extra_info["coca_cost_at_085"] = rows[0]["coca_cost"]
