"""Ablation: what the carbon-deficit queue actually buys.

Three controllers on the same year and budget:

* COCA with its queue (V = V*);
* the same per-slot optimization with the queue disabled (q = 0 always --
  exactly the carbon-unaware policy);
* a naive *static-penalty* controller that prices brown energy at a fixed
  surcharge chosen with hindsight knowledge of the year (the best constant
  q) -- i.e., OPT's dual policy, which needs offline information.

The queue matters because it reproduces (online, with no future
information) what the hindsight-constant penalty achieves, while the
queue-less variant blows through the budget.
"""

from repro.analysis import render_table, run_coca
from repro.baselines import CarbonUnaware, OfflineOptimal
from repro.sim import simulate


def test_ablation_deficit_queue(benchmark, publish, fiu_scenario, fiu_v_star):
    sc = fiu_scenario
    pf = sc.environment.portfolio

    def run():
        with_queue, _ = run_coca(sc, fiu_v_star)
        without_queue = simulate(sc.model, CarbonUnaware(sc.model), sc.environment)
        hindsight = OfflineOptimal(sc.model, budget=sc.budget)
        hindsight_rec = simulate(sc.model, hindsight, sc.environment)
        return with_queue, without_queue, hindsight_rec, hindsight.mu

    with_queue, without_queue, hindsight_rec, mu = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    rows = []
    for name, rec in [
        ("COCA (online queue)", with_queue),
        ("queue disabled (q=0)", without_queue),
        ("hindsight constant penalty (OPT dual)", hindsight_rec),
    ]:
        rows.append(
            {
                "controller": name,
                "avg cost": rec.average_cost,
                "brown / budget": rec.total_brown / sc.budget,
                "neutral": rec.ledger(pf, sc.alpha).is_neutral(),
            }
        )
    table = render_table(
        rows,
        title=f"Ablation: deficit queue on/off vs hindsight penalty "
        f"(V*={fiu_v_star:.3g}, hindsight mu={mu:.3g} $/MWh)",
    )
    publish("ablation_queue", table)

    assert rows[0]["neutral"] and not rows[1]["neutral"]
    # The online queue lands within a few percent of the hindsight policy.
    assert rows[0]["avg cost"] <= rows[2]["avg cost"] * 1.05
    benchmark.extra_info["coca_vs_hindsight"] = (
        rows[0]["avg cost"] / rows[2]["avg cost"]
    )
