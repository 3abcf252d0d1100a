"""Scenario report generator: one markdown document per experiment run.

``scenario_report`` runs the core comparison (carbon-unaware, COCA at its
neutral V, optionally OPT) on a scenario and renders a self-contained
markdown report -- inputs, trace statistics, controller comparison, deficit
queue behaviour -- the artifact a user would attach to a capacity-planning
decision.  Exposed on the command line as ``python -m repro report``.
"""

from __future__ import annotations

import numpy as np

from ..baselines import CarbonUnaware, OfflineOptimal
from ..scenarios import Scenario
from ..sim import simulate
from .stats import summarize_trace
from .sweep import find_neutral_v, run_coca
from .tables import render_table

__all__ = ["scenario_report"]


def _md_table(rows: list[dict]) -> str:
    """Minimal markdown table from mapping rows."""
    if not rows:
        return "(empty)\n"
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)

    def fmt(v) -> str:
        if isinstance(v, bool):
            return "yes" if v else "no"
        if isinstance(v, float):
            return f"{v:,.4g}"
        return str(v)

    head = "| " + " | ".join(columns) + " |"
    rule = "|" + "|".join("---" for _ in columns) + "|"
    body = "\n".join(
        "| " + " | ".join(fmt(row.get(c, "")) for c in columns) + " |" for row in rows
    )
    return "\n".join([head, rule, body]) + "\n"


def scenario_report(
    scenario: Scenario,
    *,
    v: float | None = None,
    include_opt: bool = True,
    telemetry=None,
) -> str:
    """Run the core comparison and return the markdown report text."""
    env = scenario.environment
    portfolio = env.portfolio

    lines: list[str] = []
    lines.append("# COCA scenario report\n")
    lines.append("## Scenario\n")
    lines.append(
        _md_table(
            [
                {
                    "servers": scenario.model.fleet.num_servers,
                    "groups": scenario.model.fleet.num_groups,
                    "horizon (h)": scenario.horizon,
                    "beta": scenario.model.beta,
                    "gamma": scenario.model.gamma,
                    "alpha": scenario.alpha,
                    "budget (MWh)": scenario.budget,
                    "budget / unaware": scenario.budget_fraction,
                    "offsite share": portfolio.offsite_fraction,
                }
            ]
        )
    )

    lines.append("## Input traces\n")
    lines.append(
        _md_table(
            [
                summarize_trace(env.actual_workload).as_row(),
                summarize_trace(env.price).as_row(),
                summarize_trace(portfolio.onsite).as_row(),
                summarize_trace(portfolio.offsite).as_row(),
            ]
        )
    )

    # Controllers.
    unaware = simulate(
        scenario.model, CarbonUnaware(scenario.model), env, telemetry=telemetry
    )
    v_used = v if v is not None else find_neutral_v(scenario)
    coca_record, coca = run_coca(scenario, v_used, telemetry=telemetry)
    records = [("carbon-unaware", unaware), ("COCA", coca_record)]
    if include_opt:
        opt = OfflineOptimal(scenario.model, budget=scenario.budget)
        records.append(
            ("OPT (offline)", simulate(scenario.model, opt, env, telemetry=telemetry))
        )

    lines.append(f"## Controllers (COCA V = {v_used:.4g})\n")
    rows = []
    for name, rec in records:
        summary = rec.summary(portfolio, scenario.alpha)
        rows.append(
            {
                "controller": name,
                "avg cost ($/h)": summary.average_cost,
                "vs unaware": summary.average_cost / unaware.average_cost,
                "elec share": summary.average_electricity_cost / summary.average_cost,
                "brown (MWh)": summary.total_brown,
                "brown / budget": summary.total_brown / scenario.budget,
                "neutral": summary.is_neutral,
            }
        )
    lines.append(_md_table(rows))

    lines.append("## Carbon-deficit queue (COCA)\n")
    q = np.asarray(coca.queue.history)
    lines.append(
        _md_table(
            [
                {
                    "final length (MWh)": float(q[-1]) if q.size else 0.0,
                    "peak length (MWh)": float(q.max()) if q.size else 0.0,
                    "mean length (MWh)": float(q.mean()) if q.size else 0.0,
                    "slots at zero": int(np.sum(q == 0.0)),
                    "required true-up (MWh)": coca_record.ledger(
                        portfolio, scenario.alpha
                    ).required_trueup(),
                }
            ]
        )
    )

    lines.append("## Notes\n")
    lines.append(
        "- Costs combine electricity (Eq. 3) and delay (Eq. 4) per the "
        "paper's Eq. (5); see EXPERIMENTS.md for the unit calibration.\n"
        "- `neutral` means total brown energy within alpha x (off-site "
        "renewables + RECs) over the horizon (Eq. 10).\n"
    )
    return "\n".join(lines)
