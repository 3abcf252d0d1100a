"""Experiment drivers: the parameter sweeps behind every figure.

Each function runs controllers over a :class:`~repro.scenarios.Scenario`
and returns plain row dictionaries (ready for
:func:`repro.analysis.tables.render_table` or further processing), so the
benchmark harness, the examples, and ad-hoc notebooks share one
implementation of each experiment.

The sweep-shaped drivers (:func:`sweep_constant_v`, :func:`budget_sweep`,
:func:`overestimation_sweep`) take an opt-in ``workers=`` argument: sweep
points are embarrassingly parallel (each is an independent seeded run), so
they fan out over a ``ProcessPoolExecutor`` while keeping row order and
numerical results identical to the serial path.  Every driver also takes an
optional ``telemetry=`` handle; with workers, each point records into a
fresh in-memory telemetry that the parent absorbs back in point order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

import numpy as np

from ..baselines.carbon_unaware import CarbonUnaware
from ..baselines.offline_opt import OfflineOptimal
from ..baselines.perfect_hp import PerfectHP
from ..core.coca import COCA
from ..core.vschedule import VSchedule
from ..scenarios import Scenario
from ..sim.engine import simulate
from ..sim.metrics import SimulationRecord
from ..telemetry import Telemetry
from ..traces.noise import overestimate

__all__ = [
    "run_coca",
    "sweep_constant_v",
    "find_neutral_v",
    "run_varying_v",
    "compare_with_perfecthp",
    "budget_sweep",
    "overestimation_sweep",
    "switching_sweep",
    "portfolio_sweep",
]


def run_coca(
    scenario: Scenario,
    v_schedule: VSchedule | float,
    *,
    frame_length: int | None = None,
    telemetry: Telemetry | None = None,
) -> tuple[SimulationRecord, COCA]:
    """Run COCA once on the scenario; returns (record, controller)."""
    controller = COCA(
        scenario.model,
        scenario.environment.portfolio,
        v_schedule=v_schedule,
        frame_length=frame_length,
        alpha=scenario.alpha,
    )
    record = simulate(
        scenario.model, controller, scenario.environment, telemetry=telemetry
    )
    return record, controller


# ------------------------------------------------------------ parallel plumbing
def _pool_point(task) -> tuple[dict, tuple[list[dict], dict] | None]:
    """Worker shim: run one sweep point, optionally under fresh telemetry.

    Runs in a subprocess, so everything it touches must be picklable; the
    recorded events and metric state travel back as plain containers.
    """
    point, payload, collect = task
    telemetry = Telemetry.recording() if collect else None
    row = point(payload, telemetry)
    return row, (telemetry.drain() if telemetry is not None else None)


def _map_points(
    point: Callable[[tuple, Telemetry | None], dict],
    payloads: Sequence[tuple],
    *,
    workers: int | None,
    telemetry: Telemetry | None,
) -> list[dict]:
    """Run ``point`` over ``payloads`` serially or in a process pool.

    Row order always follows payload order.  With workers, each point's
    telemetry is recorded in the subprocess and absorbed into the parent
    handle in that same order, so traces match serial execution.
    """
    if workers is None or workers <= 1:
        return [point(payload, telemetry) for payload in payloads]
    tasks = [(point, payload, telemetry is not None) for payload in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(_pool_point, tasks))
    rows = []
    for row, drained in results:
        if drained is not None and telemetry is not None:
            telemetry.absorb(*drained)
        rows.append(row)
    return rows


def _constant_v_point(payload: tuple, telemetry: Telemetry | None) -> dict:
    scenario, v = payload
    portfolio = scenario.environment.portfolio
    record, _ = run_coca(scenario, float(v), telemetry=telemetry)
    return {
        "V": float(v),
        "avg_cost": record.average_cost,
        "avg_deficit": record.average_deficit(portfolio, scenario.alpha),
        "brown": record.total_brown,
        "brown_fraction": record.total_brown / scenario.unaware_brown,
        "neutral": record.ledger(portfolio, scenario.alpha).is_neutral(),
    }


def sweep_constant_v(
    scenario: Scenario,
    v_values: Sequence[float],
    *,
    workers: int | None = None,
    telemetry: Telemetry | None = None,
) -> list[dict]:
    """Fig. 2(a,b): average hourly cost and carbon deficit vs constant V."""
    payloads = [(scenario, float(v)) for v in v_values]
    return _map_points(
        _constant_v_point, payloads, workers=workers, telemetry=telemetry
    )


def find_neutral_v(
    scenario: Scenario,
    *,
    v_lo: float = 1e-3,
    v_hi: float = 1e6,
    iters: int = 12,
) -> float:
    """Largest (cheapest) constant ``V`` that still satisfies neutrality.

    Brown energy is monotonically nondecreasing in ``V`` (more cost focus,
    less deficit pressure), so bisection applies.  This automates the
    paper's "we appropriately choose V such that carbon neutrality is
    satisfied" for the sensitivity studies.
    """
    portfolio = scenario.environment.portfolio

    def neutral(v: float) -> bool:
        record, _ = run_coca(scenario, v)
        return record.ledger(portfolio, scenario.alpha).is_neutral()

    if neutral(v_hi):
        return v_hi
    if not neutral(v_lo):
        raise ValueError(
            f"even V={v_lo} violates neutrality; the budget may be infeasible"
        )
    lo, hi = v_lo, v_hi
    for _ in range(iters):
        mid = float(np.sqrt(lo * hi))  # geometric: V spans decades
        if neutral(mid):
            lo = mid
        else:
            hi = mid
    return lo


def run_varying_v(
    scenario: Scenario,
    v_schedule: VSchedule | Sequence[float],
    frame_length: int,
) -> tuple[SimulationRecord, COCA]:
    """Fig. 2(c,d): COCA with per-frame V values (e.g. quarterly)."""
    from ..core.vschedule import FrameV

    if not isinstance(v_schedule, VSchedule):
        v_schedule = FrameV(tuple(float(v) for v in v_schedule))
    return run_coca(scenario, v_schedule, frame_length=frame_length)


def compare_with_perfecthp(
    scenario: Scenario, v: float, *, telemetry: Telemetry | None = None
) -> dict:
    """Fig. 3: COCA vs PerfectHP records plus headline ratios."""
    portfolio = scenario.environment.portfolio
    coca_record, _ = run_coca(scenario, v, telemetry=telemetry)
    hp = PerfectHP(scenario.model, alpha=scenario.alpha)
    hp_record = simulate(scenario.model, hp, scenario.environment, telemetry=telemetry)
    return {
        "coca": coca_record,
        "perfecthp": hp_record,
        "cost_saving": 1.0 - coca_record.average_cost / hp_record.average_cost,
        "coca_deficit": coca_record.average_deficit(portfolio, scenario.alpha),
        "perfecthp_deficit": hp_record.average_deficit(portfolio, scenario.alpha),
    }


def _budget_point(payload: tuple, telemetry: Telemetry | None) -> dict:
    scenario, frac, unaware_avg_cost, unaware_total_brown, include_opt, v_iters = (
        payload
    )
    sc = scenario.with_budget_fraction(float(frac))
    portfolio = sc.environment.portfolio
    row: dict = {
        "budget_fraction": float(frac),
        "unaware_cost": unaware_avg_cost / scenario.unaware_cost,
        "unaware_neutral": unaware_total_brown <= sc.budget,
    }
    if frac >= 1.0 and unaware_total_brown <= sc.budget:
        # Budget exceeds unaware usage: COCA (any large V) == unaware.
        record, _ = run_coca(sc, 1e9, telemetry=telemetry)
    else:
        v_star = find_neutral_v(sc, iters=v_iters)
        record, _ = run_coca(sc, v_star, telemetry=telemetry)
        row["v_star"] = v_star
    row["coca_cost"] = record.average_cost / scenario.unaware_cost
    row["coca_neutral"] = record.ledger(portfolio, sc.alpha).is_neutral()
    if include_opt:
        opt = OfflineOptimal(scenario.model, budget=sc.budget, alpha=sc.alpha)
        opt_record = simulate(
            scenario.model, opt, sc.environment, telemetry=telemetry
        )
        row["opt_cost"] = opt_record.average_cost / scenario.unaware_cost
        row["opt_neutral"] = opt_record.total_brown <= sc.budget * (1 + 1e-9)
    return row


def budget_sweep(
    scenario: Scenario,
    fractions: Sequence[float],
    *,
    include_opt: bool = True,
    v_iters: int = 10,
    workers: int | None = None,
    telemetry: Telemetry | None = None,
) -> list[dict]:
    """Fig. 5(a,b): normalized cost vs carbon budget for COCA / OPT /
    carbon-unaware.  Costs are normalized by the unaware average cost;
    budgets by the unaware brown energy.  COCA's V is auto-tuned per budget
    (the paper: "we appropriately choose V such that carbon neutrality is
    satisfied").  Points are independent, so ``workers`` parallelizes the
    fraction loop (V auto-tuning included); the shared carbon-unaware
    reference run happens once, up front."""
    unaware = CarbonUnaware(scenario.model)
    unaware_record = simulate(
        scenario.model, unaware, scenario.environment, telemetry=telemetry
    )
    payloads = [
        (
            scenario,
            float(frac),
            unaware_record.average_cost,
            unaware_record.total_brown,
            include_opt,
            v_iters,
        )
        for frac in fractions
    ]
    return _map_points(_budget_point, payloads, workers=workers, telemetry=telemetry)


def _neutral_run(
    scenario: Scenario,
    environment,
    v: float | None,
    *,
    v_iters: int = 9,
    telemetry: Telemetry | None = None,
) -> tuple[SimulationRecord, float]:
    """Run COCA neutrally: use ``v`` if it satisfies neutrality on this
    environment, otherwise re-tune V (the paper: "for all the cases, we
    appropriately choose V such that carbon neutrality is satisfied").

    Only the run whose record is returned carries ``telemetry``; bisection
    probes stay untraced so the event stream holds one run per point.
    """

    def attempt(
        v_try: float, tele: Telemetry | None = None
    ) -> SimulationRecord:
        controller = COCA(
            scenario.model,
            environment.portfolio,
            v_schedule=v_try,
            alpha=scenario.alpha,
        )
        return simulate(scenario.model, controller, environment, telemetry=tele)

    if v is not None:
        record = attempt(v, telemetry)
        if record.ledger(environment.portfolio, scenario.alpha).is_neutral():
            return record, v

    lo, hi = 1e-4, 1e7
    if not attempt(lo).ledger(environment.portfolio, scenario.alpha).is_neutral():
        # Budget infeasible even at tiny V; report it.
        return attempt(lo, telemetry), lo
    best = lo
    for _ in range(v_iters):
        mid = float(np.sqrt(lo * hi))
        if attempt(mid).ledger(environment.portfolio, scenario.alpha).is_neutral():
            lo = best = mid
        else:
            hi = mid
    return attempt(best, telemetry), best


def _overestimation_point(payload: tuple, telemetry: Telemetry | None) -> dict:
    scenario, phi, v = payload
    env = scenario.environment.with_workload(
        overestimate(scenario.environment.actual_workload, float(phi))
    )
    record, v_used = _neutral_run(scenario, env, v, telemetry=telemetry)
    return {
        "phi": float(phi),
        "avg_cost": record.average_cost,
        "v_used": v_used,
        "dropped": float(record.dropped.sum()),
        "neutral": record.ledger(env.portfolio, scenario.alpha).is_neutral(),
    }


def overestimation_sweep(
    scenario: Scenario,
    phis: Sequence[float],
    *,
    v: float | None = None,
    workers: int | None = None,
    telemetry: Telemetry | None = None,
) -> list[dict]:
    """Fig. 5(c): total-cost impact of overestimating workloads by phi.

    Per the paper's protocol, V is (re-)chosen at every point so that
    neutrality holds before costs are compared.  ``cost_increase`` is
    relative to the first phi, so it is derived after all points complete
    -- which is also what lets ``workers`` fan the points out.
    """
    if v is None:
        v = find_neutral_v(scenario)
    payloads = [(scenario, float(phi), v) for phi in phis]
    measured = _map_points(
        _overestimation_point, payloads, workers=workers, telemetry=telemetry
    )
    if not measured:
        return []
    base_cost = measured[0]["avg_cost"]
    return [
        {
            "phi": m["phi"],
            "avg_cost": m["avg_cost"],
            "cost_increase": m["avg_cost"] / base_cost - 1.0,
            "v_used": m["v_used"],
            "dropped": m["dropped"],
            "neutral": m["neutral"],
        }
        for m in measured
    ]


def switching_sweep(
    scenario: Scenario,
    fractions: Sequence[float],
    *,
    v: float | None = None,
    telemetry: Telemetry | None = None,
) -> list[dict]:
    """Fig. 5(d): total-cost impact of per-server switching cost, expressed
    as a fraction of the server's maximum hourly energy."""
    if v is None:
        v = find_neutral_v(scenario)
    base_cost = None
    rows = []
    for frac in fractions:
        sc = scenario.with_switching(float(frac))
        record, v_used = _neutral_run(sc, sc.environment, v, telemetry=telemetry)
        if base_cost is None:
            base_cost = record.average_cost
        rows.append(
            {
                "switching_fraction": float(frac),
                "avg_cost": record.average_cost,
                "cost_increase": record.average_cost / base_cost - 1.0,
                "v_used": v_used,
                "switching_energy": float(record.switching_energy.sum()),
                "neutral": record.ledger(
                    sc.environment.portfolio, sc.alpha
                ).is_neutral(),
            }
        )
    return rows


def portfolio_sweep(
    scenario: Scenario,
    offsite_fractions: Sequence[float],
    *,
    v: float | None = None,
    telemetry: Telemetry | None = None,
) -> list[dict]:
    """Section 5.2.4 remark: cost sensitivity to the off-site/REC split of a
    fixed total budget (paper: <1% change)."""
    if v is None:
        v = find_neutral_v(scenario)
    rows = []
    base_cost = None
    for frac in offsite_fractions:
        sc = scenario.with_budget_fraction(
            scenario.budget_fraction, offsite_fraction=float(frac)
        )
        record, _ = _neutral_run(sc, sc.environment, v, telemetry=telemetry)
        if base_cost is None:
            base_cost = record.average_cost
        rows.append(
            {
                "offsite_fraction": float(frac),
                "avg_cost": record.average_cost,
                "cost_change": record.average_cost / base_cost - 1.0,
                "neutral": record.ledger(
                    sc.environment.portfolio, sc.alpha
                ).is_neutral(),
            }
        )
    return rows
