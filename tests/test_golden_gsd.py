"""Golden pin of the shipped GSD chain: a seeded week's per-slot output.

``golden_run.json`` pins the exact engine; this file pins what
``repro run --solver gsd`` ships -- a seeded :class:`GSDSolver` chain of
20 iterations per slot inside COCA -- so a change to candidate scoring,
the water-fill or the chain's draws that moves a single level or
objective bit fails here with the first differing slot.

Refresh after an intentional change to the chain with::

    PYTHONPATH=src python -m pytest tests/test_golden_gsd.py --update-goldens

and commit the rewritten JSON on its own, so the re-baseline is one
reviewable diff.  Objectives are stored via ``repr`` (exact round trip)
and compared with ``==``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.coca import COCA
from repro.sim import simulate
from repro.solvers import GSDSolver

GOLDEN_PATH = Path(__file__).parent / "goldens" / "golden_gsd.json"

#: Pinned run parameters -- change these only together with the golden file.
GOLDEN_V = 150.0
GOLDEN_ITERATIONS = 20
GOLDEN_SEED = 2012


class _RecordingGSD(GSDSolver):
    """The shipped chain, keeping each solve's levels and chain objective."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.levels: list[list[int]] = []
        self.objectives: list[float] = []

    def solve(self, problem):
        solution = super().solve(problem)
        self.levels.append([int(x) for x in solution.action.levels])
        self.objectives.append(float(solution.info["final_objective"]))
        return solution


def _golden_payload(week_scenario) -> dict:
    solver = _RecordingGSD(
        iterations=GOLDEN_ITERATIONS, rng=np.random.default_rng(GOLDEN_SEED)
    )
    controller = COCA(
        week_scenario.model,
        week_scenario.environment.portfolio,
        v_schedule=GOLDEN_V,
        alpha=week_scenario.alpha,
        solver=solver,
    )
    record = simulate(week_scenario.model, controller, week_scenario.environment)
    return {
        "v": GOLDEN_V,
        "iterations": GOLDEN_ITERATIONS,
        "seed": GOLDEN_SEED,
        "horizon": int(record.horizon),
        "levels": solver.levels,
        "final_objective": solver.objectives,
        "total_cost": float(np.sum(record.cost)),
    }


def test_gsd_week_matches_golden(week_scenario, update_goldens):
    payload = _golden_payload(week_scenario)
    if update_goldens:
        with open(GOLDEN_PATH, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        pytest.skip(f"golden refreshed at {GOLDEN_PATH}")
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    for key in ("v", "iterations", "seed", "horizon"):
        assert payload[key] == golden[key], f"pinned {key} changed without a refresh"
    for name in ("levels", "final_objective"):
        got, want = payload[name], golden[name]
        bad = [t for t, (g, w) in enumerate(zip(got, want)) if g != w]
        assert not bad, (
            f"{name}: {len(bad)}/{len(want)} slots differ, first at t={bad[0]}: "
            f"got {got[bad[0]]!r}, golden {want[bad[0]]!r}. If the change to "
            "the chain is intentional, refresh with --update-goldens."
        )
    assert payload["total_cost"] == golden["total_cost"]
