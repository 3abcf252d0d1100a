"""Golden pin of a fault run: a seeded week with groups failing on most slots.

``golden_run.json`` pins a healthy week; this file pins the same seeded
week under a generated fault schedule (failure rate 0.15 per group-slot,
mean repair 3 slots, as ``TestSlicedSubFleets`` in ``test_failures.py``
draws), so the fault branch of the slot loop -- the failed set handed to
the controller, the masked realization and the slot bill -- is held to
its own per-slot numbers, not only to an oracle run of the same code.

Refresh after an intentional behavior change with::

    PYTHONPATH=src python -m pytest tests/test_golden_chaos.py --update-goldens

and commit the rewritten JSON on its own.  Floats are stored via ``repr``
(exact round trip) and compared with ``==``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.coca import COCA
from repro.faults import FaultSchedule
from repro.sim import simulate

GOLDEN_PATH = Path(__file__).parent / "goldens" / "golden_chaos.json"

#: Pinned run parameters -- change these only together with the golden file.
GOLDEN_V = 150.0
FAULT_SEED = 7
FAILURE_RATE = 0.15
MEAN_REPAIR = 3.0
GOLDEN_ARRAYS = (
    "cost",
    "brown_energy",
    "queue",
    "served",
    "dropped",
    "active_servers",
)


def _slots_with_failure(schedule: FaultSchedule, horizon: int) -> int:
    """Slots that start with at least one group down."""
    down: set[int] = set()
    by_slot: dict[int, list] = {}
    for event in schedule.events:
        by_slot.setdefault(event.t, []).append(event)
    count = 0
    for t in range(horizon):
        for event in by_slot.get(t, ()):
            if event.kind == "group_fail":
                down.add(event.group)
            elif event.kind == "group_repair":
                down.discard(event.group)
        count += bool(down)
    return count


def _golden_payload(week_scenario) -> dict:
    model = week_scenario.model
    horizon = week_scenario.horizon
    schedule = FaultSchedule.generate(
        FAULT_SEED,
        horizon=horizon,
        num_groups=model.fleet.num_groups,
        failure_rate=FAILURE_RATE,
        mean_repair=MEAN_REPAIR,
    )
    controller = COCA(
        model,
        week_scenario.environment.portfolio,
        v_schedule=GOLDEN_V,
        alpha=week_scenario.alpha,
    )
    record = simulate(model, controller, week_scenario.environment, faults=schedule)
    return {
        "v": GOLDEN_V,
        "fault_seed": FAULT_SEED,
        "failure_rate": FAILURE_RATE,
        "mean_repair": MEAN_REPAIR,
        "horizon": int(record.horizon),
        "slots_with_failure": _slots_with_failure(schedule, horizon),
        "arrays": {
            name: [float(x) for x in getattr(record, name)] for name in GOLDEN_ARRAYS
        },
    }


def test_chaos_week_matches_golden(week_scenario, update_goldens):
    payload = _golden_payload(week_scenario)
    if update_goldens:
        with open(GOLDEN_PATH, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        pytest.skip(f"golden refreshed at {GOLDEN_PATH}")
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    for key in ("v", "fault_seed", "failure_rate", "mean_repair", "horizon"):
        assert payload[key] == golden[key], f"pinned {key} changed without a refresh"
    # The pin is about fault slots: most slots must have a group down.
    assert payload["slots_with_failure"] == golden["slots_with_failure"]
    assert payload["slots_with_failure"] > payload["horizon"] // 2
    for name in GOLDEN_ARRAYS:
        got, want = payload["arrays"][name], golden["arrays"][name]
        assert len(got) == len(want), f"{name}: length {len(got)} != golden {len(want)}"
        bad = [t for t, (g, w) in enumerate(zip(got, want)) if g != w]
        assert not bad, (
            f"{name}: {len(bad)}/{len(want)} slots differ, first at t={bad[0]}: "
            f"got {got[bad[0]]!r}, golden {want[bad[0]]!r}. If the change is "
            "intentional, refresh with --update-goldens."
        )
