"""Golden-run regression corpus: a seeded week pinned to committed JSON.

The golden file under ``tests/goldens/`` holds the exact per-slot arrays a
seeded COCA week produces.  Any code change that shifts a single float —
a solver reorder, an RNG draw added to the hot path, a changed default —
fails here with a pointed diff, which is exactly the bit-identity contract
the fault-injection subsystem leans on (an *empty* fault schedule must
also reproduce these numbers, covered at the bottom).

Refresh after an intentional behavior change with::

    PYTHONPATH=src python -m pytest tests/test_golden_run.py --update-goldens

and commit the rewritten JSON on its own, with the tolerance the
re-baseline moved the values by written below.  JSON stores float64 via
``repr``, which round-trips exactly, so comparisons are ``==``, not
approx: within a commit the run is bit-exact.

Re-baselines of a numeric contract, and how far each moved the pins:

- Class-space slot bill (the engine's chosen cell and the realized slot
  billed as (profile, level) class rows instead of per-group sums): the
  contract is the per-group bill within 1e-12 relative
  (``tests/test_class_billing.py``).  ``cost``, ``brown_energy``,
  ``queue``, ``served`` and ``facility_power`` moved on 163 of 1,176
  pinned values, by at most 1.2e-15 relative; ``dropped`` and
  ``v_applied`` did not move.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.coca import COCA
from repro.sim import simulate

GOLDEN_DIR = Path(__file__).parent / "goldens"
GOLDEN_PATH = GOLDEN_DIR / "golden_run.json"

#: Pinned run parameters — change these only together with the golden file.
GOLDEN_V = 150.0
GOLDEN_ARRAYS = (
    "cost",
    "brown_energy",
    "queue",
    "served",
    "dropped",
    "facility_power",
    "v_applied",
)


def _golden_record(week_scenario):
    controller = COCA(
        week_scenario.model,
        week_scenario.environment.portfolio,
        v_schedule=GOLDEN_V,
        alpha=week_scenario.alpha,
    )
    return simulate(
        week_scenario.model, controller, week_scenario.environment
    )


def _as_payload(record) -> dict:
    return {
        "v": GOLDEN_V,
        "horizon": int(record.horizon),
        "arrays": {
            name: [float(x) for x in getattr(record, name)]
            for name in GOLDEN_ARRAYS
        },
    }


def _diff(name: str, got: np.ndarray, want: list[float]) -> str:
    got_list = [float(x) for x in got]
    if len(got_list) != len(want):
        return f"{name}: length {len(got_list)} != golden {len(want)}"
    bad = [i for i, (g, w) in enumerate(zip(got_list, want)) if g != w]
    i = bad[0]
    return (
        f"{name}: {len(bad)}/{len(want)} slots differ, first at t={i}: "
        f"got {got_list[i]!r}, golden {want[i]!r} "
        f"(delta {got_list[i] - want[i]:.3e})"
    )


class TestGoldenRun:
    def test_week_matches_golden(self, week_scenario, update_goldens):
        record = _golden_record(week_scenario)
        payload = _as_payload(record)
        if update_goldens:
            GOLDEN_DIR.mkdir(exist_ok=True)
            with open(GOLDEN_PATH, "w") as fh:
                json.dump(payload, fh, indent=1)
                fh.write("\n")
            pytest.skip(f"golden refreshed at {GOLDEN_PATH}")
        if not GOLDEN_PATH.exists():
            pytest.fail(
                f"missing golden file {GOLDEN_PATH}; generate it with "
                "--update-goldens and commit it"
            )
        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)
        assert payload["horizon"] == golden["horizon"], "horizon changed"
        assert golden["v"] == GOLDEN_V, "pinned V changed without a refresh"
        mismatches = [
            _diff(name, getattr(record, name), golden["arrays"][name])
            for name in GOLDEN_ARRAYS
            if [float(x) for x in getattr(record, name)]
            != golden["arrays"][name]
        ]
        assert not mismatches, (
            "golden run diverged (bit-identity broken). If the change is "
            "intentional, refresh with --update-goldens.\n  "
            + "\n  ".join(mismatches)
        )

    def test_empty_fault_schedule_matches_golden(
        self, week_scenario, update_goldens
    ):
        """The no-fault chaos path must be byte-identical to the plain run —
        the fault subsystem's core contract, checked against the same pins."""
        if update_goldens or not GOLDEN_PATH.exists():
            pytest.skip("golden file being refreshed or absent")
        from repro.faults import FaultSchedule

        controller = COCA(
            week_scenario.model,
            week_scenario.environment.portfolio,
            v_schedule=GOLDEN_V,
            alpha=week_scenario.alpha,
        )
        record = simulate(
            week_scenario.model,
            controller,
            week_scenario.environment,
            faults=FaultSchedule.empty(),
        )
        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)
        for name in GOLDEN_ARRAYS:
            assert [float(x) for x in getattr(record, name)] == golden[
                "arrays"
            ][name], _diff(name, getattr(record, name), golden["arrays"][name])
