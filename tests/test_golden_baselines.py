"""Golden pin of the offline baselines on a seeded small fortnight.

The fortnight has no per-slot PUE trace, so every baseline sweep solves
the same slot problems its replay does apart from the switching charge.
Pinned, bit for bit:

* OPT (problem P1 at the portfolio's carbon budget): its multiplier, and
  every field of the same problem solved as P2 with one frame of J slots,
  which carries P1's total brown energy, average cost and dual lower bound;
* every frame of P2 at T = 24 (two daily frames cannot meet their budget)
  and at T = 168;
* PerfectHP's per-hour caps, multipliers and fallback hours;
* the per-slot cost, brown energy and active servers of the OPT, PerfectHP
  and carbon-unaware replays.

Refresh after an intentional behavior change with::

    PYTHONPATH=src python -m pytest tests/test_golden_baselines.py --update-goldens

and commit the rewritten JSON on its own.  Floats are stored via ``repr``
(exact round trip) and compared with ``==``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.baselines import CarbonUnaware, OfflineOptimal, PerfectHP, lookahead_optima
from repro.sim import simulate

GOLDEN_PATH = Path(__file__).parent / "goldens" / "golden_baselines.json"

#: P2 frame lengths pinned besides the one-frame case.
FRAME_LENGTHS = (24, 168)
RECORD_ARRAYS = ("cost", "brown_energy", "active_servers")


def _frames(scenario, T: int) -> list[dict]:
    return [
        {
            **dataclasses.asdict(f),
            "feasible": f.feasible,
        }
        for f in lookahead_optima(scenario.model, scenario.environment, T)
    ]


def _record(scenario, controller) -> dict:
    record = simulate(scenario.model, controller, scenario.environment)
    return {name: [float(x) for x in getattr(record, name)] for name in RECORD_ARRAYS}


def _golden_payload(scenario) -> dict:
    model, env = scenario.model, scenario.environment
    assert env.pue is None, "the golden fortnight must not carry a PUE trace"
    opt = OfflineOptimal(model)
    hp = PerfectHP(model, alpha=scenario.alpha)
    records = {
        "opt": _record(scenario, opt),
        "perfecthp": _record(scenario, hp),
        "unaware": _record(scenario, CarbonUnaware(model)),
    }
    return {
        "horizon": int(scenario.horizon),
        "opt_mu": float(opt.mu),
        "one_frame": _frames(scenario, scenario.horizon),
        "frames": {str(T): _frames(scenario, T) for T in FRAME_LENGTHS},
        "perfecthp": {
            "caps": [float(x) for x in hp.caps],
            "mu": [float(x) for x in hp.mu],
            "fallback": [bool(x) for x in hp.fallback],
        },
        "records": records,
    }


def _diff(path: str, got, want) -> list[str]:
    """Paths at which ``got`` and ``want`` differ (``==`` on leaves)."""
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != golden {sorted(want)}"]
        return [d for k in want for d in _diff(f"{path}.{k}", got[k], want[k])]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != golden {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in _diff(f"{path}[{i}]", g, w)]
    return [] if got == want else [f"{path}: got {got!r}, golden {want!r}"]


def test_baselines_fortnight_matches_golden(fortnight_scenario, update_goldens):
    payload = _golden_payload(fortnight_scenario)
    if update_goldens:
        with open(GOLDEN_PATH, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        pytest.skip(f"golden refreshed at {GOLDEN_PATH}")
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    # OPT is P2 with one frame: the same multiplier from either entry point.
    assert payload["opt_mu"] == payload["one_frame"][0]["mu"]
    # The pin covers infeasible daily frames, as the docstring promises.
    assert not all(f["feasible"] for f in payload["frames"]["24"])
    bad = _diff("golden", payload, golden)
    assert not bad, (
        f"{len(bad)} pinned values differ, first: {bad[0]}. If the change is "
        "intentional, refresh with --update-goldens."
    )
