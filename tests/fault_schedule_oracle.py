"""Scalar fault-schedule generator: the test oracle for the shipped one.

:meth:`repro.faults.FaultSchedule.generate` draws each slot's per-group
failure uniforms as one block and rewinds the generator past a failure
before drawing its repair time.  This module keeps the historical
formulation -- one ``rng.random()`` call per healthy group per slot -- so
tests can pin the shipped generator to the exact same schedules.  It is
not importable from the package and no engine calls it.
"""

from __future__ import annotations

import numpy as np

from repro.faults.schedule import (
    SIGNAL_FIELDS,
    SIGNAL_MODES,
    FaultEvent,
    FaultSchedule,
    MessageFaultProfile,
)

__all__ = ["oracle_generate"]


def oracle_generate(
    seed: int,
    *,
    horizon: int,
    num_groups: int,
    failure_rate: float = 0.01,
    mean_repair: float = 6.0,
    signal_rate: float = 0.0,
    loss: float = 0.0,
    delay: float = 0.0,
    duplicate: float = 0.0,
) -> FaultSchedule:
    """:meth:`FaultSchedule.generate`, one scalar draw at a time."""
    rng = np.random.default_rng(seed)
    events: list[FaultEvent] = []
    repair_at: dict[int, int] = {}  # group -> slot it comes back
    for t in range(horizon):
        just_repaired = sorted(g for g, tr in repair_at.items() if tr == t)
        for g in just_repaired:
            events.append(FaultEvent(t=t, kind="group_repair", group=g))
            del repair_at[g]
        for g in range(num_groups):
            if g in repair_at or g in just_repaired:
                continue
            if rng.random() < failure_rate and len(repair_at) < num_groups - 1:
                down_for = 1 + int(rng.geometric(1.0 / mean_repair))
                events.append(FaultEvent(t=t, kind="group_fail", group=g))
                back = t + down_for
                if back < horizon:
                    repair_at[g] = back
                else:
                    repair_at[g] = horizon + 1  # never repaired in-run
        if signal_rate > 0.0 and rng.random() < signal_rate:
            field_ = SIGNAL_FIELDS[int(rng.integers(0, len(SIGNAL_FIELDS)))]
            mode = SIGNAL_MODES[int(rng.integers(0, len(SIGNAL_MODES)))]
            duration = int(rng.integers(1, 4))
            events.append(
                FaultEvent(t=t, kind="signal", field=field_, mode=mode, duration=duration)
            )
    profile = MessageFaultProfile(loss=loss, delay=delay, duplicate=duplicate, seed=seed)
    return FaultSchedule(
        events=tuple(events),
        messages=None if profile.is_null else profile,
        seed=seed,
    )
