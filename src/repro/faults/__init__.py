"""Seeded, deterministic fault injection for chaos experiments.

The subsystem has four pieces, each usable on its own:

* :mod:`~repro.faults.schedule` — declarative :class:`FaultSchedule`
  (timed group failures/repairs, signal degradation, a message-fault
  profile), JSON round-trippable and reproducible from one seed;
* :mod:`~repro.faults.bus` — :class:`FaultyMessageBus`, a drop-in
  unreliable fabric for the distributed protocol;
* :mod:`~repro.faults.injector` — :class:`FaultInjector`, the runtime
  that threads a schedule through :func:`repro.sim.simulate`;
* :mod:`~repro.faults.degradation` — :class:`DegradationPolicy`, what the
  simulator runs when a slot solve cannot complete.

See ``docs/TESTING.md`` for the chaos-testing workflow and
``repro chaos --help`` for the end-to-end CLI.
"""

from .bus import FaultyMessageBus
from .degradation import DegradationPolicy, proportional_action
from .injector import FaultInjector
from .schedule import (
    FAULT_KINDS,
    FaultEvent,
    FaultSchedule,
    MessageFaultProfile,
)

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "MessageFaultProfile",
    "FaultyMessageBus",
    "FaultInjector",
    "DegradationPolicy",
    "proportional_action",
]
