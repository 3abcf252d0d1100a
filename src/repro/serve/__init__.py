"""Live signal feeds and the status endpoint: the adapters of a run.

COCA is an online algorithm -- it needs only currently-available
information -- so a live feed is just another source of each slot's
price/renewables/arrival observations for the one slot loop
(:class:`~repro.sim.loop.ControlService`, re-exported here).  This
package holds what ``repro run --source file|synthetic`` adds around it:
pluggable :class:`~repro.serve.signals.SignalSource` feeds, an explicit
staleness policy (:class:`~repro.serve.staleness.StalenessResolver`,
degrading through the :mod:`repro.faults` path), the append-only
:class:`~repro.serve.environment.LiveEnvironment` whose frames ride in the
:mod:`repro.state` checkpoints (SIGTERM, SIGKILL or a host crash ->
``repro resume`` completes bit-identically), and a stdlib HTTP status
endpoint (:class:`~repro.serve.status.StatusServer`).  A replay of the
scenario traces imports none of it.  See ``docs/SERVING.md`` for the
architecture and runbook.
"""

from ..runspec import SOURCE_KINDS, ServeConfig
from ..sim.loop import ControlService, ServiceResult
from .environment import LiveEnvironment
from .signals import (
    FileTailSignalSource,
    ReplaySignalSource,
    SignalFrame,
    SignalSource,
    SyntheticSignalSource,
    frames_from_environment,
    write_feed,
)
from .staleness import RESOLUTIONS, StalenessResolver
from .status import StatusBoard, StatusServer

__all__ = [
    "SOURCE_KINDS",
    "ServeConfig",
    "LiveEnvironment",
    "ControlService",
    "ServiceResult",
    "SignalFrame",
    "SignalSource",
    "ReplaySignalSource",
    "FileTailSignalSource",
    "SyntheticSignalSource",
    "frames_from_environment",
    "write_feed",
    "RESOLUTIONS",
    "StalenessResolver",
    "StatusBoard",
    "StatusServer",
]
