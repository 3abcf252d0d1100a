"""Long-running online control: COCA as a service, not a batch job.

COCA is an online algorithm -- it needs only currently-available
information -- yet everything before this package ran it over traces known
up front.  :mod:`repro.serve` closes that gap: a slot-driven control loop
(:class:`~repro.serve.loop.ControlService`) pulls each slot's
price/renewables/arrival observations from a pluggable
:class:`~repro.serve.signals.SignalSource`, resolves feed imperfections
through an explicit staleness policy
(:class:`~repro.serve.staleness.StalenessResolver`, degrading through the
:mod:`repro.faults` path), and executes the slot through the same
:class:`~repro.sim.engine.SlotRunner` the batch engine uses -- so
``repro serve --source replay`` is bit-identical to ``repro run``.

Operational trimmings: live :mod:`repro.monitor` alerts, periodic
dashboard re-renders, cadenced :mod:`repro.state` checkpoints that also
carry a live feed's resolved frames (SIGTERM, SIGKILL or a host crash ->
``repro serve --resume`` completes bit-identically), and a stdlib HTTP
status endpoint (:class:`~repro.serve.status.StatusServer`).
See ``docs/SERVING.md`` for the architecture and runbook.
"""

from .config import SOURCE_KINDS, ServeConfig
from .environment import LiveEnvironment
from .loop import ControlService, ServiceResult
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
