"""Simulation layer: environment, slot engine, the slot loop, metrics."""

from .engine import realize_action, simulate
from .environment import Environment
from .loop import ControlService, ServiceResult
from .metrics import RunSummary, SimulationRecord

__all__ = [
    "Environment",
    "simulate",
    "realize_action",
    "ControlService",
    "ServiceResult",
    "SimulationRecord",
    "RunSummary",
]
