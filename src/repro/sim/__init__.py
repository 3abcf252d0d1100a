"""Simulation layer: environment, slot engine, metrics."""

from .engine import realize_action, simulate
from .environment import Environment
from .metrics import RunSummary, SimulationRecord

__all__ = [
    "Environment",
    "simulate",
    "realize_action",
    "SimulationRecord",
    "RunSummary",
]
