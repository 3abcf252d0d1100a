"""COCA core: the paper's contribution (Algorithm 1, queue, V, bounds)."""

from .bounds import LyapunovConstants, cost_bound, deficit_bound, lyapunov_constants
from .coca import COCA, default_solver
from .config import DataCenterModel
from .controller import Controller, SlotObservation, SlotOutcome
from .deficit_queue import CarbonDeficitQueue
from .vschedule import ConstantV, FrameV, VSchedule, quarterly

__all__ = [
    "COCA",
    "default_solver",
    "DataCenterModel",
    "Controller",
    "SlotObservation",
    "SlotOutcome",
    "CarbonDeficitQueue",
    "VSchedule",
    "ConstantV",
    "FrameV",
    "quarterly",
    "LyapunovConstants",
    "lyapunov_constants",
    "cost_bound",
    "deficit_bound",
]
