"""Baseline policies the paper compares COCA against."""

from .carbon_unaware import CarbonUnaware, calibrate_budget
from .dual import (
    DualReplay,
    FrameOptimum,
    OfflineOptimal,
    dual_sweep,
    lookahead_optima,
)
from .perfect_hp import PerfectHP

__all__ = [
    "CarbonUnaware",
    "calibrate_budget",
    "DualReplay",
    "OfflineOptimal",
    "PerfectHP",
    "FrameOptimum",
    "dual_sweep",
    "lookahead_optima",
]
