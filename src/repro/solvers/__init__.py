"""P3 solver engines: problem definition, load distribution, and search."""

from .base import SlotSolution, SlotSolver
from .convex import CoordinateDescentSolver, initial_levels
from .deadline import DeadlineExceededError, SolveDeadline
from .degraded import solve_with_failed_groups
from .enumeration import HomogeneousEnumerationSolver
from .fastpath import EvaluationCache, FastPathStats
from .gsd import GSDSolver, GSDTrace, geometric_temperature
from .load_distribution import LoadDistribution, distribute_load, solve_fixed_levels
from .messaging import BusTimeoutError, DistributedGSD, MessageTransport
from .problem import InfeasibleError, SlotEvaluation, SlotProblem

__all__ = [
    "SlotProblem",
    "SlotEvaluation",
    "InfeasibleError",
    "SlotSolution",
    "SlotSolver",
    "LoadDistribution",
    "distribute_load",
    "solve_fixed_levels",
    "EvaluationCache",
    "FastPathStats",
    "HomogeneousEnumerationSolver",
    "CoordinateDescentSolver",
    "initial_levels",
    "GSDSolver",
    "GSDTrace",
    "geometric_temperature",
    "SolveDeadline",
    "DeadlineExceededError",
    "DistributedGSD",
    "MessageTransport",
    "BusTimeoutError",
    "solve_with_failed_groups",
]
