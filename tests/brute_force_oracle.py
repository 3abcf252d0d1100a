"""Exhaustive P3 oracle for small instances.

Enumerates every speed configuration in ``prod_g (K_g + 1)`` (each group may
be off or at any of its levels), scores each with
:func:`tests.conftest.cold_objective` -- one cold inner solve, no fast
path -- and returns the first minimizer in enumeration order.  This is the
reference against which GSD (Theorem 1 says it converges here as
``delta -> infinity``), coordinate descent and the homogeneous enumeration
engine are checked; the configuration count is guarded so it cannot be
unleashed on the 200-group fleet by accident.  No engine or command
calls it.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from repro.solvers import (
    InfeasibleError,
    SlotProblem,
    SlotSolution,
    SlotSolver,
    solve_fixed_levels,
)
from tests.conftest import cold_objective

__all__ = ["BruteForceOracle"]


class BruteForceOracle(SlotSolver):
    """Exact exhaustive search over :func:`cold_objective`.

    Parameters
    ----------
    max_configs:
        Safety cap on the number of configurations enumerated.
    """

    def __init__(self, *, max_configs: int = 200_000):
        if max_configs < 1:
            raise ValueError("max_configs must be positive")
        self.max_configs = max_configs

    def config_count(self, problem: SlotProblem) -> int:
        """Size of the configuration space ``prod_g (K_g + 1)``."""
        return int(np.prod(problem.fleet.num_levels + 1))

    def solve(self, problem: SlotProblem) -> SlotSolution:
        problem.check_feasible()
        total = self.config_count(problem)
        if total > self.max_configs:
            raise ValueError(
                f"{total} configurations exceed the brute-force cap "
                f"{self.max_configs}; use another solver"
            )
        best_obj, best_levels = np.inf, None
        for combo in product(*(range(-1, int(k)) for k in problem.fleet.num_levels)):
            obj = cold_objective(problem, combo)
            if obj < best_obj:
                best_obj, best_levels = obj, np.asarray(combo, dtype=np.int64)
        if best_levels is None:
            raise InfeasibleError("no feasible configuration exists for this slot")
        action, evaluation = solve_fixed_levels(problem, best_levels)
        return SlotSolution(
            action=action, evaluation=evaluation, info={"configs_total": total}
        )
