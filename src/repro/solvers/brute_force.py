"""Exhaustive P3 oracle for small instances.

Enumerates every speed configuration in ``prod_g (K_g + 1)`` (each group may
be off or at any of its levels), solves the convex load-distribution
subproblem exactly for each, and returns the global minimizer.  This is the
test oracle against which GSD (Theorem 1 says it converges here as
``delta -> infinity``), coordinate descent, and the homogeneous enumeration
engine are validated; the configuration count is guarded so it cannot be
unleashed on the 200-group fleet by accident.

Scoring goes through the shared
:class:`~repro.solvers.fastpath.EvaluationCache` with cold inner solves,
so the oracle stays exact.  Every combo is distinct so the memo cache never
hits, but the O(1) delta screen rejects under-capacity on-sets without
entering the inner solve -- the enumeration order flips one trailing group
at a time, exactly the access pattern the screen is built for.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .base import SlotSolution, SlotSolver
from .deadline import DeadlineExceededError, SolveDeadline
from .fastpath import EvaluationCache
from .problem import InfeasibleError, SlotProblem

__all__ = ["BruteForceSolver"]

#: Combos between deadline polls: amortizes the clock read against the much
#: costlier inner solves without letting an overrun stretch past ~a screenful
#: of candidates.
_DEADLINE_STRIDE = 64


class BruteForceSolver(SlotSolver):
    """Exact exhaustive search (test oracle).

    Parameters
    ----------
    max_configs:
        Safety cap on the number of configurations enumerated.
    deadline_ms:
        Wall-clock budget; the enumeration polls it every
        ``_DEADLINE_STRIDE`` combos and stops early on expiry, returning
        the best configuration enumerated so far (no longer the *global*
        optimum -- ``info["deadline"]["expired"]`` says so) or raising
        :class:`~repro.solvers.deadline.DeadlineExceededError` when
        nothing feasible was seen.  ``None`` never expires.
    """

    def __init__(
        self,
        *,
        max_configs: int = 200_000,
        deadline_ms: float | None = None,
    ):
        if max_configs < 1:
            raise ValueError("max_configs must be positive")
        self.max_configs = max_configs
        self.deadline_ms = deadline_ms

    def config_count(self, problem: SlotProblem) -> int:
        """Size of the configuration space ``prod_g (K_g + 1)``."""
        return int(np.prod(problem.fleet.num_levels + 1))

    def solve(self, problem: SlotProblem) -> SlotSolution:
        deadline = SolveDeadline(self.deadline_ms)
        problem.check_feasible()
        fleet = problem.fleet
        total = self.config_count(problem)
        if total > self.max_configs:
            raise ValueError(
                f"{total} configurations exceed the brute-force cap "
                f"{self.max_configs}; use another solver"
            )

        cache = EvaluationCache(problem)
        levels = np.empty(fleet.num_groups, dtype=np.int64)
        best_obj = np.inf
        best_levels: np.ndarray | None = None
        seen = 0
        truncated = False
        prev: tuple[int, ...] | None = None
        for combo in product(*(range(-1, int(k)) for k in fleet.num_levels)):
            if seen % _DEADLINE_STRIDE == 0 and seen and deadline.expired():
                truncated = True
                break
            seen += 1
            if prev is None:
                levels[:] = combo
                cache.note_all()
            else:
                for g, cand in enumerate(combo):
                    if cand != prev[g]:
                        levels[g] = cand
                        cache.note_changed(g)
            prev = combo
            obj = cache.objective_of(levels)
            if obj < best_obj:
                best_obj = obj
                best_levels = levels.copy()
        if truncated:
            tele = self.telemetry
            if tele.enabled:
                tele.emit(
                    "deadline.expired",
                    solver=self.name(),
                    budget_ms=float(self.deadline_ms),
                    elapsed_ms=deadline.elapsed_ms(),
                    completed=seen,
                    planned=total,
                    best_feasible=best_levels is not None,
                )
                tele.metrics.counter("deadline.expirations").inc()
            if best_levels is None:
                raise DeadlineExceededError(
                    f"enumeration deadline ({self.deadline_ms} ms) expired after "
                    f"{seen}/{total} configurations with no feasible incumbent"
                )
        if best_levels is None:
            raise InfeasibleError("no feasible configuration exists for this slot")
        action, evaluation = cache.solution_for(best_levels)
        info: dict = {
            "configs_total": total,
            # Combos whose inner solve ran to completion; screened-out
            # combos (provably infeasible or cap-breaking) are excluded.
            "configs_feasible": cache.stats.inner_solves,
            "fastpath": cache.stats.as_dict(),
        }
        if self.deadline_ms is not None:
            info["deadline"] = {
                "budget_ms": float(self.deadline_ms),
                "elapsed_ms": deadline.elapsed_ms(),
                "expired": truncated,
                "completed": seen,
                "planned": total,
            }
        return SlotSolution(action=action, evaluation=evaluation, info=info)
