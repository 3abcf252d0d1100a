"""Exhaustive P3 oracle for small instances.

Enumerates every speed configuration in ``prod_g (K_g + 1)`` (each group may
be off or at any of its levels), solves the convex load-distribution
subproblem exactly for each, and returns the global minimizer.  This is the
test oracle against which GSD (Theorem 1 says it converges here as
``delta -> infinity``), coordinate descent, and the homogeneous enumeration
engine are validated; the configuration count is guarded so it cannot be
unleashed on the 200-group fleet by accident.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from ..cluster.fleet import FleetAction
from .base import SlotSolution, SlotSolver
from .deadline import DeadlineExceededError, SolveDeadline
from .fastpath import EvaluationCache
from .load_distribution import distribute_load
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
    use_cache:
        Route scoring through the shared
        :class:`~repro.solvers.fastpath.EvaluationCache`.  Every combo is
        distinct so the memo cache never hits, but the O(1) delta screen
        rejects under-capacity on-sets without entering the inner solve --
        the enumeration order flips one trailing group at a time, exactly
        the access pattern the screen is built for.  Results are identical
        either way.
    warm_start:
        Seed consecutive inner solves from each other (requires
        ``use_cache``; <= 1e-9 relative objective contract).  Off by
        default -- the oracle stays bit-exact.
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
        use_cache: bool = True,
        warm_start: bool = False,
        deadline_ms: float | None = None,
    ):
        if max_configs < 1:
            raise ValueError("max_configs must be positive")
        if warm_start and not use_cache:
            raise ValueError("warm_start requires use_cache")
        self.max_configs = max_configs
        self.use_cache = use_cache
        self.warm_start = warm_start
        self.deadline_ms = deadline_ms

    def config_count(self, problem: SlotProblem) -> int:
        """Size of the configuration space ``prod_g (K_g + 1)``."""
        return int(np.prod(problem.fleet.num_levels + 1))

    def _on_expiry(
        self, deadline: SolveDeadline, seen: int, total: int, feasible: bool
    ) -> None:
        tele = self.telemetry
        if tele.enabled:
            tele.emit(
                "deadline.expired",
                solver=self.name(),
                budget_ms=float(self.deadline_ms),
                elapsed_ms=deadline.elapsed_ms(),
                completed=seen,
                planned=total,
                best_feasible=feasible,
            )
            tele.metrics.counter("deadline.expirations").inc()
        if not feasible:
            raise DeadlineExceededError(
                f"enumeration deadline ({self.deadline_ms} ms) expired after "
                f"{seen}/{total} configurations with no feasible incumbent"
            )

    def _deadline_info(
        self, deadline: SolveDeadline, truncated: bool, seen: int, total: int
    ) -> dict:
        return {
            "budget_ms": float(self.deadline_ms),
            "elapsed_ms": deadline.elapsed_ms(),
            "expired": truncated,
            "completed": seen,
            "planned": total,
        }

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

        best_obj = np.inf
        best_levels: np.ndarray | None = None
        best_loads: np.ndarray | None = None
        evaluated = 0
        seen = 0
        truncated = False
        ranges = [range(-1, int(k)) for k in fleet.num_levels]

        if self.use_cache:
            cache = EvaluationCache(problem, warm_start=self.warm_start)
            levels = np.empty(fleet.num_groups, dtype=np.int64)
            prev: tuple[int, ...] | None = None
            for combo in product(*ranges):
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
                self._on_expiry(deadline, seen, total, best_levels is not None)
            if best_levels is None:
                raise InfeasibleError(
                    "no feasible configuration exists for this slot"
                )
            # Combos whose inner solve ran to completion; screened-out
            # combos (provably infeasible or cap-breaking) are excluded.
            evaluated = cache.stats.inner_solves
            action, evaluation = cache.solution_for(best_levels)
            info: dict = {
                "configs_total": total,
                "configs_feasible": evaluated,
                "fastpath": cache.stats.as_dict(),
            }
            if self.deadline_ms is not None:
                info["deadline"] = self._deadline_info(deadline, truncated, seen, total)
            return SlotSolution(action=action, evaluation=evaluation, info=info)

        for combo in product(*ranges):
            if seen % _DEADLINE_STRIDE == 0 and seen and deadline.expired():
                truncated = True
                break
            seen += 1
            levels = np.asarray(combo, dtype=np.int64)
            try:
                dist = distribute_load(problem, levels)
            except InfeasibleError:
                continue
            evaluated += 1
            action = FleetAction(levels=levels, per_server_load=dist.per_server_load)
            evaluation = problem.evaluate(action)
            if problem.violates_caps(evaluation):
                continue
            obj = evaluation.objective
            if obj < best_obj:
                best_obj = obj
                best_levels = levels
                best_loads = dist.per_server_load

        if truncated:
            self._on_expiry(deadline, seen, total, best_levels is not None)
        if best_levels is None:
            raise InfeasibleError("no feasible configuration exists for this slot")
        action = FleetAction(levels=best_levels, per_server_load=best_loads)
        info = {"configs_total": total, "configs_feasible": evaluated}
        if self.deadline_ms is not None:
            info["deadline"] = self._deadline_info(deadline, truncated, seen, total)
        return SlotSolution(
            action=action,
            evaluation=problem.evaluate(action),
            info=info,
        )
