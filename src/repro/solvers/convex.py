"""Deterministic local-search P3 engine for heterogeneous fleets.

For fleets mixing server profiles, the slot problem no longer collapses to a
(servers-on, shared-speed) pair.  :class:`CoordinateDescentSolver` performs
best-response sweeps over group speed levels: one group at a time, it tries
every level in ``{off} ∪ S_g`` while holding the rest fixed, re-solving the
*convex* load-distribution subproblem exactly for each candidate (see
:mod:`repro.solvers.load_distribution`), and keeps the best.  Sweeps repeat
until a full pass yields no improvement.

This is the deterministic counterpart of GSD's stochastic search: both walk
the same discrete configuration lattice with the same exact inner solve, but
coordinate descent is greedy (it can stop in a local optimum -- precisely
the failure mode the paper motivates Gibbs sampling with, section 4.2).
Multiple restarts from distinct initial points trade time for robustness.

Candidates are scored through a per-solve
:class:`~repro.solvers.fastpath.EvaluationCache`, one
:meth:`~repro.solvers.fastpath.EvaluationCache.flip` each.  Sweeps re-score
the same configurations constantly (every non-improving candidate is
revisited on the next pass), so memo hits dominate after the first sweep.
"""

from __future__ import annotations

import time

import numpy as np

from .base import SlotSolution, SlotSolver
from .deadline import DeadlineExceededError, SolveDeadline
from .fastpath import EvaluationCache
from .problem import InfeasibleError, SlotProblem

__all__ = ["CoordinateDescentSolver", "initial_levels"]


def initial_levels(problem: SlotProblem, kind: str = "max") -> np.ndarray:
    """Feasible starting configurations for iterative engines.

    ``"max"`` puts every healthy group at its top speed (always feasible
    when the slot is feasible at all); ``"min-capacity"`` turns healthy
    groups on at top speed in index order only until the capped capacity
    covers the load.  Failed groups stay off in both.
    """
    fleet = problem.fleet
    if kind == "max":
        levels = (fleet.num_levels - 1).astype(np.int64)
        if problem.failed is not None:
            levels[list(problem.failed)] = -1
        return levels
    if kind == "min-capacity":
        healthy = problem.healthy
        top = fleet.num_levels[healthy] - 1
        caps = problem.gamma * fleet.counts[healthy] * fleet.speed_table[healthy, top]
        cum = np.cumsum(caps)
        need = int(np.searchsorted(cum, problem.arrival_rate * (1 + 1e-12))) + 1
        levels = np.full(fleet.num_groups, -1, dtype=np.int64)
        levels[healthy[:need]] = top[:need]
        return levels
    raise ValueError(f"unknown initial-levels kind: {kind!r}")


class CoordinateDescentSolver(SlotSolver):
    """Best-response sweeps over per-group speed levels.

    Parameters
    ----------
    max_sweeps:
        Upper bound on full passes over the groups.
    restarts:
        Number of initial points tried: the first is ``"max"`` (all groups
        at top speed -- the good basin when delay dominates), the second is
        ``"min-capacity"`` (just enough groups on -- the good basin when
        the electricity/deficit weight dominates), and any further restarts
        are random feasible configurations drawn from ``rng``.  The default
        of 2 covers both objective regimes.
    rng:
        Randomness source for restarts; defaults to a fixed-seed generator
        so results are reproducible.
    deadline_ms:
        Wall-clock budget per solve; on expiry the sweep stops and the best
        incumbent so far is returned (``info["deadline"]``), or
        :class:`~repro.solvers.deadline.DeadlineExceededError` is raised if
        nothing feasible was reached yet.  ``None`` never expires.
    """

    def __init__(
        self,
        *,
        max_sweeps: int = 8,
        restarts: int = 2,
        rng: np.random.Generator | None = None,
        deadline_ms: float | None = None,
    ):
        if max_sweeps < 1 or restarts < 1:
            raise ValueError("max_sweeps and restarts must be >= 1")
        self.max_sweeps = max_sweeps
        self.restarts = restarts
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.deadline_ms = deadline_ms

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Checkpointable solver state (restart RNG position)."""
        from ..state.serialize import encode_rng

        return {"rng": encode_rng(self.rng)}

    def load_state_dict(self, state: dict) -> None:
        """Restore the restart RNG from a checkpoint."""
        from ..state.serialize import decode_rng

        self.rng = decode_rng(state["rng"])

    # ------------------------------------------------------------------
    def _descend(
        self,
        problem: SlotProblem,
        levels: np.ndarray,
        cache: EvaluationCache,
        deadline: SolveDeadline,
    ) -> tuple[np.ndarray, float, int]:
        fleet = problem.fleet
        best = cache.reset(levels)
        config = cache.levels
        sweeps = 0
        for _ in range(self.max_sweeps):
            sweeps += 1
            improved = False
            for g in problem.healthy.tolist():
                current = config[g]
                for cand in range(-1, int(fleet.num_levels[g])):
                    if cand == current:
                        continue
                    if deadline.expired():
                        # `config` holds the best accepted configuration of
                        # this restart, so it is a valid anytime incumbent.
                        return np.array(config, dtype=np.int64), best, sweeps
                    val = cache.flip(g, cand)
                    if val < best - 1e-12 * max(abs(best), 1.0):
                        best = val
                        current = cand
                        improved = True
                    else:
                        cache.move(g, current)
            if not improved:
                break
        return np.array(config, dtype=np.int64), best, sweeps

    def solve(self, problem: SlotProblem) -> SlotSolution:
        deadline = SolveDeadline(self.deadline_ms)
        tele = self.telemetry
        started = time.perf_counter() if tele.enabled else 0.0
        problem.check_feasible()
        fleet = problem.fleet
        cache = EvaluationCache(problem)
        best_levels: np.ndarray | None = None
        best_val = np.inf
        total_sweeps = 0
        attempts = 0

        for attempt in range(self.restarts):
            if attempt > 0 and deadline.expired():
                break
            attempts += 1
            if attempt == 0:
                levels = initial_levels(problem, "max")
            elif attempt == 1:
                levels = initial_levels(problem, "min-capacity")
            else:
                levels = np.full(fleet.num_groups, -1, dtype=np.int64)
                for g in problem.healthy.tolist():
                    levels[g] = self.rng.integers(-1, fleet.num_levels[g])
                if not np.isfinite(cache.reset(levels)):
                    levels = initial_levels(problem, "max")
            levels, val, sweeps = self._descend(problem, levels, cache, deadline)
            total_sweeps += sweeps
            if val < best_val:
                best_val = val
                best_levels = levels.copy()

        truncated = deadline.expired()
        if truncated and tele.enabled:
            tele.emit(
                "deadline.expired",
                solver=self.name(),
                budget_ms=float(self.deadline_ms),
                elapsed_ms=deadline.elapsed_ms(),
                completed=attempts,
                planned=self.restarts,
                best_feasible=best_levels is not None and bool(np.isfinite(best_val)),
            )
            tele.metrics.counter("deadline.expirations").inc()
        if best_levels is None or not np.isfinite(best_val):
            if truncated:
                raise DeadlineExceededError(
                    f"coordinate-descent deadline ({self.deadline_ms} ms) expired "
                    "with no feasible incumbent"
                )
            # Every restart descended to +inf: no configuration reachable by
            # single-coordinate moves satisfies the operational caps.
            raise InfeasibleError(
                "coordinate descent found no configuration satisfying the "
                "operational caps; try more restarts or another engine"
            )
        action, evaluation = cache.solution_for(best_levels)

        info: dict = {"sweeps": total_sweeps, "restarts": self.restarts}
        if self.deadline_ms is not None:
            info["deadline"] = {
                "budget_ms": float(self.deadline_ms),
                "elapsed_ms": deadline.elapsed_ms(),
                "expired": truncated,
                "completed": attempts,
                "planned": self.restarts,
            }
        stats = cache.stats
        info["fastpath"] = stats.as_dict()
        info["inner_solves"] = stats.inner_solves
        info["evaluations"] = stats.evaluations

        if tele.enabled:
            elapsed = time.perf_counter() - started
            tele.metrics.histogram("cd.solve_time_s").observe(elapsed)
            tele.metrics.counter("cd.solves").inc()
            tele.metrics.counter("cd.inner_solves").inc(stats.inner_solves)
            tele.metrics.counter("cd.evaluations").inc(stats.evaluations)
            tele.metrics.counter("cd.cache_hits").inc(stats.cache_hits)
            tele.metrics.counter("cd.screened_infeasible").inc(
                stats.screened_infeasible
            )

        return SlotSolution(action=action, evaluation=evaluation, info=info)
