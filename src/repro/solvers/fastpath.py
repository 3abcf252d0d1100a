"""Shared solver fast path: memo cache, delta screen, warm-started solves.

Every candidate configuration a P3 engine touches -- a GSD proposal
(Algorithm 2 line 2), a coordinate-descent best response, a brute-force
combo -- pays for the same three things: a feasibility check, an exact
convex inner solve (Eq. (18), :func:`~repro.solvers.load_distribution
.distribute_load`), and an evaluation of the resulting action.  Chains
revisit the same level vectors constantly and consecutive candidates differ
in a single group, so most of that work is redundant.  This module factors
the redundancy out once, for all engines; it is the only way they score a
candidate:

- **Per-solve memo cache** (:meth:`EvaluationCache.objective_of`): keyed on
  ``levels.tobytes()``.  A hit returns the float computed the first time
  the vector was seen; since the inner solve is deterministic, the cached
  value equals what a recompute would produce bit for bit.
- **Class-histogram memo**: the inner solve depends on a level vector only
  through its (profile, level) class histogram
  (:meth:`~repro.cluster.fleet.Fleet.class_histogram`), and so do the IT
  power, delay and served-load totals of its evaluation.  Both are
  memoized per histogram, summed over class rows rather than groups; a
  *new* vector whose histogram was already solved -- a GSD flip between
  two groups of one profile, say -- reuses them and only adds its own
  switching term, the one part that depends on which groups toggled.
  Class sums differ from the per-group sums of
  :meth:`~repro.solvers.problem.SlotProblem.evaluate` only in rounding;
  :meth:`EvaluationCache.solution_for` re-evaluates the chosen action per
  group.
- **O(1) delta feasibility screen**: the on-set's capped capacity, static
  IT power, and on-group count are maintained incrementally as callers
  report which group they toggled (:meth:`EvaluationCache.note_changed`).
  Candidates that provably cannot serve the workload -- or whose static
  draw alone already breaks the peak-power cap -- are rejected without
  touching the inner solve.  The screen margin (``_SCREEN_RTOL``) exceeds
  the worst-case float drift of the incremental sums, so a screened-out
  candidate is *provably* one the full solve would also reject: verdicts
  never change, only their cost.
- **Warm starts**: the most recent inner solve is handed to
  :func:`distribute_load` as a bracket hint for the next candidate.
  Warm-started solves match cold ones to <= 1e-9 relative objective error
  (see :mod:`~repro.solvers.load_distribution`).  Whether an engine warm
  starts is fixed per engine: GSD always does, coordinate descent and
  brute force never do (the cache's default).

The cache is *per solve*: engines construct one :class:`EvaluationCache`
per ``solve(problem)`` call, so nothing leaks across slots or problems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.fleet import FleetAction
from .load_distribution import LoadDistribution, distribute_load
from .problem import InfeasibleError, SlotEvaluation, SlotProblem

__all__ = ["EvaluationCache", "FastPathStats"]

#: Conservative relative margin of the delta screen.  Incremental float
#: drift of the running sums is bounded by ~iterations * eps (~1e-13 for
#: any realistic chain between refreshes); the margin is six orders of
#: magnitude above that, and borderline candidates inside the margin fall
#: through to the exact check in ``distribute_load``.
_SCREEN_RTOL = 1e-9

#: Rebuild the incremental sums from scratch this often, bounding drift.
_REFRESH_EVERY = 256


@dataclass(frozen=True)
class _ClassSolve:
    """One class histogram's inner solve and the switching-free totals of
    its evaluation (see :meth:`SlotProblem.evaluate_totals`)."""

    dist: LoadDistribution
    it_power: float
    delay_sum: float
    served: float

    @classmethod
    def of(
        cls,
        problem: SlotProblem,
        dist: LoadDistribution,
        classes: np.ndarray,
        counts: np.ndarray,
    ) -> "_ClassSolve":
        fleet = problem.fleet
        # A zero-workload solve carries no class loads: every on server idles.
        load = dist.class_load if dist.class_load is not None else np.zeros(counts.size)
        per_server = fleet.class_static_power[classes] + fleet.class_dyn_coeff[classes] * load
        delay = problem.delay_model.cost(load, fleet.class_speed[classes])
        return cls(
            dist,
            float(np.dot(counts, per_server)),
            float(np.dot(counts, delay)),
            float(np.dot(counts, load)),
        )


@dataclass
class FastPathStats:
    """Work counters of one :class:`EvaluationCache` (one engine solve).

    ``evaluations`` is the number of candidate configurations the engine
    asked about; without the fast path, every one of them would have been a
    cold inner solve.
    """

    cold_solves: int = 0
    warm_solves: int = 0
    cache_hits: int = 0
    histogram_hits: int = 0
    screened_infeasible: int = 0
    infeasible: int = 0
    inner_iters: int = 0

    @property
    def evaluations(self) -> int:
        """Total candidate queries answered."""
        return (
            self.cold_solves
            + self.warm_solves
            + self.cache_hits
            + self.histogram_hits
            + self.screened_infeasible
            + self.infeasible
        )

    @property
    def inner_solves(self) -> int:
        """Inner solves actually executed to completion (cold + warm).

        Queries answered without running the bisections -- cache and
        histogram hits, screened candidates, and on-set-capacity
        ``InfeasibleError`` short-circuits inside :func:`distribute_load`
        -- are excluded.
        """
        return self.cold_solves + self.warm_solves

    def as_dict(self) -> dict[str, int]:
        """Flat counter dict for telemetry events and ``info`` payloads."""
        return {
            "evaluations": self.evaluations,
            "inner_solves": self.inner_solves,
            "cold_solves": self.cold_solves,
            "warm_starts": self.warm_solves,
            "cache_hits": self.cache_hits,
            "histogram_hits": self.histogram_hits,
            "screened_infeasible": self.screened_infeasible,
            "infeasible": self.infeasible,
            "inner_iters": self.inner_iters,
        }


class EvaluationCache:
    """Per-solve fast path shared by the iterative P3 engines.

    Parameters
    ----------
    problem:
        The slot problem every queried configuration is evaluated against.
    warm_start:
        When True, each inner solve seeds the next one's bisection brackets
        (<= 1e-9 relative objective contract).  Default False: cold solves
        only.

    Usage: the engine mutates its level vector in place, calls
    :meth:`note_changed` for every entry it writes, and asks
    :meth:`objective_of` for the P3 objective (``inf`` for infeasible or
    cap-violating configurations).
    :meth:`solution_for` turns any previously scored vector back into a
    full ``(FleetAction, SlotEvaluation)`` pair without re-solving.
    """

    def __init__(self, problem: SlotProblem, *, warm_start: bool = False):
        self.problem = problem
        self.warm_start = warm_start
        self.stats = FastPathStats()
        self._objectives: dict[bytes, float] = {}
        # Inner solves by class histogram (``None`` = the on-set cannot
        # carry the load), and the histogram of every vector objective_of
        # scored.
        self._solves: dict[bytes, _ClassSolve | None] = {}
        self._histogram_of: dict[bytes, bytes] = {}
        self._hint: LoadDistribution | None = None
        # Delta-screen state: running on-set aggregates vs a private copy
        # of the last-synced level vector.
        fleet = problem.fleet
        self._fleet = fleet
        self._screen_levels: np.ndarray | None = None
        self._dirty: set[int] = set()
        self._cap_sum = 0.0  # sum_g n_g x_g over the on-set (req/s)
        self._static_sum = 0.0  # sum_g n_g static_g over the on-set (MW, IT)
        self._on_count = 0
        self._updates = 0

    # ------------------------------------------------------------------
    # Delta screen
    # ------------------------------------------------------------------
    def note_changed(self, group: int) -> None:
        """Record that the caller wrote ``levels[group]`` since the last
        :meth:`objective_of` call (proposals *and* reverts)."""
        self._dirty.add(int(group))

    def note_all(self) -> None:
        """Invalidate the delta-screen state (the caller replaced or bulk
        rewrote its level vector, e.g. a restart); the next query rebuilds
        the running sums from scratch."""
        self._screen_levels = None
        self._dirty.clear()

    def _rebuild_screen(self, levels: np.ndarray) -> None:
        fleet = self._fleet
        on = levels >= 0
        idx = np.nonzero(on)[0]
        x = fleet.speed_table[idx, levels[idx]]
        self._cap_sum = float(np.sum(fleet.counts[idx] * x))
        self._static_sum = float(np.sum(fleet.counts[idx] * fleet.static_power[idx]))
        self._on_count = int(idx.size)
        self._screen_levels = levels.astype(np.int64, copy=True)
        self._dirty.clear()
        self._updates = 0

    def _sync_screen(self, levels: np.ndarray) -> None:
        if self._screen_levels is None or self._updates >= _REFRESH_EVERY:
            self._rebuild_screen(levels)
            return
        if not self._dirty:
            return
        fleet = self._fleet
        for g in self._dirty:
            old = int(self._screen_levels[g])
            new = int(levels[g])
            if old == new:
                continue
            n = fleet.counts[g]
            if old >= 0:
                self._cap_sum -= n * fleet.speed_table[g, old]
                self._static_sum -= n * fleet.static_power[g]
                self._on_count -= 1
            if new >= 0:
                self._cap_sum += n * fleet.speed_table[g, new]
                self._static_sum += n * fleet.static_power[g]
                self._on_count += 1
            self._screen_levels[g] = new
            self._updates += 1
        self._dirty.clear()

    def _screened_infeasible(self) -> bool:
        """Conservative O(1) verdict: True only when the exact path would
        certainly reject this configuration."""
        p = self.problem
        lam = p.arrival_rate
        if lam <= 0.0:
            return False
        if self._on_count == 0:
            return True
        if lam > p.gamma * self._cap_sum * (1.0 + _SCREEN_RTOL):
            return True
        if p.peak_power_cap is not None:
            # Static draw alone is a lower bound on facility power.
            if p.pue * self._static_sum > p.peak_power_cap * (1.0 + _SCREEN_RTOL):
                return True
        return False

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def objective_of(self, levels: np.ndarray) -> float:
        """P3 objective of ``levels`` with exact inner solve; ``+inf`` when
        the on-set cannot serve the workload or the solved action violates
        the operational caps (Algorithm 2 line 2)."""
        key = levels.tobytes()
        cached = self._objectives.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached

        self._sync_screen(levels)
        if self._screened_infeasible():
            self.stats.screened_infeasible += 1
            self._objectives[key] = np.inf
            return np.inf

        _, classes, counts = self._fleet.class_histogram(levels)
        hkey = classes.tobytes() + counts.tobytes()
        if hkey in self._solves:
            self.stats.histogram_hits += 1
            solve = self._solves[hkey]
            if solve is None:
                self._objectives[key] = np.inf
                return np.inf
        else:
            try:
                dist = distribute_load(
                    self.problem,
                    levels,
                    hint=self._hint if self.warm_start else None,
                )
            except InfeasibleError:
                self.stats.infeasible += 1
                self._solves[hkey] = None
                self._objectives[key] = np.inf
                return np.inf
            if dist.warm_started:
                self.stats.warm_solves += 1
            else:
                self.stats.cold_solves += 1
            self.stats.inner_iters += dist.inner_iters
            solve = self._solves[hkey] = _ClassSolve.of(
                self.problem, dist, classes, counts
            )
        if self.warm_start:
            self._hint = solve.dist

        p = self.problem
        evaluation = p.evaluate_totals(
            solve.it_power, solve.delay_sum, solve.served, p.switching_energy(levels)
        )
        obj = np.inf if p.violates_caps(evaluation) else float(evaluation.objective)
        self._objectives[key] = obj
        self._histogram_of[key] = hkey
        return obj

    def distribution_of(self, levels: np.ndarray) -> LoadDistribution | None:
        """The inner solve behind a vector :meth:`objective_of` scored, or
        ``None`` when it had none (screened out, or the on-set cannot carry
        the load)."""
        hkey = self._histogram_of.get(levels.tobytes())
        return None if hkey is None else self._solves[hkey].dist

    def solution_for(
        self, levels: np.ndarray
    ) -> tuple[FleetAction, SlotEvaluation]:
        """Exact ``(action, evaluation)`` for a level vector, reusing the
        cached inner solve when :meth:`objective_of` scored it before."""
        hkey = self._histogram_of.get(levels.tobytes())
        if hkey is None:
            loads = distribute_load(self.problem, levels).per_server_load
        else:
            ids = self._fleet.class_histogram(levels)[0]
            loads = self._solves[hkey].dist.expand(self._fleet, ids)
        action = FleetAction(levels=levels, per_server_load=loads)
        return action, self.problem.evaluate(action)
