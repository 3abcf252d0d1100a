"""Shared solver fast path: memo cache, class-space solves, delta screen.

Every candidate configuration a P3 engine touches -- a GSD proposal
(Algorithm 2 line 2), a coordinate-descent best response -- pays for the
same three things: a feasibility check, an exact
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
- **Class space end to end**: the inner solve depends on a level vector
  only through its (profile, level) class histogram
  (:meth:`~repro.cluster.fleet.Fleet.class_counts`), and so do the IT
  power, delay and served-load totals of its evaluation.  The cache keeps
  that histogram up to date as callers report which group they toggled
  (:meth:`EvaluationCache.note_changed`): each flip moves the group's
  server count from its old class to its new one, exact because server
  counts are integers.  The inner solve takes the histogram and the
  per-problem :class:`~repro.solvers.load_distribution.ClassTable`
  directly and returns a plain
  :class:`~repro.solvers.load_distribution.ClassSolve` record: the class
  loads, dual and regime, and the totals summed over the class rows in
  the same pass.  The cache keeps one record per histogram and scores it
  with the scalar :meth:`~repro.solvers.problem.SlotProblem.cost_terms`
  and :meth:`~repro.solvers.problem.SlotProblem.exceeds_caps`, so no
  per-group pass runs and no solution or evaluation object is built on
  the hot path.  A *new* vector whose histogram was already solved -- a
  GSD flip between two groups of one profile, say -- reuses the record
  and only adds its own switching term, the one part that depends on
  which groups toggled.  :meth:`EvaluationCache.solution_for` hands the
  chosen vector's record on as the action's
  :class:`~repro.cluster.fleet.ClassRows`, billed from the same totals:
  the evaluation is :meth:`~repro.solvers.problem.SlotProblem.evaluate`
  of the action and its objective the scored one, bit for bit;
  :meth:`EvaluationCache.distribution_of` returns a scored vector's
  record.
- **Delta feasibility screen**: from the same histogram, the on-set's
  capacity and static IT power cost one sum over its few classes.
  Candidates that provably cannot serve the workload -- or whose static
  draw alone already breaks the peak-power cap -- are rejected without
  touching the inner solve.  The screen margin (``_SCREEN_RTOL``) exceeds
  the rounding gap between those sums and the exact check's, so a
  screened-out candidate is *provably* one the full solve would also
  reject: verdicts never change, only their cost.

Every inner solve is the cold water-fill of
:mod:`~repro.solvers.load_distribution`, whatever was scored before it.

The cache is *per solve*: engines construct one :class:`EvaluationCache`
per ``solve(problem)`` call, so nothing leaks across slots or problems.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..cluster.fleet import FleetAction
from .load_distribution import ClassSolve, ClassTable, distribute_load
from .problem import InfeasibleError, SlotEvaluation, SlotProblem

__all__ = ["EvaluationCache", "FastPathStats"]

#: Conservative relative margin of the delta screen.  Its class sums
#: differ from the exact check's in ``distribute_load`` by a few ulps; the
#: margin is six orders of magnitude above that, and borderline candidates
#: inside it fall through to the exact check.
_SCREEN_RTOL = 1e-9


@dataclass
class FastPathStats:
    """Work counters of one :class:`EvaluationCache` (one engine solve).

    ``evaluations`` is the number of candidate configurations the engine
    asked about; without the fast path, every one of them would have been
    an inner solve.  ``inner_solves`` counts the inner solves actually run
    to completion: queries answered without the water-fill -- cache and
    histogram hits, screened candidates, and on-set-capacity
    ``InfeasibleError`` short-circuits inside :func:`distribute_load` --
    are excluded.
    """

    inner_solves: int = 0
    cache_hits: int = 0
    histogram_hits: int = 0
    screened_infeasible: int = 0
    infeasible: int = 0
    inner_iters: int = 0

    @property
    def evaluations(self) -> int:
        """Total candidate queries answered."""
        return (
            self.inner_solves
            + self.cache_hits
            + self.histogram_hits
            + self.screened_infeasible
            + self.infeasible
        )

    def as_dict(self) -> dict[str, int]:
        """Flat counter dict for telemetry events and ``info`` payloads."""
        return {
            "evaluations": self.evaluations,
            "inner_solves": self.inner_solves,
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

    Usage: the engine mutates its level vector in place, calls
    :meth:`note_changed` for every entry it writes, and asks
    :meth:`objective_of` for the P3 objective (``inf`` for infeasible or
    cap-violating configurations).
    :meth:`solution_for` turns any previously scored vector back into a
    full ``(FleetAction, SlotEvaluation)`` pair without re-solving.
    """

    def __init__(self, problem: SlotProblem):
        self.problem = problem
        self.stats = FastPathStats()
        self._objectives: dict[bytes, float] = {}
        # Inner solves by class histogram (``None`` = the on-set cannot
        # carry the load), and the histogram of every vector objective_of
        # scored.
        self._solves: dict[tuple[float, ...], ClassSolve | None] = {}
        self._histogram_of: dict[bytes, tuple[float, ...]] = {}
        self._table = ClassTable(problem)
        # A failed group's forced power-off is billed but decided by no
        # candidate: scores count the healthy groups' transitions only, as
        # the exact engine's do.
        self._scoring = problem
        if problem.failed is not None and problem.prev_on_counts is not None:
            prev = problem.prev_on_counts.copy()
            prev[list(problem.failed)] = 0.0
            self._scoring = replace(problem, prev_on_counts=prev)
        # Delta-screen state: the on-set's class histogram (servers on per
        # class id) vs a private copy of the last-synced level vector.
        # Group g at level l is class ``_class_flat[_class_row[g] + l]``.
        fleet = problem.fleet
        self._fleet = fleet
        self._class_flat, self._class_row = fleet.class_id_lists
        self._group_count = fleet.group_lists[0]
        self._hist: list[float] = []
        self._screen_levels: list[int] | None = None
        self._dirty: set[int] = set()

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
        the class histogram from scratch."""
        self._screen_levels = None
        self._dirty.clear()

    def _sync_screen(self, levels: np.ndarray) -> None:
        if self._screen_levels is None:
            self._hist = self._fleet.class_counts(levels)[1].tolist()
            self._screen_levels = levels.tolist()
            self._dirty.clear()
            return
        hist, flat, row = self._hist, self._class_flat, self._class_row
        synced = self._screen_levels
        for g in self._dirty:
            old = synced[g]
            new = int(levels[g])
            if old == new:
                continue
            # Server counts are integers: these updates are exact, so the
            # histogram equals a from-scratch one bit for bit.
            count = self._group_count[g]
            if old >= 0:
                hist[flat[row[g] + old]] -= count
            if new >= 0:
                hist[flat[row[g] + new]] += count
            synced[g] = new
        self._dirty.clear()

    def _screened_infeasible(self) -> bool:
        """Conservative verdict over the class histogram: True only when
        the exact path would certainly reject this configuration."""
        p = self.problem
        lam = p.arrival_rate
        if lam <= 0.0:
            return False
        table = self._table
        speed = static = 0.0  # sum_k n_k x_k (req/s), sum_k n_k static_k (MW, IT)
        for k, n in enumerate(self._hist):
            if n > 0.0:
                speed += n * table.speed[k]
                static += n * table.static[k]
        if lam > p.gamma * speed * (1.0 + _SCREEN_RTOL):
            return True  # an all-off on-set included: it serves nothing
        # Static draw alone is a lower bound on facility power.
        cap = p.peak_power_cap
        return cap is not None and p.pue * static > cap * (1.0 + _SCREEN_RTOL)

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

        stats = self.stats
        hkey = tuple(self._hist)
        if hkey in self._solves:
            stats.histogram_hits += 1
            solve = self._solves[hkey]
            if solve is None:
                self._objectives[key] = np.inf
                return np.inf
        else:
            try:
                solve = distribute_load(self.problem, histogram=self._hist, table=self._table)
            except InfeasibleError:
                stats.infeasible += 1
                self._solves[hkey] = None
                self._objectives[key] = np.inf
                return np.inf
            stats.inner_solves += 1
            stats.inner_iters += solve.inner_iters
            self._solves[hkey] = solve

        p = self.problem
        facility, _, _, _, delay_cost, _, objective = p.cost_terms(
            solve.it_power, solve.delay_sum, solve.served,
            self._scoring.switching_energy(levels),
        )
        obj = np.inf if p.exceeds_caps(facility, delay_cost) else float(objective)
        self._objectives[key] = obj
        self._histogram_of[key] = hkey
        return obj

    def distribution_of(self, levels: np.ndarray) -> ClassSolve | None:
        """The inner solve behind a vector :meth:`objective_of` scored, or
        ``None`` when it had none (screened out, or the on-set cannot carry
        the load)."""
        hkey = self._histogram_of.get(levels.tobytes())
        return None if hkey is None else self._solves[hkey]

    def solution_for(self, levels: np.ndarray) -> tuple[FleetAction, SlotEvaluation]:
        """Exact ``(action, evaluation)`` for a level vector, from the
        cached inner solve when :meth:`objective_of` scored it before.

        The action's rows are the solve's class rows and the evaluation is
        billed from its totals, as :meth:`objective_of` scores it, so the
        evaluation's objective is the scored one bit for bit -- unless a
        failed group that was on last slot is charged its power-off.
        """
        hkey = self._histogram_of.get(levels.tobytes())
        if hkey is None:
            hkey = tuple(self._fleet.class_counts(levels)[1].tolist())
            solve = distribute_load(self.problem, histogram=hkey, table=self._table)
        else:
            solve = self._solves[hkey]
        p = self.problem
        action = FleetAction(levels, solve.rows(hkey))
        evaluation = p.evaluate_totals(
            solve.it_power, solve.delay_sum, solve.served, p.switching_energy(levels)
        )
        return action, evaluation
