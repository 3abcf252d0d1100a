"""Shared solver fast path: a chain state keyed by what the objective reads.

Every candidate configuration a P3 engine touches -- a GSD proposal
(Algorithm 2 line 2), a coordinate-descent best response -- pays for the
same three things: a feasibility check, an exact
convex inner solve (Eq. (18), :func:`~repro.solvers.load_distribution
.distribute_load`), and an evaluation of the resulting action.  Chains
revisit the same configurations constantly and consecutive candidates
differ in a single group, so most of that work is redundant.  This module
factors the redundancy out once, for all engines; it is the only way they
score a candidate:

- **The chain key**: :class:`EvaluationCache` holds the engine's level
  list and, beside it, the two things the P3 objective reads of it: the
  on-set's (profile, level) class histogram
  (:meth:`~repro.cluster.fleet.Fleet.class_counts`) and its count of
  charged server transitions (the switching energy is
  ``energy_per_toggle`` times it).  :meth:`EvaluationCache.flip` moves one
  group in a few list operations: its server count leaves its old class
  and joins its new one, and the count gains or loses the group's charge
  when it turns on or off.  Server counts are integers, so both are exact:
  after any flips the key equals :meth:`EvaluationCache.key_of` from
  scratch, bit for bit.
- **Per-solve memo** keyed by ``(histogram..., transitions)``: a hit
  returns the float computed the first time the key was seen, which a
  recompute would reproduce bit for bit; distinct vectors with one key
  share the entry.  Under it, one inner solve per histogram: the
  :class:`~repro.solvers.load_distribution.ClassSolve` record (class
  loads, dual, regime and the totals summed over the class rows), scored
  with the scalar :meth:`~repro.solvers.problem.SlotProblem.cost_terms`
  and :meth:`~repro.solvers.problem.SlotProblem.exceeds_caps`, so no
  per-group pass runs and no solution object is built on the hot path.  A
  key whose histogram was solved under another transition count reuses
  the record.  :meth:`EvaluationCache.solution_for` hands the chosen
  vector's record on as the action's
  :class:`~repro.cluster.fleet.ClassRows`, billed from the same totals:
  the evaluation is :meth:`~repro.solvers.problem.SlotProblem.evaluate` of
  the action and its objective the scored one, bit for bit.
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

import math
from dataclasses import dataclass
from typing import Callable

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
    """Per-solve chain state and memo shared by the iterative P3 engines.

    Parameters
    ----------
    problem:
        The slot problem every configuration is evaluated against.

    Usage: the engine loads a configuration with :meth:`reset`, proposes
    with :meth:`flip` and takes a rejected proposal back with :meth:`move`;
    :attr:`levels` is the current configuration.  :meth:`reset` and
    :meth:`flip` return the P3 objective of the state they leave (``inf``
    for infeasible or cap-violating configurations) through
    :attr:`scorer`, which an engine may wrap for one solve (span
    attribution, message bills).  :meth:`solution_for` turns any scored
    vector back into a full ``(FleetAction, SlotEvaluation)`` pair without
    re-solving.
    """

    def __init__(self, problem: SlotProblem):
        self.problem = problem
        self.stats = FastPathStats()
        # Objective per key, and inner solve per histogram (``None``: the
        # on-set cannot carry the load).
        self._memo: dict[tuple[float, ...], float] = {}
        self._solves: dict[tuple[float, ...], ClassSolve | None] = {}
        self._table = ClassTable(problem)
        fleet = problem.fleet
        self._fleet = fleet
        # Group g at level l is class ``_class_flat[_class_row[g] + l]``.
        self._class_flat, self._class_row = fleet.class_id_lists
        self._group_count = fleet.group_lists[0]
        self._per_toggle, self._off_count, self._turn_on_array = self._charges(problem)
        self._turn_on = self._turn_on_array.tolist()
        #: The current configuration, one level per group (``-1`` = off).
        self.levels: list[int] = []
        # Its key: the class histogram with the transition count appended.
        self._key: list[float] = []
        #: ``scorer(cache)``: what :meth:`reset` and :meth:`flip` score the
        #: new state with.  It takes the cache as an argument, so the cache
        #: holds no reference to itself and a solve's state is freed as
        #: soon as the solve returns.
        self.scorer: Callable[[EvaluationCache], float] = EvaluationCache.lookup

    @staticmethod
    def _charges(problem: SlotProblem) -> tuple[float, float, np.ndarray]:
        """``(energy per toggle, count with every group off, per group the
        count's rise when it turns on)``.  A failed group's forced
        power-off is billed but decided by no candidate, so scores count
        the healthy groups' transitions only, as the exact engine's do."""
        counts = problem.fleet.counts
        sw, prev = problem.switching, problem.prev_on_counts
        if sw is None or prev is None or not sw.enabled:
            return 0.0, 0.0, np.zeros(counts.size)
        prev = prev.copy()
        prev[list(problem.failed or ())] = 0.0
        turn_on = np.maximum(counts - prev, 0.0)  # servers switched on
        if not sw.charge_off:
            return sw.energy_per_toggle, 0.0, turn_on
        # Off, a group is charged its previous on-count; on, any drop.
        fall = np.maximum(prev - counts, 0.0)
        return sw.energy_per_toggle, float(prev.sum()), turn_on + fall - prev

    # ------------------------------------------------------------------
    # The chain state
    # ------------------------------------------------------------------
    def _key_list(self, levels: np.ndarray) -> list[float]:
        key = self._fleet.class_counts(levels)[1].tolist()
        count = self._off_count
        if self._per_toggle:
            count += float(self._turn_on_array[levels >= 0].sum())
        key.append(count)
        return key

    def key_of(self, levels) -> tuple[float, ...]:
        """The key of ``levels`` built from scratch: its class histogram
        (:meth:`~repro.cluster.fleet.Fleet.class_counts`) with its charged
        transition count appended."""
        return tuple(self._key_list(np.asarray(levels, dtype=np.int64)))

    def key(self) -> tuple[float, ...]:
        """The current configuration's key."""
        return tuple(self._key)

    def reset(self, levels) -> float:
        """Load ``levels`` as the current configuration and score it."""
        levels = np.asarray(levels, dtype=np.int64)
        self.levels = levels.tolist()
        self._key = self._key_list(levels)
        return self.scorer(self)

    def move(self, group: int, level: int) -> None:
        """Set ``levels[group] = level``, updating the key in place."""
        levels = self.levels
        old = levels[group]
        if old == level:
            return
        levels[group] = level
        # Server counts are integers: these updates are exact, so the key
        # equals a from-scratch one bit for bit.
        key, flat, at = self._key, self._class_flat, self._class_row[group]
        count = self._group_count[group]
        if old >= 0:
            key[flat[at + old]] -= count
        else:
            key[-1] += self._turn_on[group]
        if level >= 0:
            key[flat[at + level]] += count
        else:
            key[-1] -= self._turn_on[group]

    def flip(self, group: int, level: int) -> float:
        """:meth:`move` then score: the objective of the moved-to state."""
        self.move(group, level)
        return self.scorer(self)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _screened_infeasible(self, hist: tuple[float, ...]) -> bool:
        """Conservative verdict over the class histogram: True only when
        the exact path would certainly reject this configuration."""
        p = self.problem
        lam = p.arrival_rate
        if lam <= 0.0:
            return False
        table = self._table
        speed = static = 0.0  # sum_k n_k x_k (req/s), sum_k n_k static_k (MW, IT)
        for k, n in enumerate(hist):
            if n > 0.0:
                speed += n * table.speed[k]
                static += n * table.static[k]
        if lam > p.gamma * speed * (1.0 + _SCREEN_RTOL):
            return True  # an all-off on-set included: it serves nothing
        # Static draw alone is a lower bound on facility power.
        cap = p.peak_power_cap
        return cap is not None and p.pue * static > cap * (1.0 + _SCREEN_RTOL)

    def lookup(self) -> float:
        """P3 objective of the current configuration with exact inner
        solve, from the memo when its key was scored before; ``+inf`` when
        the on-set cannot serve the workload or the solved action violates
        the operational caps (Algorithm 2 line 2)."""
        key = tuple(self._key)
        value = self._memo.get(key)
        if value is not None:
            self.stats.cache_hits += 1
            return value
        value = self._memo[key] = self._objective(key)
        return value

    def _objective(self, key: tuple[float, ...]) -> float:
        stats = self.stats
        hist = key[:-1]
        if hist in self._solves:
            stats.histogram_hits += 1
            solve = self._solves[hist]
            if solve is None:
                return math.inf
        elif self._screened_infeasible(hist):
            stats.screened_infeasible += 1
            return math.inf
        else:
            try:
                solve = distribute_load(self.problem, histogram=hist, table=self._table)
            except InfeasibleError:
                stats.infeasible += 1
                self._solves[hist] = None
                return math.inf
            stats.inner_solves += 1
            stats.inner_iters += solve.inner_iters
            self._solves[hist] = solve
        p = self.problem
        facility, _, _, _, delay_cost, _, objective = p.cost_terms(
            solve.it_power, solve.delay_sum, solve.served, self._per_toggle * key[-1]
        )
        return math.inf if p.exceeds_caps(facility, delay_cost) else float(objective)

    def distribution_of(self, key: tuple[float, ...]) -> ClassSolve | None:
        """The inner solve behind a key :meth:`lookup` scored, or ``None``
        when it had none (screened out, or the on-set cannot carry the
        load)."""
        return self._solves.get(key[:-1])

    def solution_for(self, levels) -> tuple[FleetAction, SlotEvaluation]:
        """Exact ``(action, evaluation)`` for a level vector, from the
        cached inner solve when a vector of its histogram was scored.

        The action's rows are the solve's class rows and the evaluation is
        billed from its totals, as :meth:`lookup` scores it, so the
        evaluation's objective is the scored one bit for bit -- unless a
        failed group that was on last slot is charged its power-off.
        """
        levels = np.asarray(levels, dtype=np.int64)
        hist = tuple(self._fleet.class_counts(levels)[1].tolist())
        solve = self._solves.get(hist)
        if solve is None:
            solve = distribute_load(self.problem, histogram=hist, table=self._table)
        p = self.problem
        action = FleetAction(levels, solve.rows(hist))
        evaluation = p.evaluate_totals(
            solve.it_power, solve.delay_sum, solve.served, p.switching_energy(levels)
        )
        return action, evaluation
