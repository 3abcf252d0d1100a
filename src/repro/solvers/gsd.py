"""GSD: Gibbs-Sampling-based Distributed optimization (paper Algorithm 2).

GSD solves the mixed-integer slot problem P3 by a Markov-chain search over
speed configurations.  Each iteration, one randomly selected server (group)
explores a random speed from its set ``S_i ∪ {0}``, or, when the slot has
load and prices delay
(:attr:`~repro.solvers.problem.SlotProblem.drops_dominated_levels`), from
off plus the levels of ``S_i`` that no faster, cheaper-per-request level of
its own profile dominates (THEORY.md section 3); the optimal load
distribution for the explored configuration is computed exactly (the convex
subproblem of Eq. (18), solved by dual decomposition in
:mod:`repro.solvers.load_distribution`); the explored configuration is then
kept with probability

    u = exp(delta / g~^e) / ( exp(delta / g~^e) + exp(delta / g~^*) ),

a two-point Gibbs sample between the current and explored objectives.  The
stationary distribution is ``Omega(x) ∝ exp(delta / g~(x))`` (Theorem 1), so
as the temperature ``delta`` grows the chain concentrates on the global
minimizer; Theorem 1's proof (Appendix A) shows convergence with probability
1 as ``delta -> infinity``.  Proposals are uniform over a fixed set per
group, hence symmetric, so the theorem holds on the pruned space too, and
that space still holds a global minimizer of P3.  On the paper's Opteron
2380 the options are off and the top speed; on a profile with no dominated
level they are every level.

A solve draws all of its randomness at once, ``rng.random((iterations,
3))`` as plain floats, and so advances the generator by exactly ``3 *
iterations`` doubles whatever the chain does (a checkpoint taken between
solves resumes the same chains).  Step ``t``'s row ``(u0, u1, u2)`` picks
the group ``groups[int(u0 * H)]`` of the ``H`` healthy ones and the level
``options[int(u1 * len(options))]``, uniform up to the ``2**-53`` grain of
the doubles, and keeps the explored configuration when ``u2`` falls below
the acceptance probability above.  Each candidate is scored by the
:class:`~repro.solvers.fastpath.EvaluationCache`, which holds the chain's
level list and its (class histogram, transition count) key, so a chain
step is a few list operations and a dict lookup.

Per the paper's practical advice, the solver supports (a) *group-batched*
updates -- configurations are per-group, which is how the paper reaches 200
decision variables for 216 K servers -- and (b) an *adaptive* temperature
that increases over iterations, "initially ... explore all possible
decisions, whereas delta is increased over the iterations such that the
servers progressively concentrate on better solutions".

The solver returns the best configuration visited (the chain state itself is
in ``info``) and can record the full iteration trace used to reproduce
Fig. 4.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import convex
from .base import SlotSolution, SlotSolver
from .deadline import DeadlineExceededError, SolveDeadline
from .enumeration import HomogeneousEnumerationSolver
from .fastpath import EvaluationCache
from .load_distribution import solve_fixed_levels
from .problem import InfeasibleError, SlotProblem

__all__ = ["GSDSolver", "GSDTrace", "geometric_temperature"]

#: Floor keeping ``delta / g`` finite when a configuration has ~zero cost.
_OBJECTIVE_FLOOR = 1e-12


def _acceptance_probability(delta: float, explored: float, current: float) -> float:
    """Line 4's two-point Gibbs probability of keeping the explored
    configuration, computed stably as a sigmoid of
    ``delta * (1/g~^e - 1/g~^*)``.  Plain floats: at one call per chain
    step, numpy's scalar dispatch would cost more than the arithmetic."""
    ge = max(explored, _OBJECTIVE_FLOOR)
    gs = max(current, _OBJECTIVE_FLOOR)
    exponent = min(max(delta * (1.0 / ge - 1.0 / gs), -700.0), 700.0)
    return 1.0 / (1.0 + math.exp(-exponent))


def _exact_gap(problem: SlotProblem, objective: float, sp) -> dict:
    """The shadow solve: ``objective``'s signed gap to the exact engine on
    the same homogeneous-fleet problem, negative when GSD beat the
    shared-speed family.  Its wall time is the span's ``gsd.shadow``."""
    t0 = time.perf_counter()
    exact = HomogeneousEnumerationSolver().solve(problem).objective
    if sp:
        sp.add("gsd.shadow", time.perf_counter() - t0)
    return {
        "gap_rel": float((objective - exact) / max(abs(exact), 1e-12)),
        "exact_objective": float(exact),
    }


def geometric_temperature(
    delta0: float, growth: float = 1.01
) -> Callable[[int], float]:
    """Adaptive schedule ``delta_t = delta0 * growth**t`` (paper section 4.2:
    start small to explore, increase to concentrate)."""
    if delta0 <= 0 or growth < 1.0:
        raise ValueError("need delta0 > 0 and growth >= 1")
    return lambda t: delta0 * growth**t


@dataclass(frozen=True)
class GSDTrace:
    """Per-iteration history of a GSD run (Fig. 4 raw material).

    Attributes
    ----------
    chain_objective:
        Objective ``g~`` of the chain's current configuration after each
        iteration.
    best_objective:
        Best objective visited up to each iteration.
    accepted:
        Whether the explored configuration was kept.
    temperature:
        The ``delta`` used at each iteration.
    """

    chain_objective: np.ndarray
    best_objective: np.ndarray
    accepted: np.ndarray
    temperature: np.ndarray

    def __len__(self) -> int:
        return int(self.chain_objective.size)

    @property
    def acceptance_rate(self) -> float:
        """Fraction of iterations whose exploration was accepted."""
        return float(self.accepted.mean()) if len(self) else 0.0


class GSDSolver(SlotSolver):
    """Algorithm 2 with group-batched updates.

    Each iteration proposes one healthy group a level drawn uniformly
    from :attr:`~repro.cluster.fleet.Fleet.level_options` (off plus its
    profile's undominated levels, or every level).  Candidates are scored
    through a per-solve
    :class:`~repro.solvers.fastpath.EvaluationCache`: a revisited
    (class histogram, transition count) key costs a dict hit, clearly
    infeasible proposals are screened in O(1), and a new on-set costs one
    cold water-fill.

    With telemetry bound, each solve on a homogeneous fleet is graded after
    the chain: :class:`~repro.solvers.enumeration.HomogeneousEnumerationSolver`,
    exact on such fleets, solves the same problem, and the signed relative
    gap ``(gsd - exact) / max(|exact|, 1e-12)`` lands in ``info["gap_rel"]``
    and in the ``gsd.solve`` event (with ``exact_objective``).  The shadow
    draws no randomness and changes no decision; its time is the span's
    ``gsd.shadow`` bucket, outside ``solve_time_s``.

    Parameters
    ----------
    iterations:
        Markov-chain length (the paper runs 500 iterations for 200 groups
        in under a second).
    delta:
        Temperature: a positive float for the paper's fixed-``delta``
        variant, or a callable ``iteration -> delta`` for adaptive schedules
        (see :func:`geometric_temperature`).
    rng:
        Randomness source; defaults to a fixed seed for reproducibility.
    initial_levels:
        Optional starting configuration (per-group levels, ``-1`` = off;
        failed groups are forced off); defaults to every healthy group at
        top speed, which is feasible whenever the slot is.
    record_history:
        When True, attach a :class:`GSDTrace` to ``info["trace"]``.
    deadline_ms:
        Wall-clock budget per solve.  When it expires mid-chain the solver
        stops and returns the best feasible incumbent (anytime behaviour,
        flagged in ``info["deadline"]`` and ``deadline.expired`` telemetry);
        if no feasible configuration was seen yet it raises
        :class:`~repro.solvers.deadline.DeadlineExceededError`.  ``None``
        (the default) never expires.
    """

    def __init__(
        self,
        *,
        iterations: int = 500,
        delta: float | Callable[[int], float] = 1e6,
        rng: np.random.Generator | None = None,
        initial_levels: Sequence[int] | np.ndarray | None = None,
        record_history: bool = False,
        deadline_ms: float | None = None,
    ):
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not callable(delta) and delta <= 0:
            raise ValueError("temperature delta must be positive")
        self.iterations = iterations
        self.delta = delta
        self.rng = rng if rng is not None else np.random.default_rng(1)
        self.initial_levels = (
            None
            if initial_levels is None
            else np.asarray(initial_levels, dtype=np.int64).copy()
        )
        self.record_history = record_history
        self.deadline_ms = deadline_ms

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Everything a checkpoint needs to resume this chain exactly."""
        from ..state.serialize import encode_rng

        return {"rng": encode_rng(self.rng)}

    def load_state_dict(self, state: dict) -> None:
        """Restore the RNG position from a checkpoint; other keys (older
        records also carry a ``solve_count``) are ignored."""
        from ..state.serialize import decode_rng

        self.rng = decode_rng(state["rng"])

    # ------------------------------------------------------------------
    @staticmethod
    def auto_delta(problem: SlotProblem, *, greediness: float = 10.0) -> float:
        """A temperature matched to the problem's objective scale.

        The acceptance exponent is ``delta * (1/g~^e - 1/g~^*)``; for the
        chain to discriminate between configurations differing by a ~10%
        objective gap, ``delta`` must be on the order of the objective
        itself.  This helper evaluates the all-top-speed configuration
        (failed groups off) and returns ``greediness`` times its objective:
        ``greediness ~ 1`` is exploratory, ``>> 1`` nearly greedy (the
        paper's Fig. 4 sweeps this knob as its different-``delta`` curves).
        """
        if greediness <= 0:
            raise ValueError("greediness must be positive")
        levels = convex.initial_levels(problem)
        objective = solve_fixed_levels(problem, levels)[1].objective
        return greediness * max(objective, _OBJECTIVE_FLOOR)

    def _scorer(
        self,
        problem: SlotProblem,
        cache: EvaluationCache,
        score: Callable[[EvaluationCache], float],
    ) -> Callable[[EvaluationCache], float]:
        """The candidate scorer of one solve, chosen once before the chain
        runs: it scores the cache's current configuration.  GSD scores
        through the fast path as is; subclasses may wrap it
        (:class:`~repro.solvers.messaging.DistributedGSD` charges each
        candidate its pricing round trip)."""
        return score

    def _temperature(self, iteration: int) -> float:
        return self.delta(iteration) if callable(self.delta) else float(self.delta)

    def solve(self, problem: SlotProblem) -> SlotSolution:
        # The span wraps the whole solve; ``sp`` is the no-op NULL_SPAN on
        # uninstrumented runs, so the chain arithmetic below is untouched.
        sp = self.telemetry.span("gsd.solve")
        with sp:
            return self._solve(problem, sp)

    def _solve(self, problem: SlotProblem, sp) -> SlotSolution:
        t_setup = time.perf_counter() if sp else 0.0
        deadline = SolveDeadline(self.deadline_ms)
        problem.check_feasible()
        fleet = problem.fleet
        iterations = self.iterations
        # The chain explores the healthy groups only: failed ones stay off.
        groups = problem.healthy.tolist()
        H = len(groups)
        # Proposals: off plus each group's own levels, or only the
        # undominated ones when those still hold a minimiser.
        options = fleet.level_options[problem.drops_dominated_levels]
        cache = EvaluationCache(problem)
        # All of the solve's randomness in one draw, as plain floats: per
        # step, a group, a level and an acceptance variate.
        draws = self.rng.random((iterations, 3)).tolist()
        if sp:
            # The feasibility check, the scorer's tables and the draw,
            # before any candidate is scored.
            sp.add("gsd.setup", time.perf_counter() - t_setup)

        scored_s = 0.0
        score = cache.scorer
        if sp:
            # Attribution build of the scorer: classify each candidate
            # evaluation by what the fast path actually did (stats deltas)
            # and accumulate its wall time into an aggregated child bucket
            # -- one summarized span event per bucket at solve exit, never
            # one per iteration.  ``scored_s`` sums those bucket times so
            # the chain's own step work can be attributed as the remainder.
            fp_stats = cache.stats
            lookup = score

            def score(c: EvaluationCache) -> float:
                nonlocal scored_s
                t0 = time.perf_counter()
                hits0 = fp_stats.cache_hits
                screened0 = fp_stats.screened_infeasible
                value = lookup(c)
                if fp_stats.cache_hits > hits0:
                    bucket = "gsd.cache_lookup"
                elif fp_stats.screened_infeasible > screened0:
                    bucket = "gsd.feasibility_screen"
                else:
                    bucket = "gsd.inner_bisection"
                dt = time.perf_counter() - t0
                sp.add(bucket, dt)
                scored_s += dt
                return value

        cache.scorer = self._scorer(problem, cache, score)

        if self.initial_levels is not None:
            start = self.initial_levels.copy()
            if start.shape != (fleet.num_groups,):
                raise ValueError("initial_levels must have one entry per group")
            if problem.failed is not None:
                start[list(problem.failed)] = -1
        else:
            start = convex.initial_levels(problem)
        current = cache.reset(start)
        if not math.isfinite(current):
            current = cache.reset(convex.initial_levels(problem))
        chain = cache.levels
        best_levels, best = chain.copy(), current

        record = self.record_history
        if record:
            hist_chain = np.empty(iterations)
            hist_best = np.empty(iterations)
            hist_acc = np.zeros(iterations, dtype=bool)
            hist_temp = np.empty(iterations)
        accepted = 0
        n_solves = 0
        last_improve = 0

        tele = self.telemetry
        started = time.perf_counter() if tele.enabled else 0.0

        completed = 0
        scored_s = 0.0
        t_chain = time.perf_counter() if sp else 0.0
        flip, move = cache.flip, cache.move
        for it in range(iterations):
            if deadline.expired():
                break
            completed = it + 1
            u_group, u_level, u_accept = draws[it]

            # Line 7: a random group explores a random level of its options.
            g = groups[int(u_group * H)]
            opts = options[g]
            proposal = opts[int(u_level * len(opts))]
            old_level = chain[g]
            if proposal != old_level:
                explored = flip(g, proposal)
                n_solves += 1
                # Line 4: two-point Gibbs acceptance; line 2's guard lets
                # no infeasible exploration through.
                if math.isfinite(explored) and u_accept < _acceptance_probability(
                    self._temperature(it), explored, current
                ):
                    current = explored
                    accepted += 1
                    if record:
                        hist_acc[it] = True
                    if explored < best:
                        best = explored
                        best_levels = chain.copy()
                        last_improve = it + 1
                else:
                    move(g, old_level)
            if record:
                hist_chain[it], hist_best[it] = current, best
                hist_temp[it] = self._temperature(it)
        if sp:
            # The chain's own steps: proposal picks, acceptance, history.
            sp.add("gsd.chain", time.perf_counter() - t_chain - scored_s)

        truncated = completed < iterations
        if truncated:
            if record:
                # Anytime cut: keep only the iterations that actually ran.
                hist_chain = hist_chain[:completed]
                hist_best = hist_best[:completed]
                hist_acc = hist_acc[:completed]
                hist_temp = hist_temp[:completed]
            if tele.enabled:
                tele.emit(
                    "deadline.expired",
                    solver=self.name(),
                    budget_ms=float(self.deadline_ms),
                    elapsed_ms=deadline.elapsed_ms(),
                    completed=completed,
                    planned=iterations,
                    best_feasible=bool(np.isfinite(best)),
                )
                tele.metrics.counter("deadline.expirations").inc()
            if not np.isfinite(best):
                raise DeadlineExceededError(
                    f"GSD solve deadline ({self.deadline_ms} ms) expired after "
                    f"{completed}/{iterations} iterations with no feasible "
                    "incumbent"
                )

        stats = cache.stats
        elapsed = time.perf_counter() - started if tele.enabled else 0.0
        feasible = bool(np.isfinite(best))
        if feasible:
            t_final = time.perf_counter() if sp else 0.0
            action, final_evaluation = cache.solution_for(
                np.fromiter(best_levels, np.int64, len(best_levels))
            )
            if sp:
                sp.add("gsd.finalize", time.perf_counter() - t_final)
        graded: dict = {}
        if tele.enabled:
            if feasible and fleet.is_homogeneous:
                graded = _exact_gap(problem, final_evaluation.objective, sp)
            acceptance = accepted / completed if completed else 0.0
            metrics = tele.metrics
            metrics.counter("gsd.solves").inc()
            metrics.counter("gsd.inner_solves").inc(stats.inner_solves)
            metrics.counter("gsd.evaluations").inc(n_solves)
            metrics.counter("gsd.cache_hits").inc(stats.cache_hits)
            metrics.counter("gsd.screened_infeasible").inc(stats.screened_infeasible)
            metrics.histogram("gsd.solve_time_s").observe(elapsed)
            metrics.histogram("gsd.iterations_to_convergence").observe(last_improve)
            metrics.histogram("gsd.acceptance_rate").observe(acceptance)
            tele.emit(
                "gsd.solve",
                iterations=completed,
                inner_solves=stats.inner_solves,
                evaluations=n_solves,
                cache_hits=stats.cache_hits,
                screened_infeasible=stats.screened_infeasible,
                best_objective=float(best),
                acceptance_rate=acceptance,
                iterations_to_convergence=last_improve,
                solve_time_s=elapsed,
                **graded,
            )

        if not feasible:
            # The chain observed no configuration satisfying the operational
            # caps; returning the (cap-violating) chain state would silently
            # hand the controller an infeasible action.
            raise InfeasibleError(
                "GSD chain never reached a configuration satisfying the "
                "operational caps; increase iterations or relax the caps"
            )
        info: dict = {
            "iterations": completed,
            "chain_levels": np.fromiter(chain, np.int64, len(chain)),
            "inner_solves": stats.inner_solves,
            "evaluations": n_solves,
            "fastpath": stats.as_dict(),
            "final_objective": best,
        }
        if graded:
            info["gap_rel"] = graded["gap_rel"]
        if self.deadline_ms is not None:
            info["deadline"] = {
                "budget_ms": float(self.deadline_ms),
                "elapsed_ms": deadline.elapsed_ms(),
                "expired": truncated,
                "completed": completed,
                "planned": self.iterations,
            }
        if self.record_history:
            info["trace"] = GSDTrace(
                chain_objective=hist_chain,
                best_objective=hist_best,
                accepted=hist_acc,
                temperature=hist_temp,
            )
        return SlotSolution(action=action, evaluation=final_evaluation, info=info)
