"""GSD: Gibbs-Sampling-based Distributed optimization (paper Algorithm 2).

GSD solves the mixed-integer slot problem P3 by a Markov-chain search over
speed configurations.  Each iteration, one randomly selected server (group)
explores a random speed from its set ``S_i ∪ {0}``; the optimal load
distribution for the explored configuration is computed exactly (the convex
subproblem of Eq. (18), solved by dual decomposition in
:mod:`repro.solvers.load_distribution`); the explored configuration is then
kept with probability

    u = exp(delta / g~^e) / ( exp(delta / g~^e) + exp(delta / g~^*) ),

a two-point Gibbs sample between the current and explored objectives.  The
stationary distribution is ``Omega(x) ∝ exp(delta / g~(x))`` (Theorem 1), so
as the temperature ``delta`` grows the chain concentrates on the global
minimizer; Theorem 1's proof (Appendix A) shows convergence with probability
1 as ``delta -> infinity``.

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

from ..cluster.fleet import FleetAction
from .base import SlotSolution, SlotSolver
from .deadline import DeadlineExceededError, SolveDeadline
from .fastpath import EvaluationCache
from .load_distribution import distribute_load
from .problem import InfeasibleError, SlotProblem

__all__ = ["GSDSolver", "GSDTrace", "geometric_temperature"]

#: Floor keeping ``delta / g`` finite when a configuration has ~zero cost.
_OBJECTIVE_FLOOR = 1e-12

#: Each inner solve seeds its bisection brackets from the previous
#: candidate's solution (<= 1e-9 relative objective contract, see
#: :mod:`repro.solvers.fastpath`).  Tests and benchmarks patch this to
#: False in-process to build the cold reference chain.
_WARM_START = True

#: With telemetry bound, one ``gsd.iteration`` summary event is emitted per
#: this many chain iterations.
_LOG_WINDOW = 100


def _acceptance_probability(delta: float, explored: float, current: float) -> float:
    """Line 4's two-point Gibbs probability of keeping the explored
    configuration, computed stably as a sigmoid of
    ``delta * (1/g~^e - 1/g~^*)``.  Plain floats: at one call per chain
    step, numpy's scalar dispatch would cost more than the arithmetic."""
    ge = max(explored, _OBJECTIVE_FLOOR)
    gs = max(current, _OBJECTIVE_FLOOR)
    exponent = min(max(delta * (1.0 / ge - 1.0 / gs), -700.0), 700.0)
    return 1.0 / (1.0 + math.exp(-exponent))


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

    Candidates are scored through a per-solve
    :class:`~repro.solvers.fastpath.EvaluationCache`: revisited level
    vectors cost a dict hit, clearly infeasible proposals are screened in
    O(1), and each inner solve is warm-started from the previous one.
    With telemetry bound, a ``gsd.iteration`` summary event (chain and best
    objective, temperature, windowed acceptance rate) is emitted every 100
    iterations.

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
        Optional starting configuration (per-group levels, ``-1`` = off);
        defaults to all groups at top speed, which is feasible whenever the
        slot is.
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
        # Chain counter: stamps telemetry events with a per-solver
        # solve_index so the convergence diagnostics can group the
        # gsd.iteration stream by chain.  Only advanced when telemetry is
        # enabled, so uninstrumented solver state is untouched.
        self._solve_count = 0

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Everything a checkpoint needs to resume this chain exactly."""
        from ..state.serialize import encode_rng

        return {"rng": encode_rng(self.rng), "solve_count": self._solve_count}

    def load_state_dict(self, state: dict) -> None:
        """Restore RNG position and chain counter from a checkpoint."""
        from ..state.serialize import decode_rng

        self.rng = decode_rng(state["rng"])
        self._solve_count = int(state["solve_count"])

    # ------------------------------------------------------------------
    @staticmethod
    def auto_delta(problem: SlotProblem, *, greediness: float = 10.0) -> float:
        """A temperature matched to the problem's objective scale.

        The acceptance exponent is ``delta * (1/g~^e - 1/g~^*)``; for the
        chain to discriminate between configurations differing by a ~10%
        objective gap, ``delta`` must be on the order of the objective
        itself.  This helper evaluates the all-top-speed configuration and
        returns ``greediness`` times its objective: ``greediness ~ 1`` is
        exploratory, ``>> 1`` nearly greedy (the paper's Fig. 4 sweeps this
        knob as its different-``delta`` curves).
        """
        if greediness <= 0:
            raise ValueError("greediness must be positive")
        fleet = problem.fleet
        levels = (fleet.num_levels - 1).astype(np.int64)
        dist = distribute_load(problem, levels)
        action = FleetAction(levels=levels, per_server_load=dist.per_server_load)
        return greediness * max(problem.objective(action), _OBJECTIVE_FLOOR)

    def _scorer(
        self,
        problem: SlotProblem,
        cache: EvaluationCache,
        score: Callable[[np.ndarray], float],
    ) -> Callable[[np.ndarray], float]:
        """The candidate scorer of one solve, chosen once before the chain
        runs.  GSD scores through the fast path as is; subclasses may wrap
        it (:class:`~repro.solvers.messaging.DistributedGSD` charges each
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
        deadline = SolveDeadline(self.deadline_ms)
        problem.check_feasible()
        fleet = problem.fleet
        rng = self.rng
        G = fleet.num_groups
        cache = EvaluationCache(problem, warm_start=_WARM_START)

        scored_s = 0.0
        if sp:
            # Attribution build of the scorer: classify each candidate
            # evaluation by what the fast path actually did (stats deltas)
            # and accumulate its wall time into an aggregated child bucket
            # -- one summarized span event per bucket at solve exit, never
            # one per iteration.  ``scored_s`` sums those bucket times so
            # the chain's own step work can be attributed as the remainder.
            fp_stats = cache.stats

            def score(lv: np.ndarray) -> float:
                nonlocal scored_s
                t0 = time.perf_counter()
                hits0 = fp_stats.cache_hits
                screened0 = fp_stats.screened_infeasible
                value = cache.objective_of(lv)
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

        else:
            score = cache.objective_of
        score = self._scorer(problem, cache, score)

        if self.initial_levels is not None:
            levels = self.initial_levels.copy()
            if levels.shape != (G,):
                raise ValueError("initial_levels must have one entry per group")
        else:
            levels = (fleet.num_levels - 1).astype(np.int64)
        current = score(levels)
        if not np.isfinite(current):
            levels = (fleet.num_levels - 1).astype(np.int64)
            cache.note_all()
            current = score(levels)
        best_levels, best = levels.copy(), current

        hist_chain = np.empty(self.iterations)
        hist_best = np.empty(self.iterations)
        hist_acc = np.zeros(self.iterations, dtype=bool)
        hist_temp = np.empty(self.iterations)
        n_solves = 0
        last_improve = 0

        tele = self.telemetry
        started = time.perf_counter() if tele.enabled else 0.0
        solve_index = -1
        if tele.enabled:
            solve_index = self._solve_count
            self._solve_count += 1

        def _log_window(it: int) -> None:
            """Iteration-summary event at the end of each logging interval."""
            if not tele.enabled or (it + 1) % _LOG_WINDOW != 0:
                return
            lo = it + 1 - _LOG_WINDOW
            tele.emit(
                "gsd.iteration",
                solve_index=solve_index,
                iteration=it + 1,
                chain_objective=float(hist_chain[it]),
                best_objective=float(hist_best[it]),
                temperature=float(hist_temp[it]),
                acceptance_rate=float(hist_acc[lo : it + 1].mean()),
                window=_LOG_WINDOW,
            )

        completed = 0
        scored_s = 0.0
        t_chain = time.perf_counter() if sp else 0.0
        for it in range(self.iterations):
            if deadline.expired():
                break
            completed = it + 1
            delta = self._temperature(it)
            hist_temp[it] = delta

            # Line 7: a random group explores a random speed (incl. off).
            g = int(rng.integers(0, G))
            proposal = int(rng.integers(-1, fleet.num_levels[g]))
            old_level = levels[g]
            if proposal == old_level:
                hist_chain[it], hist_best[it] = current, best
                _log_window(it)
                continue
            levels[g] = proposal
            cache.note_changed(g)
            explored = score(levels)
            n_solves += 1

            if math.isfinite(explored):
                # Line 4: two-point Gibbs acceptance.
                accept = rng.random() < _acceptance_probability(
                    delta, explored, current
                )
            else:
                accept = False  # line 2 guard: infeasible explorations die

            if accept:
                current = explored
                hist_acc[it] = True
                if explored < best:
                    best = explored
                    best_levels = levels.copy()
                    last_improve = it + 1
            else:
                levels[g] = old_level
                cache.note_changed(g)
            hist_chain[it], hist_best[it] = current, best
            _log_window(it)
        if sp:
            # The chain's own steps: proposal draws, acceptance, history.
            sp.add("gsd.chain", time.perf_counter() - t_chain - scored_s)

        truncated = completed < self.iterations
        if truncated:
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
                    planned=self.iterations,
                    best_feasible=bool(np.isfinite(best)),
                )
                tele.metrics.counter("deadline.expirations").inc()
            if not np.isfinite(best):
                raise DeadlineExceededError(
                    f"GSD solve deadline ({self.deadline_ms} ms) expired after "
                    f"{completed}/{self.iterations} iterations with no feasible "
                    "incumbent"
                )

        stats = cache.stats
        if tele.enabled:
            elapsed = time.perf_counter() - started
            acceptance = float(hist_acc.mean()) if completed else 0.0
            metrics = tele.metrics
            metrics.counter("gsd.solves").inc()
            metrics.counter("gsd.inner_solves").inc(stats.inner_solves)
            metrics.counter("gsd.evaluations").inc(n_solves)
            metrics.counter("gsd.cache_hits").inc(stats.cache_hits)
            metrics.counter("gsd.warm_starts").inc(stats.warm_solves)
            metrics.counter("gsd.screened_infeasible").inc(stats.screened_infeasible)
            metrics.histogram("gsd.solve_time_s").observe(elapsed)
            metrics.histogram("gsd.iterations_to_convergence").observe(last_improve)
            metrics.histogram("gsd.acceptance_rate").observe(acceptance)
            tele.emit(
                "gsd.solve",
                solve_index=solve_index,
                iterations=completed,
                inner_solves=stats.inner_solves,
                evaluations=n_solves,
                cache_hits=stats.cache_hits,
                warm_starts=stats.warm_solves,
                screened_infeasible=stats.screened_infeasible,
                best_objective=float(best),
                acceptance_rate=acceptance,
                iterations_to_convergence=last_improve,
                solve_time_s=elapsed,
            )

        if not np.isfinite(best):
            # The chain observed no configuration satisfying the operational
            # caps; returning the (cap-violating) chain state would silently
            # hand the controller an infeasible action.
            raise InfeasibleError(
                "GSD chain never reached a configuration satisfying the "
                "operational caps; increase iterations or relax the caps"
            )
        t_final = time.perf_counter() if sp else 0.0
        action, final_evaluation = cache.solution_for(best_levels)
        if sp:
            sp.add("gsd.finalize", time.perf_counter() - t_final)
        info: dict = {
            "iterations": completed,
            "chain_levels": levels.copy(),
            "inner_solves": stats.inner_solves,
            "evaluations": n_solves,
            "fastpath": stats.as_dict(),
            "final_objective": best,
        }
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
