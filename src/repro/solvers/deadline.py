"""Wall-clock solve budgets and anytime behaviour.

A slot in the paper's setting is an *hour*, but production slot solves run
inside real-time control loops where a solver that silently stretches the
slot is worse than a slightly suboptimal action.  :class:`SolveDeadline`
is a monotonic wall-clock budget the iterative engines (GSD, coordinate
descent) poll between candidate evaluations.  On expiry an
engine stops searching and returns its **best feasible incumbent** -- the
anytime contract: every iteration only improves the incumbent, so cutting
the search short yields a valid (cap-feasible) action, just possibly a
costlier one.  Expiry is reported via ``info["deadline"]`` on the
:class:`~repro.solvers.base.SlotSolution` and ``deadline.*`` telemetry,
surfaced on the dashboard by :class:`~repro.monitor.deadline.DeadlineMonitor`.

When the budget expires before *any* feasible configuration was seen, the
engine raises :class:`DeadlineExceededError`.  It subclasses
:class:`~repro.solvers.problem.InfeasibleError` deliberately: the engine
loop's degradation path treats infeasibility as non-retryable (retrying an
expired budget would blow the budget again), so an exhausted deadline with
no incumbent flows straight to the PR 4 ``DegradationPolicy`` fallback.

Note that deadline expiry depends on wall-clock speed, so a run using
deadlines is **not** bit-replayable across machines (or against a resumed
run on the same machine); ``repro resume --verify-replay`` refuses the
combination.  Checkpointing and deadlines compose fine otherwise.
"""

from __future__ import annotations

import time

from .problem import InfeasibleError

__all__ = ["DeadlineExceededError", "SolveDeadline"]


class DeadlineExceededError(InfeasibleError):
    """The solve budget expired before any feasible incumbent was found.

    Subclasses ``InfeasibleError`` so the engine's degradation path applies
    its fallback action immediately instead of retrying the solve.
    """


class SolveDeadline:
    """A monotonic wall-clock budget for one slot solve.

    The clock starts at construction; solvers arm a fresh instance per
    ``solve()`` call.  ``budget_ms=None`` never expires, so callers can
    thread a deadline unconditionally.
    """

    __slots__ = ("budget_ms", "_started", "_deadline")

    def __init__(self, budget_ms: float | None):
        if budget_ms is not None and budget_ms < 0:
            raise ValueError("deadline budget must be >= 0 ms")
        self.budget_ms = budget_ms
        self._started = time.perf_counter()
        self._deadline = (
            None if budget_ms is None else self._started + budget_ms / 1000.0
        )

    def elapsed_ms(self) -> float:
        """Milliseconds since the deadline was armed."""
        return (time.perf_counter() - self._started) * 1000.0

    def expired(self) -> bool:
        """Whether the budget has run out (never, when unbounded)."""
        return self._deadline is not None and time.perf_counter() >= self._deadline
