"""Solver interface for the one-slot problem P3.

COCA is agnostic to how P3 is solved each slot ("solving P3 is *not*
restricted to using the presented GSD. Instead, other alternative algorithms
can also be applied" -- section 4.2).  All engines implement
:class:`SlotSolver` and return a :class:`SlotSolution`; the controller, the
baselines, and the benchmarks pick whichever engine fits the fleet:

===========================  =======================================================
Engine                       Use case
===========================  =======================================================
HomogeneousEnumerationSolver exact & fast for single-profile fleets (year-long runs)
CoordinateDescentSolver      deterministic local search for heterogeneous fleets
GSDSolver                    the paper's distributed Gibbs sampler (Algorithm 2)
===========================  =======================================================

The iterative engines (GSD, coordinate descent) share a common fast path
-- a per-solve evaluation cache, an O(1) delta feasibility screen, and
warm-started inner solves (GSD always warm-starts, coordinate descent
never does) -- in :mod:`repro.solvers.fastpath`; see
``docs/PERFORMANCE.md`` for the design and its exactness contracts.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

from ..cluster.fleet import FleetAction
from ..telemetry import NULL_TELEMETRY, Telemetry
from .problem import SlotEvaluation, SlotProblem

__all__ = ["SlotSolution", "SlotSolver"]


@dataclass(frozen=True)
class SlotSolution:
    """An action together with its evaluation and solver diagnostics."""

    action: FleetAction
    evaluation: SlotEvaluation
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def objective(self) -> float:
        """P3 objective value ``V g + q y`` of the chosen action."""
        return self.evaluation.objective

    @property
    def cost(self) -> float:
        """Operational cost ``g`` of the chosen action."""
        return self.evaluation.cost


class SlotSolver(ABC):
    """Strategy interface: minimize Eq. (16) subject to (7)-(9)."""

    #: Observability handle; a no-op unless a controller or caller rebinds
    #: it.  Instrumented engines guard with ``self.telemetry.enabled`` so
    #: the default costs nothing on the hot path.
    telemetry: Telemetry = NULL_TELEMETRY

    def bind_telemetry(self, telemetry: Telemetry) -> None:
        """Attach a run's telemetry (propagated by the owning controller)."""
        self.telemetry = telemetry

    @abstractmethod
    def solve(self, problem: SlotProblem) -> SlotSolution:
        """Return a (near-)minimizer of the slot problem.

        Implementations must raise
        :class:`~repro.solvers.problem.InfeasibleError` when no feasible
        action exists (workload above capped capacity).
        """

    def name(self) -> str:
        """Short identifier for reports."""
        return type(self).__name__

    # -------------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """Mutable solver state a checkpoint must carry to resume exactly.

        Stateless engines (enumeration) inherit this empty default; engines with RNG streams or counters override it.
        """
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict` (no-op by default)."""
