"""Controller interface driven by the slot simulator.

A controller sees, at the start of slot ``t``, exactly what the paper says
COCA may see -- the (predicted) workload ``lambda(t)``, the on-site
renewable supply ``r(t)``, and the electricity price ``w(t)`` -- and must
commit a fleet action.  After the slot, it observes the realized outcome
(including the off-site supply ``f(t)``, which COCA explicitly may *not*
use when deciding) and may update internal state.  Offline baselines that
legitimately use future information (OPT, the T-step lookahead, PerfectHP's
48-hour predictions) receive it at :meth:`Controller.start` through the
full environment, which is part of their definition, not a leak.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..solvers.base import SlotSolution
from ..solvers.problem import SlotEvaluation
from ..telemetry import NULL_TELEMETRY, Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.environment import Environment

__all__ = ["SlotObservation", "SlotOutcome", "Controller"]


@dataclass(frozen=True)
class SlotObservation:
    """What a controller sees at the start of slot ``t``."""

    t: int
    arrival_rate: float  # predicted lambda(t), req/s
    onsite: float  # r(t), MW
    price: float  # w(t), $/MWh
    network_delay: float = 0.0  # user <-> data center delay (section 2.3)
    pue: float | None = None  # per-slot PUE override (time-varying PUE)


@dataclass(frozen=True)
class SlotOutcome:
    """What a controller learns at the end of slot ``t``."""

    t: int
    evaluation: SlotEvaluation  # realized costs/energies for the slot
    offsite: float  # f(t), MWh, realized after the decision


class Controller(ABC):
    """Per-slot decision strategy."""

    #: Observability handle; the simulator rebinds it per run.  The default
    #: is the shared no-op, so controllers may emit unconditionally cheap
    #: telemetry or guard expensive payloads with ``self.telemetry.enabled``.
    telemetry: Telemetry = NULL_TELEMETRY

    def bind_telemetry(self, telemetry: Telemetry) -> None:
        """Attach the run's telemetry; called by :func:`repro.sim.simulate`.
        Controllers owning sub-components (e.g. a P3 solver) override this
        to propagate the handle."""
        self.telemetry = telemetry

    def start(self, environment: "Environment") -> None:
        """Called once before the run.  Online controllers should only read
        static configuration (horizon, budget constants); offline baselines
        may precompute from the full traces -- that is their defining
        privilege."""

    @abstractmethod
    def decide(self, observation: SlotObservation) -> SlotSolution:
        """Commit the slot's capacity-provisioning and load-distribution
        decision."""

    def observe(self, outcome: SlotOutcome) -> None:
        """End-of-slot feedback; default is stateless."""

    # -- fault-injection hooks (see repro.faults) ----------------------
    def set_failed_groups(self, failed: frozenset[int]) -> None:
        """Tell the controller which server groups are currently down.

        Called by the simulator before each ``decide`` when fault
        injection is active; the empty set means all groups are healthy.
        COCA puts the set on its slot problem, whose engines hold those
        groups off.  The default ignores it — the simulator still masks
        failed groups out of the *realized* action, so an unaware
        controller stays physically correct, just suboptimal.
        """

    def on_fallback(self, observation: SlotObservation, solution: SlotSolution) -> None:
        """A degraded action replaced this slot's failed ``decide``.

        Called instead of a successful ``decide`` return, with the
        fallback the simulator committed.  Stateful controllers override
        this to keep their bookkeeping (previous on-set, per-slot history)
        aligned with what actually ran; the default does nothing.
        """

    # -- checkpoint/resume hooks (see repro.state) ---------------------
    def state_dict(self) -> dict:
        """Mutable controller state a checkpoint must carry.

        Stateless controllers (the myopic baselines) inherit this empty
        default; anything with a deficit queue, switching memory, or RNG
        streams overrides both hooks so kill-and-resume stays
        bit-identical.
        """
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict` (no-op default)."""

    def series(self) -> dict[str, list]:
        """The controller's append-only per-slot series, by name.

        They stay out of :meth:`state_dict`: the runner logs them like its
        record columns, one record's new rows at a time, so a checkpoint
        never re-encodes a whole history.  The default has none.
        """
        return {}

    def load_series(self, series: dict[str, list]) -> None:
        """Restore the series captured by :meth:`series` (no-op default)."""

    def set_solve_deadline(self, budget_ms: float | None) -> None:
        """Arm a per-slot wall-clock solve budget.

        The engine calls this once per run when ``--solve-deadline-ms`` is
        set.  The default ignores it (closed-form baselines cannot blow a
        budget); controllers owning an iterative P3 engine forward it to
        the solver's ``deadline_ms``.
        """

    # -- serving hooks (see repro.serve) -------------------------------
    def status_dict(self) -> dict:
        """Live operational state for the ``repro serve`` status endpoint.

        Unlike :meth:`state_dict` (complete, restorable, bit-exact), this
        is a small human-oriented snapshot -- queue depths, applied
        parameters -- refreshed every slot and served as JSON.  The default
        (stateless controllers) has nothing to report.
        """
        return {}

    def name(self) -> str:
        """Identifier used in reports and tables."""
        return type(self).__name__
