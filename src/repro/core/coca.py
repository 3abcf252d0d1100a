"""COCA: the paper's online controller (Algorithm 1).

Each slot, COCA solves P3 -- minimize ``V g + q(t) [p - r(t)]^+`` -- using
only currently-available information, then updates the carbon-deficit queue
once the slot's off-site renewable supply is realized.  At frame boundaries
(every ``T`` slots) the queue is reset and the cost-carbon parameter ``V_r``
may change (section 4.3).  Theorem 2 guarantees the resulting average cost
is within ``C(T)/V`` of the optimal T-step-lookahead policy while the
deviation from carbon neutrality stays bounded.

The P3 engine is pluggable (the paper: GSD "or other alternative
algorithms"); by default a homogeneous fleet gets the exact vectorized
enumeration engine and a heterogeneous one gets coordinate descent.
"""

from __future__ import annotations

import numpy as np

from ..energy.renewables import RenewablePortfolio
from ..solvers.base import SlotSolution, SlotSolver
from ..solvers.convex import CoordinateDescentSolver
from ..solvers.degraded import solve_with_failed_groups
from ..solvers.enumeration import HomogeneousEnumerationSolver
from .config import DataCenterModel
from .controller import Controller, SlotObservation, SlotOutcome
from .deficit_queue import CarbonDeficitQueue
from .vschedule import ConstantV, VSchedule

__all__ = ["COCA", "default_solver"]


def default_solver(model: DataCenterModel) -> SlotSolver:
    """The default P3 engine for a model's fleet (see module docstring)."""
    if model.fleet.is_homogeneous:
        return HomogeneousEnumerationSolver()
    return CoordinateDescentSolver()


class COCA(Controller):
    """Algorithm 1.

    Parameters
    ----------
    model:
        Facility-side parameters (fleet, weights, substrate models).
    portfolio:
        The period's renewable supply and RECs; provides the per-slot REC
        allowance ``z = alpha Z / J`` of the queue dynamics.
    v_schedule:
        Cost-carbon parameter per frame; a plain float means constant ``V``.
    frame_length:
        Frame size ``T`` in slots; ``None`` means one frame spanning the
        whole period (constant-``V`` runs).
    alpha:
        Electricity-capping aggressiveness of constraint (10).
    solver:
        P3 engine override.
    """

    def __init__(
        self,
        model: DataCenterModel,
        portfolio: RenewablePortfolio,
        *,
        v_schedule: VSchedule | float = 100.0,
        frame_length: int | None = None,
        alpha: float = 1.0,
        solver: SlotSolver | None = None,
    ):
        if isinstance(v_schedule, (int, float)):
            v_schedule = ConstantV(float(v_schedule))
        if frame_length is not None and frame_length < 1:
            raise ValueError("frame_length must be positive")
        self.model = model
        self.portfolio = portfolio
        self.v_schedule = v_schedule
        self.frame_length = frame_length
        self.alpha = alpha
        self.solver = solver if solver is not None else default_solver(model)

        horizon = portfolio.horizon
        self.queue = CarbonDeficitQueue(
            alpha=alpha, rec_per_slot=alpha * portfolio.recs / horizon
        )
        self._horizon = horizon
        self._prev_on: np.ndarray | None = None
        self._current_v = self.v_schedule.value(0)
        # Per-slot records for analysis.
        self.v_history: list[float] = []
        self.queue_at_decision: list[float] = []
        self._frame_started = -1  # guards frame logic against decide retries
        # Groups currently down (fault injection); empty = all healthy.
        self._failed: frozenset[int] = frozenset()

    # ------------------------------------------------------------------
    def bind_telemetry(self, telemetry) -> None:
        """Attach the run's telemetry and propagate it to the P3 engine."""
        super().bind_telemetry(telemetry)
        bind = getattr(self.solver, "bind_telemetry", None)
        if bind is not None:
            bind(telemetry)

    @property
    def effective_frame_length(self) -> int:
        """``T``; the full horizon when no frame length was given."""
        return self.frame_length if self.frame_length is not None else self._horizon

    def start(self, environment) -> None:
        if environment.horizon != self._horizon:
            raise ValueError(
                f"environment horizon {environment.horizon} does not match "
                f"portfolio horizon {self._horizon}"
            )
        tele = self.telemetry
        if tele.enabled:
            # Budget constants for the health monitors (alpha, per-slot REC
            # allowance, frame length) -- simulate() binds telemetry before
            # calling start(), so this is the stream's first COCA event.
            tele.emit(
                "controller.config",
                controller=self.name(),
                alpha=self.alpha,
                rec_per_slot=self.queue.rec_per_slot,
                frame_length=self.effective_frame_length,
                v0=self._current_v,
                horizon=self._horizon,
                carbon_budget=self.portfolio.offsite.total + self.portfolio.recs,
            )

    # ------------------------------------------------------------------
    def set_failed_groups(self, failed: frozenset[int]) -> None:
        """Fault-injection hook: solve subsequent slots on the sub-fleet of
        healthy groups (section 4.2's failures-shrink-the-feasible-set
        reading).  The empty set restores the ordinary solve path."""
        self._failed = frozenset(failed)

    def decide(self, observation: SlotObservation) -> SlotSolution:
        t = observation.t
        T = self.effective_frame_length
        frame = t // T
        # The frame guard makes decide idempotent per slot: a degraded
        # simulator may retry a slot's decide after a lost protocol round,
        # and the reset must not run twice.
        if t % T == 0 and frame != self._frame_started:
            self._current_v = self.v_schedule.value(frame)
            self.queue.reset()
            self._frame_started = frame

        problem = self.model.slot_problem(
            arrival_rate=observation.arrival_rate,
            onsite=observation.onsite,
            price=observation.price,
            network_delay=observation.network_delay,
            pue_override=observation.pue,
            q=self.queue.length,
            V=self._current_v,
            prev_on_counts=self._prev_on,
        )
        if self._failed:
            solution = solve_with_failed_groups(self.solver, problem, self._failed)
        else:
            solution = self.solver.solve(problem)
        # Histories are appended only once the solve succeeds, so a failed
        # slot (handled via on_fallback) never records twice or misaligns.
        self.v_history.append(self._current_v)
        self.queue_at_decision.append(self.queue.length)
        self._prev_on = solution.action.on_counts(self.model.fleet)
        return solution

    def on_fallback(self, observation: SlotObservation, solution: SlotSolution) -> None:
        """Keep per-slot records aligned when the simulator committed a
        degraded action in place of this slot's failed solve."""
        self.v_history.append(self._current_v)
        self.queue_at_decision.append(self.queue.length)
        self._prev_on = solution.action.on_counts(self.model.fleet)
        if self.telemetry.enabled:
            self.telemetry.emit(
                "controller.fallback",
                t=observation.t,
                v=self._current_v,
                queue=self.queue.length,
            )

    # ------------------------------------------------------------ serving
    def status_dict(self) -> dict:
        """The deficit-queue view ``repro serve`` exposes at ``/status``."""
        return {
            "name": self.name(),
            "queue_mwh": float(self.queue.length),
            "v": float(self._current_v),
            "rec_per_slot_mwh": float(self.queue.rec_per_slot),
            "frame": int(max(self._frame_started, 0)),
            "frame_length": int(self.effective_frame_length),
            "slots_decided": len(self.v_history),
        }

    # -------------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """Everything Algorithm 1 carries across slots, checkpoint-ready,
        except the per-slot histories (:meth:`series`)."""
        from ..state.serialize import encode_array

        return {
            "queue": self.queue.state_dict(),
            "current_v": float(self._current_v),
            "prev_on": encode_array(self._prev_on),
            "frame_started": int(self._frame_started),
            "failed": sorted(self._failed),
            "solver": self.solver.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore Algorithm 1 state captured by :meth:`state_dict`.

        Checkpoints of older versions also carry ``frame_cost``,
        ``frame_deficit`` and ``frame_slots`` (the removed adaptive-V
        accumulators); they are ignored."""
        from ..state.serialize import decode_array

        self.queue.load_state_dict(state["queue"])
        self._current_v = float(state["current_v"])
        self._prev_on = decode_array(state["prev_on"])
        self._frame_started = int(state["frame_started"])
        self._failed = frozenset(int(g) for g in state["failed"])
        self.solver.load_state_dict(state["solver"])

    def series(self) -> dict[str, list]:
        """The applied-V and queue histories (see :meth:`Controller.series`)."""
        return {
            "v_history": self.v_history,
            "queue_at_decision": self.queue_at_decision,
            "queue_lengths": self.queue.lengths,
        }

    def load_series(self, series: dict[str, list]) -> None:
        """Restore the histories captured by :meth:`series`."""
        self.v_history = [float(v) for v in series["v_history"]]
        self.queue_at_decision = [float(q) for q in series["queue_at_decision"]]
        self.queue.lengths = [float(x) for x in series["queue_lengths"]]

    def set_solve_deadline(self, budget_ms: float | None) -> None:
        """Forward the per-slot wall-clock budget to the P3 engine (only
        iterative engines expose ``deadline_ms``; enumeration is closed-form
        and cannot meaningfully be cut)."""
        if hasattr(self.solver, "deadline_ms"):
            self.solver.deadline_ms = budget_ms

    def observe(self, outcome: SlotOutcome) -> None:
        brown = outcome.evaluation.brown_energy
        queue_before = self.queue.length
        self.queue.update(brown, outcome.offsite)
        tele = self.telemetry
        if tele.enabled:
            tele.emit(
                "queue.update",
                t=outcome.t,
                before=queue_before,
                after=self.queue.length,
                brown=brown,
                offsite=outcome.offsite,
                rec_per_slot=self.queue.rec_per_slot,
                v=self._current_v,
            )
            tele.metrics.gauge("sim.queue_depth").set(self.queue.length)

    def name(self) -> str:
        return "COCA"
