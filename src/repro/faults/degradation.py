"""Graceful degradation when a slot solve cannot complete.

The paper assumes every slot's P3 is solvable and every protocol round
completes; under injected chaos neither holds.  The simulator's contract
stays simple: *a data center never stops serving because an optimizer
failed*.  :class:`DegradationPolicy` decides what to run instead when the
controller's ``decide`` raises — a lost protocol round
(:class:`~repro.solvers.messaging.BusTimeoutError`, retried up to
``retries`` extra times first) or an infeasible slot
(:class:`~repro.solvers.problem.InfeasibleError`, not retried: it is
deterministic):

* ``"last_action"`` (default): reuse the last committed configuration,
  masked to the currently-healthy groups, its load redistributed to the
  slot's workload; falls through to proportional dispatch when there is no
  usable last action.
* ``"proportional"``: every healthy group to top speed, load spread
  pro-rata to capped capacity — the classic "dumb but safe" dispatch.

Fallback actions are *planned* actions like any controller decision: the
engine still realizes them against the actual arrival (clipping at the
utilization cap, recording drops) and bills realized costs, so the
carbon-deficit queue keeps running on real brown energy and Theorem 2
accounting carries through degraded slots unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster.fleet import ClassRows, FleetAction
from ..core.config import DataCenterModel
from ..core.controller import SlotObservation
from ..solvers.base import SlotSolution
from ..solvers.problem import InfeasibleError

__all__ = ["DegradationPolicy", "proportional_action"]

#: Fallback modes a policy may use.
FALLBACK_MODES = ("last_action", "proportional")


def _spread(
    model: DataCenterModel, levels: np.ndarray, arrival_rate: float
) -> FleetAction | None:
    """``levels`` with the arrival spread pro rata to capped capacity:
    ``gamma * x_k * ratio`` per server of every on class ``k``; ``None``
    when nothing is on."""
    fleet = model.fleet
    caps = np.where(levels >= 0, model.gamma * fleet.group_speeds(levels), 0.0)
    total = float(np.sum(fleet.counts * caps))
    if total <= 0.0:
        return None
    ratio = min(max(arrival_rate, 0.0) / total, 1.0)
    class_load = model.gamma * fleet.class_speed * ratio
    return FleetAction(levels, ClassRows.of(fleet, levels, class_load))


def proportional_action(
    model: DataCenterModel,
    arrival_rate: float,
    failed: frozenset[int] | set[int] = frozenset(),
) -> FleetAction:
    """Top-speed levels on healthy groups, load pro-rata to capacity.

    Deliberately ignores cost: this runs when optimization is unavailable
    and the only goal is serving the workload within the utilization cap.
    """
    fleet = model.fleet
    levels = np.array(
        [
            -1 if g in failed else fleet.groups[g].profile.num_speeds - 1
            for g in range(fleet.num_groups)
        ],
        dtype=np.int64,
    )
    action = _spread(model, levels, arrival_rate)
    if action is None:
        raise InfeasibleError("no healthy capacity for proportional dispatch")
    return action


@dataclass
class DegradationPolicy:
    """How the simulator degrades when a slot solve fails.

    Mutable counters (``fallbacks``, ``solve_retries``, ``by_reason``)
    accumulate over a run for the ``fault.summary`` event and CLI report.
    """

    mode: str = "last_action"
    retries: int = 1
    fallbacks: int = 0
    solve_retries: int = 0
    by_reason: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in FALLBACK_MODES:
            raise ValueError(f"fallback mode must be one of {FALLBACK_MODES}")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")

    # ------------------------------------------------------------------
    def fallback(
        self,
        model: DataCenterModel,
        observation: SlotObservation,
        last_levels: np.ndarray | None,
        failed: frozenset[int] | set[int] = frozenset(),
    ) -> SlotSolution:
        """The action to run instead of the failed solve; ``last_levels``
        are the last realized per-group levels (``None`` before any).

        Raises :class:`InfeasibleError` only when *no* healthy capacity
        exists at all — the one situation with nothing left to degrade to.
        """
        action: FleetAction | None = None
        used = self.mode
        if self.mode == "last_action" and last_levels is not None:
            levels = np.where(
                np.isin(np.arange(model.fleet.num_groups), sorted(failed)), -1, last_levels
            ).astype(np.int64)
            action = _spread(model, levels, observation.arrival_rate)
        if action is None:
            used = "proportional"
            action = proportional_action(model, observation.arrival_rate, failed)

        # Evaluate at (q=0, V=1): the planned-cost view for telemetry.  The
        # engine re-evaluates the realized action with the slot's actual
        # arrival, so run accounting never depends on these numbers.
        problem = model.slot_problem(
            arrival_rate=observation.arrival_rate,
            onsite=observation.onsite,
            price=observation.price,
            network_delay=observation.network_delay,
            pue_override=observation.pue,
        )
        return SlotSolution(
            action=action,
            evaluation=problem.evaluate(action),
            info={"fallback": used, "failed_groups": sorted(failed)},
        )

    # ------------------------------------------------------------------
    def record(self, reason: str, *, fallback: bool) -> None:
        """Count one degradation decision (engine bookkeeping)."""
        if fallback:
            self.fallbacks += 1
            self.by_reason[reason] = self.by_reason.get(reason, 0) + 1
        else:
            self.solve_retries += 1

    def stats(self) -> dict:
        """Accumulated degradation counters for summaries."""
        return {
            "mode": self.mode,
            "retries": int(self.retries),
            "fallbacks": int(self.fallbacks),
            "solve_retries": int(self.solve_retries),
            "by_reason": dict(self.by_reason),
        }

    # -------------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """Accumulated counters (mode/retries are manifest configuration)."""
        return {
            "fallbacks": int(self.fallbacks),
            "solve_retries": int(self.solve_retries),
            "by_reason": {str(k): int(v) for k, v in sorted(self.by_reason.items())},
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore counters captured by :meth:`state_dict`."""
        self.fallbacks = int(state["fallbacks"])
        self.solve_retries = int(state["solve_retries"])
        self.by_reason = {str(k): int(v) for k, v in state["by_reason"].items()}
