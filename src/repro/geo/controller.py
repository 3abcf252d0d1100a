"""GeoCOCA: online carbon-neutral control across multiple sites.

The multi-site analogue of Algorithm 1.  Carbon neutrality is an
*aggregate* constraint -- the operator's total brown energy across all
sites must stay within the global off-site-renewables-plus-RECs budget --
so a single carbon-deficit queue prices every site's brown energy:

    q(t+1) = max( q(t) + sum_s y_s(t) - alpha f(t) - z , 0 ).

Each slot, the dispatcher splits the global workload so the P3 objectives
``V g_s + q y_s`` sum to a minimum (see :mod:`repro.geo.dispatch`), which
simultaneously chases cheap electricity, local renewables, and low network
delay -- geographic load balancing [21, 29, 32] fused with the paper's
energy budgeting, with no future information.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.deficit_queue import CarbonDeficitQueue
from ..core.vschedule import ConstantV, VSchedule
from ..solvers.base import SlotSolver
from ..telemetry import Telemetry, coerce
from ..traces.base import Trace
from .dispatch import DispatchResult, dispatch_slot, proportional_shares
from .site import Site

__all__ = ["GeoEnvironment", "GeoCOCA", "ProportionalGeo"]


@dataclass(frozen=True)
class GeoEnvironment:
    """Global inputs for a multi-site run.

    Parameters
    ----------
    workload:
        Global arrival-rate trace (req/s) to be split across sites.
    sites:
        The locations (each with local traces of the same horizon).
    offsite:
        Global off-site renewable supply ``f(t)`` in MW (PPAs offset
        aggregate brown energy wherever it is drawn).
    recs:
        Global REC prepurchase ``Z`` in MWh.
    alpha:
        Capping aggressiveness of the aggregate constraint.
    """

    workload: Trace
    sites: tuple[Site, ...]
    offsite: Trace
    recs: float
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if not self.sites:
            raise ValueError("need at least one site")
        horizons = {len(self.workload), len(self.offsite)}
        horizons.update(s.horizon for s in self.sites)
        if len(horizons) != 1:
            raise ValueError(f"inconsistent horizons: {sorted(horizons)}")
        if self.recs < 0:
            raise ValueError("REC total must be non-negative")
        object.__setattr__(self, "sites", tuple(self.sites))

    @property
    def horizon(self) -> int:
        """Number of slots."""
        return len(self.workload)

    @property
    def carbon_budget(self) -> float:
        """Global budget ``sum f + Z`` in MWh."""
        return self.offsite.total + self.recs

    @property
    def total_capacity(self) -> float:
        """Aggregate capped service rate across sites (req/s)."""
        return float(sum(s.capacity() for s in self.sites))


class GeoCOCA:
    """Multi-site COCA with a single global deficit queue.

    Parameters
    ----------
    environment:
        Global traces and sites.
    v_schedule:
        Cost-carbon parameter (constant or per-frame schedule).
    frame_length:
        Queue-reset frame ``T`` (None = one frame).
    dispatch_rounds:
        Transfer rounds per slot for the dispatcher.
    solvers:
        Optional per-site P3 engines.
    telemetry:
        Optional observability handle: each slot emits a ``geo.dispatch``
        event (load split, queue, realized cost/brown) and times the
        dispatch into the ``geo.dispatch_time_s`` histogram.
    """

    def __init__(
        self,
        environment: GeoEnvironment,
        *,
        v_schedule: VSchedule | float = 100.0,
        frame_length: int | None = None,
        dispatch_rounds: int = 24,
        solvers: Sequence[SlotSolver] | None = None,
        telemetry: Telemetry | None = None,
    ):
        if isinstance(v_schedule, (int, float)):
            v_schedule = ConstantV(float(v_schedule))
        self.environment = environment
        self.v_schedule = v_schedule
        self.frame_length = frame_length
        self.dispatch_rounds = dispatch_rounds
        self.solvers = list(solvers) if solvers is not None else None
        self.telemetry = coerce(telemetry)
        if self.solvers is not None:
            for solver in self.solvers:
                bind = getattr(solver, "bind_telemetry", None)
                if bind is not None:
                    bind(self.telemetry)
        self.queue = CarbonDeficitQueue(
            alpha=environment.alpha,
            rec_per_slot=environment.alpha * environment.recs / environment.horizon,
        )
        self._prev_on: list[np.ndarray | None] = [None] * len(environment.sites)
        self._prev_shares: np.ndarray | None = None
        self._last_v: float = self.v_schedule.value(0)
        if self.telemetry.enabled:
            # Budget constants for the health monitors (mirrors COCA's
            # controller.config on the single-site path).
            self.telemetry.emit(
                "geo.config",
                controller=self.name(),
                alpha=environment.alpha,
                rec_per_slot=self.queue.rec_per_slot,
                horizon=environment.horizon,
                num_sites=len(environment.sites),
                capacity=environment.total_capacity,
                carbon_budget=environment.carbon_budget,
            )

    def decide(self, t: int) -> DispatchResult:
        """Dispatch slot ``t`` and provision every site."""
        T = self.frame_length or self.environment.horizon
        if t % T == 0:
            self.queue.reset()
        v = self.v_schedule.value(t // T)
        self._last_v = v
        with self.telemetry.timer("geo.dispatch_time_s") as dispatch_timer:
            result = dispatch_slot(
                self.environment.sites,
                t,
                self.environment.workload[t],
                q=self.queue.length,
                V=v,
                prev_on=self._prev_on,
                solvers=self.solvers,
                rounds=self.dispatch_rounds,
                initial_shares=self._warm_start(t),
            )
        if self.telemetry.enabled:
            self.telemetry.emit(
                "geo.dispatch",
                t=t,
                load=float(self.environment.workload[t]),
                queue=self.queue.length,
                v=v,
                shares=[float(s) for s in result.shares],
                cost=float(sum(sol.cost for sol in result.solutions)),
                brown=result.total_brown,
                solve_time_s=dispatch_timer.elapsed,
            )
        self._prev_on = [
            sol.action.on_counts(site.model.fleet)
            for sol, site in zip(result.solutions, self.environment.sites)
        ]
        self._prev_shares = result.shares.copy()
        return result

    def _warm_start(self, t: int) -> np.ndarray | None:
        """Rescale the previous slot's split to this slot's total -- a good
        starting point because the environment is autocorrelated."""
        if self._prev_shares is None:
            return None
        total = self.environment.workload[t]
        prev_total = float(self._prev_shares.sum())
        if prev_total <= 0.0 or total <= 0.0:
            return None
        scaled = self._prev_shares * (total / prev_total)
        caps = np.array([s.capacity() for s in self.environment.sites])
        if np.any(scaled > caps):
            return None
        return scaled

    def observe(self, t: int, result: DispatchResult) -> None:
        """End-of-slot queue update with the realized off-site supply."""
        before = self.queue.length
        self.queue.update(result.total_brown, self.environment.offsite[t])
        if self.telemetry.enabled:
            self.telemetry.emit(
                "queue.update",
                t=t,
                before=before,
                after=self.queue.length,
                brown=result.total_brown,
                offsite=float(self.environment.offsite[t]),
                rec_per_slot=self.queue.rec_per_slot,
                v=self._last_v,
            )
            self.telemetry.metrics.gauge("geo.queue_depth").set(self.queue.length)

    # -------------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """Queue and its history, per-site switching memory, and warm-start
        split (no runner logs this controller's series)."""
        from ..state.serialize import encode_array

        return {
            "queue": self.queue.state_dict(),
            "queue_lengths": [float(x) for x in self.queue.lengths],
            "prev_on": [encode_array(arr) for arr in self._prev_on],
            "prev_shares": encode_array(self._prev_shares),
            "last_v": float(self._last_v),
            "solvers": (
                None
                if self.solvers is None
                else [s.state_dict() for s in self.solvers]
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        from ..state.serialize import decode_array

        self.queue.load_state_dict(state["queue"])
        self.queue.lengths = [float(x) for x in state["queue_lengths"]]
        self._prev_on = [decode_array(obj) for obj in state["prev_on"]]
        self._prev_shares = decode_array(state["prev_shares"])
        self._last_v = float(state["last_v"])
        if self.solvers is not None and state["solvers"] is not None:
            for solver, solver_state in zip(self.solvers, state["solvers"]):
                solver.load_state_dict(solver_state)

    def name(self) -> str:
        return "GeoCOCA"


class ProportionalGeo:
    """Naive baseline: capacity-proportional split, carbon-unaware sites."""

    def __init__(self, environment: GeoEnvironment):
        self.environment = environment
        self._prev_on: list[np.ndarray | None] = [None] * len(environment.sites)

    def decide(self, t: int) -> DispatchResult:
        sites = self.environment.sites
        total = self.environment.workload[t]
        shares = proportional_shares(sites, total)
        result = dispatch_slot(
            sites,
            t,
            total,
            q=0.0,
            V=1.0,
            prev_on=self._prev_on,
            rounds=0,
            initial_shares=shares,
        )
        self._prev_on = [
            sol.action.on_counts(site.model.fleet)
            for sol, site in zip(result.solutions, sites)
        ]
        return result

    def observe(self, t: int, result: DispatchResult) -> None:
        """Stateless baseline; nothing to update."""

    def name(self) -> str:
        return "proportional"
