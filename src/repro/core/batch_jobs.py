"""Delay-tolerant batch workloads: the separate queue of section 2.3.

The paper focuses on delay-sensitive interactive workloads "while isolating
delay-tolerant batch workloads that can be handled by maintaining a separate
batch job queue as considered by several existing studies [36]".  This
module builds that substrate in the same Lyapunov style as COCA itself:

* :class:`BatchBacklog` -- the batch queue ``B(t+1) = B(t) + b(t) - s(t)``
  in rate-hour units (``b(t)`` is the batch arrival rate, ``s(t)`` the
  service rate granted this slot).
* :class:`BatchAwareCOCA` -- Algorithm 1 extended with a second
  drift-plus-penalty term: each slot it picks the batch service rate ``s``
  (from a candidate grid within the fleet's capacity headroom) minimizing

      [ V g(lambda + s) + q(t) y(lambda + s) ]  -  credit(t) * s,

  where the backlog-pressure credit scales with how full the queue is
  relative to its freshness target, *normalized by a running estimate of
  the marginal cost of serving batch work*:

      credit(t) = eta * ( B(t) / (b_bar * D) ) * m_bar(t),

  with ``b_bar`` the trailing mean batch arrival rate, ``D`` the freshness
  horizon, and ``m_bar`` the trailing mean per-unit objective increase of
  serving batch.  The normalization keeps the pressure term in the same
  units as the objective regardless of fleet size or V: a near-empty queue
  only drains in slots whose marginal cost is well below average (cheap
  power / surplus renewables), while a queue approaching its freshness
  target drains anywhere.  The result is the behaviour the
  green-scheduling literature obtains by prediction -- batch follows cheap
  and green energy -- with no future information at all.

A hard freshness guarantee complements the pressure term: with
``max_age_slots = D``, every slot must grant at least ``B(t)/D`` so no work
can linger indefinitely (capacity permitting; the interactive load always
has priority).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..energy.renewables import RenewablePortfolio
from ..solvers.base import SlotSolution, SlotSolver
from ..traces.base import Trace
from .coca import COCA, default_solver
from .config import DataCenterModel
from .controller import Controller, SlotObservation, SlotOutcome
from .vschedule import VSchedule

__all__ = ["BatchBacklog", "BatchAwareCOCA"]


@dataclass
class BatchBacklog:
    """The batch-job queue in rate-hour units (1 unit = 1 req/s served for
    one hour = 3600 requests)."""

    _backlog: float = field(default=0.0, init=False)
    _history: list = field(default_factory=list, init=False, repr=False)
    _arrived: float = field(default=0.0, init=False)
    _served: float = field(default=0.0, init=False)

    @property
    def backlog(self) -> float:
        """Outstanding batch work ``B(t)`` (rate-hours)."""
        return self._backlog

    @property
    def history(self) -> np.ndarray:
        """Backlog after each update."""
        return np.asarray(self._history, dtype=np.float64)

    @property
    def total_arrived(self) -> float:
        """Cumulative batch work admitted (rate-hours)."""
        return self._arrived

    @property
    def total_served(self) -> float:
        """Cumulative batch work completed (rate-hours)."""
        return self._served

    def update(self, arrivals: float, served: float) -> float:
        """Apply one slot: ``B <- max(B + arrivals - served, 0)``.

        ``served`` may not exceed ``B + arrivals`` (cannot complete work
        that does not exist).
        """
        if arrivals < 0 or served < 0:
            raise ValueError("arrivals and served must be non-negative")
        if served > self._backlog + arrivals + 1e-9:
            raise ValueError("cannot serve more batch work than is queued")
        self._backlog = max(self._backlog + arrivals - served, 0.0)
        self._arrived += arrivals
        self._served += served
        self._history.append(self._backlog)
        return self._backlog

    # -------------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """Backlog, totals, and history for a checkpoint."""
        return {
            "backlog": float(self._backlog),
            "history": [float(x) for x in self._history],
            "arrived": float(self._arrived),
            "served": float(self._served),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore queue state captured by :meth:`state_dict`."""
        self._backlog = float(state["backlog"])
        self._history = [float(x) for x in state["history"]]
        self._arrived = float(state["arrived"])
        self._served = float(state["served"])


class BatchAwareCOCA(Controller):
    """COCA co-scheduling a delay-tolerant batch queue.

    Parameters
    ----------
    model, portfolio, v_schedule, frame_length, alpha, solver:
        As for :class:`~repro.core.coca.COCA` (the interactive side).
    batch_arrivals:
        Hourly batch arrival-rate trace (req/s); must match the portfolio
        horizon.
    eta:
        Dimensionless backlog-pressure gain (see module docstring): at
        ``eta = 1`` a queue holding ``max_age_slots`` slots' worth of
        average arrivals is willing to pay the *average* marginal cost to
        drain; smaller values reserve batch work for cheaper-than-average
        slots, larger values drain sooner.
    max_age_slots:
        Freshness horizon ``D``: every slot at least ``B(t)/D`` is granted,
        capacity permitting, so mean queueing age stays O(D).
    service_candidates:
        Size of the candidate grid for the batch rate each slot.
    max_drain_multiple:
        Per-slot ceiling on the batch rate, as a multiple of the trailing
        mean arrival rate.  Capping the drain spreads a backed-up queue
        over *several* cheap slots instead of one crash-drain whose timing
        is only loosely price-correlated.
    """

    def __init__(
        self,
        model: DataCenterModel,
        portfolio: RenewablePortfolio,
        batch_arrivals: Trace,
        *,
        v_schedule: VSchedule | float = 100.0,
        frame_length: int | None = None,
        alpha: float = 1.0,
        solver: SlotSolver | None = None,
        eta: float = 1.0,
        max_age_slots: int = 48,
        service_candidates: int = 6,
        max_drain_multiple: float = 4.0,
    ):
        if len(batch_arrivals) != portfolio.horizon:
            raise ValueError("batch arrivals must cover the portfolio horizon")
        if eta < 0:
            raise ValueError("eta must be non-negative")
        if max_age_slots < 1:
            raise ValueError("max_age_slots must be >= 1")
        if service_candidates < 2:
            raise ValueError("need at least two service candidates")
        if max_drain_multiple <= 0:
            raise ValueError("max_drain_multiple must be positive")
        self.inner = COCA(
            model,
            portfolio,
            v_schedule=v_schedule,
            frame_length=frame_length,
            alpha=alpha,
            solver=solver,
        )
        self.model = model
        self.batch_arrivals = batch_arrivals
        self.eta = eta
        self.max_age_slots = max_age_slots
        self.service_candidates = service_candidates
        self.max_drain_multiple = max_drain_multiple
        self.backlog = BatchBacklog()
        self.batch_served: list[float] = []
        self._pending_service: float = 0.0
        self._solver = solver if solver is not None else default_solver(model)
        # Running scales for the normalized pressure credit (EMAs).
        self._marginal_ema: float | None = None
        self._arrival_ema: float = max(batch_arrivals.mean, 1e-12)
        self._ema_alpha = 0.05

    # ------------------------------------------------------------------
    def start(self, environment) -> None:
        self.inner.start(environment)

    def _candidate_rates(self, observation: SlotObservation) -> np.ndarray:
        """Feasible batch rates for this slot: from the freshness floor up
        to the capacity headroom left by the interactive load."""
        capacity = self.model.fleet.capacity(self.model.gamma)
        headroom = max(capacity - observation.arrival_rate, 0.0)
        available = self.backlog.backlog + self.batch_arrivals[observation.t]
        drain_cap = self.max_drain_multiple * self._arrival_ema
        upper = min(headroom, available, drain_cap)
        floor = min(self.backlog.backlog / self.max_age_slots, upper)
        if upper <= 0.0:
            return np.array([0.0])
        return np.unique(
            np.concatenate(
                ([floor], np.linspace(floor, upper, self.service_candidates))
            )
        )

    def decide(self, observation: SlotObservation) -> SlotSolution:
        # Let the inner COCA handle frame bookkeeping and queue exposure by
        # deciding on the combined load; we search the batch rate on top.
        candidates = self._candidate_rates(observation)

        def probe(extra_rate: float) -> float:
            # Build the problem exactly as the inner controller would,
            # without mutating its state.
            problem = self.model.slot_problem(
                arrival_rate=observation.arrival_rate + extra_rate,
                onsite=observation.onsite,
                price=observation.price,
                network_delay=observation.network_delay,
                q=self.inner.queue.length,
                V=self.inner._current_v,
                prev_on_counts=self.inner._prev_on,
            )
            return self._solver.solve(problem).objective

        rates = sorted({float(s) for s in candidates})
        objectives = {s: probe(s) for s in rates}
        base = objectives[0.0] if 0.0 in objectives else probe(0.0)

        # Update the running per-unit marginal-cost scale from this slot's
        # steepest candidate, then form the normalized pressure credit.
        s_max = rates[-1]
        if s_max > 0.0:
            marginal = max((objectives[s_max] - base) / s_max, 0.0)
            if self._marginal_ema is None:
                self._marginal_ema = marginal
            else:
                self._marginal_ema += self._ema_alpha * (marginal - self._marginal_ema)
        fullness = self.backlog.backlog / (self._arrival_ema * self.max_age_slots)
        credit = self.eta * fullness * (self._marginal_ema or 0.0)
        self._arrival_ema += self._ema_alpha * (
            self.batch_arrivals[observation.t] - self._arrival_ema
        )

        s_star = min(rates, key=lambda s: objectives[s] - credit * s)

        final_obs = SlotObservation(
            t=observation.t,
            arrival_rate=observation.arrival_rate + s_star,
            onsite=observation.onsite,
            price=observation.price,
            network_delay=observation.network_delay,
        )
        solution = self.inner.decide(final_obs)
        self._pending_service = s_star
        self.batch_served.append(s_star)
        return solution

    def observe(self, outcome: SlotOutcome) -> None:
        self.inner.observe(outcome)
        self.backlog.update(
            arrivals=self.batch_arrivals[outcome.t], served=self._pending_service
        )
        self._pending_service = 0.0

    @property
    def queue(self):
        """The carbon-deficit queue of the wrapped COCA instance."""
        return self.inner.queue

    # -------------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """Inner COCA state plus the batch queue and pressure-credit EMAs."""
        return {
            "inner": self.inner.state_dict(),
            "backlog": self.backlog.state_dict(),
            "batch_served": [float(s) for s in self.batch_served],
            "pending_service": float(self._pending_service),
            "marginal_ema": (
                None if self._marginal_ema is None else float(self._marginal_ema)
            ),
            "arrival_ema": float(self._arrival_ema),
            "probe_solver": self._solver.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self.inner.load_state_dict(state["inner"])
        self.backlog.load_state_dict(state["backlog"])
        self.batch_served = [float(s) for s in state["batch_served"]]
        self._pending_service = float(state["pending_service"])
        marginal = state["marginal_ema"]
        self._marginal_ema = None if marginal is None else float(marginal)
        self._arrival_ema = float(state["arrival_ema"])
        self._solver.load_state_dict(state["probe_solver"])

    def series(self) -> dict[str, list]:
        """The inner COCA's histories."""
        return self.inner.series()

    def load_series(self, series: dict[str, list]) -> None:
        """Restore the inner COCA's histories."""
        self.inner.load_series(series)

    def set_solve_deadline(self, budget_ms: float | None) -> None:
        """Forward the budget to both the probe solver and the inner COCA."""
        self.inner.set_solve_deadline(budget_ms)
        if hasattr(self._solver, "deadline_ms"):
            self._solver.deadline_ms = budget_ms

    def name(self) -> str:
        return "COCA+batch"
