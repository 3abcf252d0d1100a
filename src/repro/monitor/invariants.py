"""Invariant monitors: the run-time checks of the paper's guarantees.

Each monitor watches one property a healthy COCA run must satisfy:

=========================  =============================================
:class:`QueueBoundMonitor`       deficit queue stays under the Lyapunov
                                 bound ``V w_max + y_max``
:class:`BudgetTrajectoryMonitor` cumulative brown energy tracks the
                                 ``alpha``-scaled renewable budget
:class:`LoadConservationMonitor` served + dropped = arrivals; served
                                 never exceeds capacity
:class:`DroppedLoadMonitor`      dropped load stays under thresholds
:class:`SlotSanityMonitor`       per-slot accounting identities hold
=========================  =============================================

All of them self-calibrate from the ``run.start`` / ``controller.config``
events the instrumented stack emits, so replaying a bare trace works; any
constant passed to the constructor (e.g. ``y_max`` from
:func:`repro.core.bounds.lyapunov_constants`) overrides the trace-derived
value.
"""

from __future__ import annotations

from .alerts import AlertChannel
from .base import HealthMonitor

__all__ = [
    "QueueBoundMonitor",
    "BudgetTrajectoryMonitor",
    "LoadConservationMonitor",
    "DroppedLoadMonitor",
    "SlotSanityMonitor",
]


class QueueBoundMonitor(HealthMonitor):
    """Deficit-queue boundedness: ``q(t) <= slack * (V w_max + y_max)``.

    The P3 objective is ``V g + q y``: once ``q`` exceeds ``V w_max`` (with
    ``w_max`` the peak electricity price in $/MWh), avoiding one MWh of
    brown energy is always worth its worst-case cost, so the queue can
    overshoot by at most one slot's worst-case draw ``y_max``.  A queue
    above this level means the controller is *not* tracking the Theorem 2
    budget recursion -- a broken queue update, an infeasible budget, or a
    mis-scaled ``V``.

    ``w_max`` / ``y_max`` default to the running maxima observed in the
    trace (peak price from ``slot.decision``, ``max_facility_power`` from
    ``run.start``, peak per-slot brown as a fallback), so the bound is
    conservative and self-calibrating.
    """

    name = "queue-bound"
    description = "deficit queue q(t) <= V*w_max + y_max (Theorem 2 recursion)"
    kinds = ("queue.update", "slot.decision", "run.start")

    def __init__(
        self,
        *,
        w_max: float | None = None,
        y_max: float | None = None,
        slack: float = 1.05,
    ) -> None:
        super().__init__()
        if slack <= 0:
            raise ValueError("slack must be positive")
        self._w_max_given = w_max
        self._y_max_given = y_max
        self.slack = slack
        self._w_max_seen = 0.0
        self._y_max_seen = 0.0
        self.worst_ratio = 0.0

    def _w_max(self) -> float:
        return self._w_max_given if self._w_max_given is not None else self._w_max_seen

    def _y_max(self) -> float:
        return self._y_max_given if self._y_max_given is not None else self._y_max_seen

    def observe(self, event: dict, alerts: AlertChannel) -> None:
        # Hot path (slot.decision + queue.update every slot): no helper
        # calls, one bound computation, alert text only on violation.
        kind = event["kind"]
        if kind == "slot.decision":
            price = float(event.get("price", 0.0))
            if price > self._w_max_seen:
                self._w_max_seen = price
            return
        if kind == "run.start":
            power = float(event.get("max_facility_power", 0.0))
            if power > self._y_max_seen:
                self._y_max_seen = power
            return
        # queue.update: each one COCA emits carries the slot's V
        v = event.get("v")
        brown = float(event.get("brown", 0.0))
        if brown > self._y_max_seen:
            self._y_max_seen = brown
        w_max = self._w_max_given
        if w_max is None:
            w_max = self._w_max_seen
        if v is None or w_max <= 0.0:
            return  # not enough context yet to judge
        y_max = self._y_max_given
        if y_max is None:
            y_max = self._y_max_seen
        q = float(event.get("after", 0.0))
        bound = self.slack * (v * w_max + y_max)
        self.checked += 1
        if bound > 0 and q / bound > self.worst_ratio:
            self.worst_ratio = q / bound
        if q > bound:
            self.violations += 1
            alerts.raise_alert(
                "critical",
                self.name,
                f"deficit queue {q:.4g} MWh exceeds Lyapunov bound {bound:.4g} "
                f"(V={v:.4g}, w_max={self._w_max():.4g}, y_max={self._y_max():.4g})",
                t=event.get("t"),
                key=f"{self.name}:over-bound",
            )

    def detail(self) -> str:
        if not self.checked:
            return "no queue updates with a usable V/w_max seen"
        return f"worst q/bound = {self.worst_ratio:.3f} (slack {self.slack:g})"


class BudgetTrajectoryMonitor(HealthMonitor):
    """Cumulative brown energy vs. the ``alpha``-scaled renewable budget.

    Tracks ``sum_t y(t)`` against ``alpha * sum_t f(t) + t*z`` (the budget
    released so far, off-site supply plus prorated RECs).  Transient
    excursions are what the deficit queue *exists* to absorb -- while the
    queue is short, brown energy is cheap in the P3 objective and the
    controller legitimately front-loads it -- so the trajectory check fires
    a **warning** only when cumulative brown exceeds ``(1 + tolerance)``
    times the released budget after a warm-up period (the generous default
    tolerance accommodates that front-loading); ending the run above
    ``(1 + final_tolerance)`` of the total budget -- carbon neutrality
    actually missed -- is **critical**.
    """

    name = "budget-trajectory"
    description = "cumulative brown energy tracks alpha * renewable budget"
    kinds = ("queue.update", "controller.config", "state.resume")

    def __init__(
        self,
        *,
        alpha: float | None = None,
        tolerance: float = 0.5,
        final_tolerance: float = 0.05,
        warmup_slots: int = 24,
    ) -> None:
        super().__init__()
        self._alpha_given = alpha
        self._alpha_seen: float | None = None
        self.tolerance = tolerance
        self.final_tolerance = final_tolerance
        self.warmup_slots = warmup_slots
        self.cum_brown = 0.0
        self.cum_budget = 0.0
        self.slots = 0
        self.worst_excess = 0.0
        self._rec_per_slot = 0.0

    @property
    def alpha(self) -> float:
        if self._alpha_given is not None:
            return self._alpha_given
        return self._alpha_seen if self._alpha_seen is not None else 1.0

    def observe(self, event: dict, alerts: AlertChannel) -> None:
        kind = event["kind"]
        if kind != "queue.update":
            if kind == "state.resume":
                # A resumed run starts from the budget the slots before it
                # drew and released, so its verdicts are the whole run's.
                self.slots = int(event["slot"])
                self.cum_brown = float(event.get("brown", 0.0))
                self.cum_budget = (
                    self.alpha * float(event.get("offsite", 0.0))
                    + self.slots * self._rec_per_slot
                )
            else:  # controller.config
                if "alpha" in event:
                    self._alpha_seen = float(event["alpha"])
                self._rec_per_slot = float(event.get("rec_per_slot", 0.0))
            return
        brown = float(event.get("brown", 0.0))
        offsite = float(event.get("offsite", 0.0))
        z = float(event.get("rec_per_slot", 0.0))
        self.cum_brown += brown
        # rec_per_slot is already alpha-scaled by the queue (z = alpha*Z/J).
        self.cum_budget += self.alpha * offsite + z
        self.slots += 1
        if self.cum_budget > 0:
            self.worst_excess = max(
                self.worst_excess, self.cum_brown / self.cum_budget - 1.0
            )
        if self.slots <= self.warmup_slots or self.cum_budget <= 0:
            return
        self.checked += 1
        if self.cum_brown > (1.0 + self.tolerance) * self.cum_budget:
            self.violations += 1
            alerts.raise_alert(
                "warning",
                self.name,
                f"cumulative brown {self.cum_brown:.4g} MWh is "
                f"{100 * (self.cum_brown / self.cum_budget - 1):.1f}% over the "
                f"released budget {self.cum_budget:.4g} MWh",
                t=event.get("t"),
                key=f"{self.name}:trajectory",
            )

    def finalize(self, alerts: AlertChannel) -> None:
        if self.slots == 0 or self.cum_budget <= 0:
            return
        self.checked += 1
        if self.cum_brown > (1.0 + self.final_tolerance) * self.cum_budget:
            self.violations += 1
            alerts.raise_alert(
                "critical",
                self.name,
                f"run ended {100 * (self.cum_brown / self.cum_budget - 1):.1f}% over "
                f"the carbon budget ({self.cum_brown:.4g} of {self.cum_budget:.4g} MWh)",
                key=f"{self.name}:final",
            )

    def detail(self) -> str:
        if self.slots == 0:
            return "no queue updates seen"
        return (
            f"brown {self.cum_brown:.4g} / budget {self.cum_budget:.4g} MWh "
            f"(worst excess {100 * self.worst_excess:+.1f}%, alpha {self.alpha:g})"
        )


class LoadConservationMonitor(HealthMonitor):
    """Per-slot load conservation and capacity feasibility.

    From ``slot.outcome``: served + dropped must equal the actual arrivals
    (no load silently created or destroyed), and served load must fit the
    fleet's capped capacity from ``run.start``.
    """

    name = "load-conservation"
    description = "served + dropped = arrivals; served <= capacity"
    kinds = ("slot.outcome", "run.start")

    def __init__(self, *, capacity: float | None = None, rtol: float = 1e-6) -> None:
        super().__init__()
        self._capacity_given = capacity
        self._capacity_seen: float | None = None
        self.rtol = rtol
        self.worst_gap = 0.0

    @property
    def capacity(self) -> float | None:
        if self._capacity_given is not None:
            return self._capacity_given
        return self._capacity_seen

    def observe(self, event: dict, alerts: AlertChannel) -> None:
        # Hot path (3 checks per slot): violation messages are formatted
        # only inside the failing branch.
        kind = event["kind"]
        if kind == "run.start":
            if "capacity" in event:
                self._capacity_seen = float(event["capacity"])
            return
        rtol = self.rtol
        # slot.outcome
        arrival = float(event.get("arrival_actual", 0.0))
        served = float(event.get("served", 0.0))
        dropped = float(event.get("dropped", 0.0))
        gap = served + dropped - arrival
        if gap < 0.0:
            gap = -gap
        self.checked += 1
        if gap > self.worst_gap:
            self.worst_gap = gap
        if gap > rtol * max(arrival, 1.0):
            self.violations += 1
            alerts.raise_alert(
                "critical",
                self.name,
                f"load not conserved: served {served:.6g} + dropped "
                f"{dropped:.6g} != arrivals {arrival:.6g}",
                t=event.get("t"),
                key=f"{self.name}:conservation",
            )
        cap = self.capacity
        if cap is not None:
            self.checked += 1
            if served > cap * (1.0 + rtol):
                self.violations += 1
                alerts.raise_alert(
                    "critical",
                    self.name,
                    f"served load {served:.6g} exceeds fleet capacity {cap:.6g}",
                    t=event.get("t"),
                    key=f"{self.name}:capacity",
                )

    def detail(self) -> str:
        if not self.checked:
            return "no outcome events seen"
        return f"worst conservation gap {self.worst_gap:.3g} req/s (rtol {self.rtol:g})"


class DroppedLoadMonitor(HealthMonitor):
    """Dropped-load thresholds, fault-aware.

    Under the paper's overestimation regime (``phi >= 1``) no load is ever
    dropped, so *any* per-slot drop beyond ``slot_threshold`` (default: any
    drop at all) raises a warning; a run whose total dropped fraction
    exceeds ``run_threshold`` ends with a critical alert.

    Chaos runs are the exception: while ``fault.inject`` events report
    server groups down, the capacity to serve everything may simply not
    exist, so drops in those slots are *reported* (info alert) but excused
    from the violation count and the run threshold -- only load dropped at
    full capacity indicts the controller.
    """

    name = "dropped-load"
    description = "dropped load stays within per-slot and per-run thresholds"
    kinds = ("slot.outcome", "fault.inject")

    def __init__(
        self, *, slot_threshold: float = 0.0, run_threshold: float = 0.01
    ) -> None:
        super().__init__()
        self.slot_threshold = slot_threshold
        self.run_threshold = run_threshold
        self.total_dropped = 0.0
        self.total_arrival = 0.0
        self.degraded_dropped = 0.0
        self._groups_down = 0

    def observe(self, event: dict, alerts: AlertChannel) -> None:
        # Hot path (every slot.outcome): the common dropped == 0 case does
        # two adds and returns.
        if event["kind"] == "fault.inject":
            # Emitted at the top of each affected slot, before that slot's
            # outcome, carrying the post-event set of failed groups.
            self._groups_down = len(event.get("failed_groups", ()))
            return
        arrival = float(event.get("arrival_actual", 0.0))
        dropped = float(event.get("dropped", 0.0))
        self.total_dropped += dropped
        self.total_arrival += arrival
        self.checked += 1
        if dropped <= 0.0:
            return
        fraction = dropped / arrival if arrival > 0 else 1.0
        if self._groups_down > 0:
            self.degraded_dropped += dropped
            alerts.raise_alert(
                "info",
                self.name,
                f"dropped {dropped:.6g} req/s ({100 * fraction:.2f}%) with "
                f"{self._groups_down} server group(s) down",
                t=event.get("t"),
                key=f"{self.name}:degraded",
            )
            return
        if fraction > self.slot_threshold:
            self.violations += 1
            alerts.raise_alert(
                "warning",
                self.name,
                f"dropped {dropped:.6g} req/s ({100 * fraction:.2f}% of arrivals)",
                t=event.get("t"),
                key=f"{self.name}:slot",
            )

    def finalize(self, alerts: AlertChannel) -> None:
        if self.total_arrival <= 0:
            return
        blamed = self.total_dropped - self.degraded_dropped
        fraction = blamed / self.total_arrival
        if fraction > self.run_threshold:
            self.violations += 1
            alerts.raise_alert(
                "critical",
                self.name,
                f"run dropped {100 * fraction:.2f}% of all load at full "
                f"capacity (threshold {100 * self.run_threshold:.2f}%)",
                key=f"{self.name}:run",
            )

    def detail(self) -> str:
        if self.total_arrival <= 0:
            return "no arrivals seen"
        out = (
            f"dropped {self.total_dropped:.4g} of {self.total_arrival:.4g} req/s "
            f"({100 * self.total_dropped / self.total_arrival:.3f}%)"
        )
        if self.degraded_dropped > 0:
            out += f", {self.degraded_dropped:.4g} during group outages"
        return out


class SlotSanityMonitor(HealthMonitor):
    """Per-slot accounting identities.

    ``slot.outcome`` must satisfy ``cost = electricity_cost + delay_cost``
    and carry non-negative cost and energy components -- a violated
    identity means the evaluation pipeline (or a hand-edited trace) is
    corrupt, so everything downstream is untrustworthy.
    """

    name = "slot-sanity"
    description = "cost = electricity + delay; costs and energies non-negative"
    kinds = ("slot.outcome",)

    def __init__(self, *, rtol: float = 1e-6) -> None:
        super().__init__()
        self.rtol = rtol

    _SIGNED_FIELDS = (
        "cost",
        "electricity_cost",
        "delay_cost",
        "brown_energy",
        "switching_energy",
        "served",
    )

    def observe(self, event: dict, alerts: AlertChannel) -> None:
        # Hot path (every slot.outcome): one pass over the fields, alert
        # text built only when an identity actually breaks.
        cost = float(event.get("cost", 0.0))
        elec = float(event.get("electricity_cost", 0.0))
        delay = float(event.get("delay_cost", 0.0))
        self.checked += 2
        if abs(cost - (elec + delay)) > self.rtol * max(abs(cost), 1.0):
            self.violations += 1
            alerts.raise_alert(
                "critical",
                self.name,
                f"cost {cost:.6g} != electricity {elec:.6g} + delay {delay:.6g}",
                t=event.get("t"),
                key=f"{self.name}:decomposition",
            )
        if (
            cost < 0.0
            or elec < 0.0
            or delay < 0.0
            or float(event.get("brown_energy", 0.0)) < 0.0
            or float(event.get("switching_energy", 0.0)) < 0.0
            or float(event.get("served", 0.0)) < 0.0
        ):
            negatives = [
                field
                for field in self._SIGNED_FIELDS
                if float(event.get(field, 0.0)) < 0.0
            ]
            self.violations += 1
            alerts.raise_alert(
                "critical",
                self.name,
                f"negative outcome fields: {', '.join(negatives)}",
                t=event.get("t"),
                key=f"{self.name}:negative",
            )

    def detail(self) -> str:
        return f"{self.checked} identity checks (rtol {self.rtol:g})"
