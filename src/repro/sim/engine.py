"""The slot-driven simulator.

Runs a :class:`~repro.core.controller.Controller` over an
:class:`~repro.sim.environment.Environment` one slot at a time, exactly
mirroring the paper's information structure:

1. at the start of slot ``t`` the controller sees (predicted workload,
   on-site renewables, price) and commits a fleet action;
2. the *actual* workload arrives and is served by the committed
   configuration -- when prediction and reality differ, per-server loads are
   rescaled proportionally onto the committed speeds, clipped at the
   utilization cap (any residual is recorded as dropped load, which never
   occurs under the paper's overestimation regime ``phi >= 1``);
3. realized power, costs, brown energy, and switching energy are billed;
4. the controller observes the outcome, including the off-site supply
   ``f(t)`` realized only now (COCA updates its deficit queue here).

Steps 2 and 3 run in (profile, level) class space.  Every engine and
fallback hands its decision over as a
:class:`~repro.cluster.fleet.FleetAction`: per-group speed levels plus the
load split as :class:`~repro.cluster.fleet.ClassRows` -- the servers on
and the per-server load of each class with servers on, one row for the
paper's 200 identical groups.  :func:`realize_action` rescales the rows,
and :meth:`~repro.solvers.problem.SlotProblem.evaluate` bills them in one
pass.  The per-group levels serve what reads groups: the next slot's
switching charge, and a fault run's fallback and checkpoints, which keep
the last realized levels.

The per-slot arithmetic lives in :class:`SlotRunner` so two drivers can
share it verbatim: :func:`simulate` (the offline batch loop, which owns the
whole horizon up front) and the :mod:`repro.serve` control service (which
feeds slots one at a time as live signals arrive).  Anything the batch path
computes, the serving path computes through the *same* code, which is what
makes ``repro serve --source replay`` bit-identical to ``repro run`` by
construction rather than by testing alone.
"""

from __future__ import annotations

import time

import numpy as np

from ..cluster.fleet import ClassRows, FleetAction
from ..core.config import DataCenterModel
from ..core.controller import Controller, SlotOutcome
from ..solvers.deadline import DeadlineExceededError
from ..solvers.messaging import BusTimeoutError
from ..solvers.problem import InfeasibleError
from ..state.checkpoint import Checkpoint, CheckpointError, CheckpointWriter
from ..state.serialize import decode_array, encode_array, environment_fingerprint
from ..telemetry import Telemetry, coerce
from .environment import Environment
from .metrics import SimulationRecord

__all__ = ["simulate", "realize_action", "SlotRunner"]

#: Per-slot record columns every run accumulates (checkpoint layout).
RECORD_COLUMNS = (
    "it_power",
    "facility_power",
    "brown_energy",
    "electricity_cost",
    "delay_cost",
    "cost",
    "switching_energy",
    "arrival_predicted",
    "arrival_actual",
    "served",
    "dropped",
    "active_servers",
)


def _new_rows(series: dict, logged: dict) -> dict:
    """``{name: {"from": n, "rows": rows[n:]}}`` for every series, where
    ``n`` is the row count ``logged`` says the checkpoint log holds;
    marks every row logged."""
    out = {}
    for name, rows in series.items():
        start = logged.get(name, 0)
        out[name] = {"from": start, "rows": rows[start:]}
        logged[name] = len(rows)
    return out


def realize_action(
    model: DataCenterModel,
    action: FleetAction,
    actual_arrival: float,
    planned_arrival: float,
    *,
    failed_groups: "frozenset[int] | set[int] | None" = None,
) -> tuple[FleetAction, float]:
    """Map a planned action onto the realized arrival rate, in class space.

    Returns ``(realized_action, dropped)``.  Loads scale by ``actual /
    planned`` on the committed speeds; scaling *up* is capped at ``gamma *
    speed`` per server, load over the caps goes to the headroom left, pro
    rata, and load that still cannot be placed is dropped (recorded, so
    experiments can verify it stays zero).  A plan that serves nothing
    spreads the arrival pro rata to capacity.

    ``failed_groups`` enforces physical reality under fault injection:
    servers in failed groups cannot run whatever the plan said, so their
    levels are forced off and their load joins the redistribution.  The
    controllers here already plan failed groups off; a plan that does not
    has its rows re-counted from the masked levels at the same class
    loads.

    Every group of a row carries the same per-server load before and
    after, so the arithmetic runs over the few rows, not the groups.
    """
    fleet = model.fleet
    levels = action.levels
    rows = action.rows
    if failed_groups:
        failed = sorted(failed_groups)
        if (levels[failed] >= 0).any():
            levels = levels.copy()
            levels[failed] = -1
            rows = ClassRows.of(fleet, levels, dict(zip(rows.classes, rows.loads)))
    counts = rows.counts
    if actual_arrival <= 0.0:
        return FleetAction(levels, rows._replace(loads=(0.0,) * len(counts))), 0.0

    speed = fleet.class_lists[0]
    gamma = model.gamma
    caps = [gamma * speed[k] for k in rows.classes]
    if planned_arrival > 0.0 and rows.served > 0.0:
        ratio = actual_arrival / planned_arrival
        scaled = [load * ratio for load in rows.loads]
    else:
        # Nothing was planned; spread over whatever is on, pro rata to capacity.
        total_cap = 0.0
        for n, cap in zip(counts, caps):
            total_cap += n * cap
        if total_cap <= 0.0:
            idle = rows._replace(loads=(0.0,) * len(counts))
            return FleetAction(levels, idle), actual_arrival
        share = min(actual_arrival / total_cap, 1.0)
        scaled = [cap * share for cap in caps]

    clipped = [min(x, cap) for x, cap in zip(scaled, caps)]
    served = 0.0
    for n, x in zip(counts, clipped):
        served += n * x
    shortfall = actual_arrival - served
    # Shortfalls below solver tolerance are floating-point residue of the
    # load-balance bisection, not real drops.
    tol = 1e-9 * max(actual_arrival, 1.0)
    if shortfall > tol:
        # Push the excess onto servers with headroom, pro rata.
        total_head = 0.0
        for n, x, cap in zip(counts, clipped, caps):
            total_head += n * (cap - x)
        if total_head > 0.0:
            take = min(shortfall, total_head)
            clipped = [x + take * (cap - x) / total_head for x, cap in zip(clipped, caps)]
            shortfall -= take
    dropped = shortfall if shortfall > tol else 0.0
    return FleetAction(levels, rows._replace(loads=tuple(clipped))), dropped


def _decide_degraded(
    model: DataCenterModel,
    controller: Controller,
    obs,
    policy,
    injector,
    last_levels: np.ndarray | None,
    tele: Telemetry,
):
    """One slot's decide under a degradation policy.

    Retries ``controller.decide`` on :class:`BusTimeoutError` (a lost
    protocol round is transient: the next attempt sees fresh message-fault
    draws) up to ``policy.retries`` extra times; :class:`InfeasibleError`
    is deterministic and goes straight to fallback.  When the budget is
    exhausted the policy's fallback action is committed and the controller
    is told via ``on_fallback`` so its bookkeeping stays aligned.
    """
    reason = None
    for attempt in range(policy.retries + 1):
        try:
            return controller.decide(obs), None
        except BusTimeoutError as err:
            reason = "bus_timeout"
            if attempt < policy.retries:
                policy.record(reason, fallback=False)
                if tele.enabled:
                    tele.emit(
                        "fault.solve_retry", t=obs.t, attempt=attempt + 1, error=str(err)
                    )
        except DeadlineExceededError:
            # The wall-clock budget ran out with no feasible incumbent;
            # retrying would blow the budget again, so fall back directly.
            reason = "deadline"
            break
        except InfeasibleError:
            reason = "infeasible"
            break
    failed = frozenset(injector.failed_groups)
    solution = policy.fallback(model, obs, last_levels, failed)
    policy.record(reason, fallback=True)
    if tele.enabled:
        tele.emit(
            "fault.fallback",
            t=obs.t,
            reason=reason,
            mode=solution.info.get("fallback"),
            failed_groups=sorted(failed),
        )
        tele.metrics.counter("fault.fallbacks").inc()
    controller.on_fallback(obs, solution)
    return solution, reason


class SlotRunner:
    """The per-slot execution core, one slot per :meth:`step` call.

    Owns everything :func:`simulate` used to hold in local variables: the
    record columns, the previous on-set, the last realized action, the
    injector/degradation wiring, and the checkpoint capture.  Drivers differ
    only in *when* they call :meth:`step` -- the batch loop sweeps the whole
    horizon as fast as it can, the control service paces real time and may
    stop early on a shutdown signal -- so both produce identical arithmetic
    for identical inputs.

    Construction binds telemetry and the solve deadline, :meth:`start` emits
    the run-level context and calls ``controller.start``, then an optional
    :meth:`restore` positions the runner mid-horizon from a checkpoint.
    After the final slot, :meth:`finish` emits the end-of-run events and
    assembles the :class:`SimulationRecord`.
    """

    def __init__(
        self,
        model: DataCenterModel,
        controller: Controller,
        environment: Environment,
        *,
        telemetry: Telemetry | None = None,
        faults=None,
        degradation=None,
        checkpoint: CheckpointWriter | None = None,
        solve_deadline_ms: float | None = None,
    ) -> None:
        self.model = model
        self.controller = controller
        self.environment = environment
        self.horizon = environment.horizon
        self.tele = coerce(telemetry)
        bind = getattr(controller, "bind_telemetry", None)
        if bind is not None:
            bind(self.tele)
        if solve_deadline_ms is not None:
            controller.set_solve_deadline(solve_deadline_ms)
        self.solve_deadline_ms = solve_deadline_ms
        self.checkpoint = checkpoint
        if checkpoint is not None:
            checkpoint.bind_telemetry(self.tele)

        self.injector = None
        self.policy = None
        if faults is not None:
            from ..faults import DegradationPolicy, FaultInjector, FaultSchedule

            if isinstance(faults, FaultSchedule):
                self.injector = FaultInjector(
                    faults, num_groups=model.fleet.num_groups
                )
            else:
                self.injector = faults
                if self.injector.num_groups is None:
                    self.injector.num_groups = model.fleet.num_groups
            self.injector.bind_telemetry(self.tele)
            self.injector.install(controller)
            self.policy = (
                degradation if degradation is not None else DegradationPolicy()
            )

        self.cols: dict[str, list[float]] = {name: [] for name in RECORD_COLUMNS}
        # Rows of each per-slot series the checkpoint log already holds.
        self._logged: dict[str, dict[str, int]] = {}
        self.prev_on: np.ndarray | None = None
        #: Per-group levels of the last realized action (fault runs only).
        self.last_realized: np.ndarray | None = None
        self.start_slot = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Emit the run-level context and let the controller initialize."""
        if self.tele.enabled:
            # Run-level context: monitors calibrate their bounds (capacity,
            # worst-case facility draw) from this event instead of guessing.
            self.tele.emit(
                "run.start",
                controller=self.controller.name(),
                horizon=self.horizon,
                num_servers=self.model.fleet.num_servers,
                capacity=self.model.fleet.capacity(self.model.gamma),
                max_facility_power=self.model.max_facility_power,
            )
        self.controller.start(self.environment)

    # ------------------------------------------------------------------
    def restore(self, resume_from: Checkpoint) -> int:
        """Position the runner at a checkpoint; returns the resume slot.

        A live feed's environment is refilled with the frames the log
        carries first.  The checkpoint is then validated against the
        environment (fingerprint), horizon, and controller identity before
        anything else is restored, raising :class:`CheckpointError` on any
        mismatch.
        """
        state = resume_from.state
        series = state["series"]
        load = getattr(self.environment, "load_series", None)
        if load is not None:
            load(series.get("environment", {}))
        env_crc = environment_fingerprint(self.environment)
        if int(state.get("env_crc", -1)) != env_crc:
            raise CheckpointError(
                "checkpoint was taken against a different environment "
                "(input-trace fingerprint mismatch); resuming would "
                "silently break bit-identity"
            )
        if int(state["horizon"]) != self.horizon:
            raise CheckpointError(
                f"checkpoint horizon {state['horizon']} != environment "
                f"horizon {self.horizon}"
            )
        if state["controller"]["name"] != self.controller.name():
            raise CheckpointError(
                f"checkpoint belongs to controller "
                f"{state['controller']['name']!r}, not {self.controller.name()!r}"
            )
        self.start_slot = int(resume_from.slot)
        for name, values in series["cols"].items():
            self.cols[name] = [float(x) for x in values]
        if any(len(v) != self.start_slot for v in self.cols.values()):
            raise CheckpointError("checkpoint column lengths disagree with slot")
        # A record without its own on-counts realized the controller's.
        self.prev_on = decode_array(
            state.get("prev_on", state["controller"]["state"].get("prev_on"))
        )
        # Records written before the load split moved to class rows also
        # carry the realized per-group loads; only the levels are read.
        last = state["last_realized"]
        self.last_realized = None if last is None else decode_array(last["levels"])
        self.controller.load_state_dict(state["controller"]["state"])
        self.controller.load_series(series.get("controller", {}))
        # Appending to the same log continues its series; a log of our own
        # starts with every row.
        self._logged = {}
        if self.checkpoint is not None and self.checkpoint.resume(resume_from):
            self._logged = {
                group: {name: len(rows) for name, rows in named.items()}
                for group, named in self._series().items()
            }
        if self.injector is not None and state.get("injector") is not None:
            self.injector.load_state_dict(state["injector"])
        if self.policy is not None and state.get("degradation") is not None:
            self.policy.load_state_dict(state["degradation"])
        if self.tele.enabled:
            self.tele.emit(
                "state.resume",
                slot=self.start_slot,
                horizon=self.horizon,
                path=resume_from.path,
                controller=self.controller.name(),
                **self._totals(),
            )
            self.tele.metrics.counter("state.resumes").inc()
        return self.start_slot

    def _totals(self) -> dict:
        """What the run did before :attr:`start_slot`, for the monitors of
        a resumed run, which never saw those slots' events: brown energy
        and off-site supply in MWh, and the fault and fallback counts."""
        offsite = self.environment.offsite
        totals: dict = {
            "brown": float(sum(self.cols["brown_energy"])),
            "offsite": float(sum(offsite(t) for t in range(self.start_slot))),
        }
        if self.injector is not None:
            totals["faults"] = {
                "injected": self.injector.injected,
                "suppressed": self.injector.suppressed,
                "by_kind": dict(self.injector.by_kind),
                "signals": self.injector.degraded,
                "fallbacks": self.policy.fallbacks,
                "solve_retries": self.policy.solve_retries,
            }
        return totals

    # ------------------------------------------------------------------
    def capture(self, slot: int) -> dict:
        """The checkpoint record of the run after ``slot`` slots.

        It holds the O(1) run state in full and, under ``series``, only
        the rows the record columns, the controller's series and a live
        feed's resolved frames gained since the previous capture (see
        :mod:`repro.state.checkpoint`).
        """
        controller = self.controller
        state = controller.state_dict()
        record = {
            "slot": slot,
            "horizon": self.horizon,
            "env_crc": environment_fingerprint(self.environment),
            "controller": {"name": controller.name(), "state": state},
            "series": {
                group: _new_rows(named, self._logged.setdefault(group, {}))
                for group, named in self._series().items()
            },
            "last_realized": (
                None
                if self.last_realized is None
                else {"levels": encode_array(self.last_realized)}
            ),
            "injector": None if self.injector is None else self.injector.state_dict(),
            "degradation": None if self.policy is None else self.policy.state_dict(),
            "run_id": getattr(getattr(self.tele, "tracer", None), "run_id", None),
        }
        # The realized on-counts differ from the controller's planned ones
        # only after a fallback or a masked realization; otherwise the
        # controller's copy stands for both.
        prev_on = encode_array(self.prev_on)
        if "prev_on" not in state or prev_on != state["prev_on"]:
            record["prev_on"] = prev_on
        # A live feed's resolution counts (LiveEnvironment.signals).
        signals = getattr(self.environment, "signals", None)
        if signals is not None:
            record["signals"] = dict(signals)
        return record

    def _series(self) -> dict[str, dict[str, list]]:
        """Every append-only per-slot series a record logs, by group."""
        groups = {"cols": self.cols, "controller": self.controller.series()}
        # A live feed's resolved frames (LiveEnvironment.series); a trace
        # environment has none, and its records no such group.
        frames = getattr(self.environment, "series", dict)()
        if frames:
            groups["environment"] = frames
        return groups

    def checkpoint_now(self, slot: int) -> str | None:
        """Force a checkpoint at ``slot`` regardless of cadence (shutdown)."""
        if self.checkpoint is None:
            return None
        return self.checkpoint.write(slot, self.capture(slot))

    # ------------------------------------------------------------------
    def step(self, t: int) -> None:
        """Execute slot ``t``: decide, realize, bill, observe, record.

        The slot is the root of the attribution tree: the solve timer below
        (and through it the solver's ``gsd.solve``/``enum.solve`` spans)
        nests under a ``slot`` span when a tracer is listening.  With
        telemetry off the span is the shared no-op and the arithmetic is
        untouched.
        """
        with self.tele.span("slot", t=t):
            self._step(t)

    def _step(self, t: int) -> None:
        model = self.model
        controller = self.controller
        environment = self.environment
        tele = self.tele
        injector = self.injector

        obs = environment.observation(t)
        if injector is not None:
            injector.begin_slot(t)
            obs = injector.degrade_observation(obs)
            controller.set_failed_groups(frozenset(injector.failed_groups))
        with tele.timer("sim.solve_time_s") as solve_timer:
            if injector is None:
                solution = controller.decide(obs)
            else:
                solution, _ = _decide_degraded(
                    model, controller, obs, self.policy, injector,
                    self.last_realized, tele,
                )
        actual = environment.actual_arrival(t)
        realized, dropped = realize_action(
            model,
            solution.action,
            actual,
            obs.arrival_rate,
            failed_groups=None if injector is None else injector.failed_groups,
        )
        fleet = model.fleet
        levels, rows = realized.levels, realized.rows
        if injector is not None:
            self.last_realized = levels
        realized_problem = model.slot_problem(
            arrival_rate=actual,
            onsite=obs.onsite,
            price=obs.price,
            q=0.0,
            V=1.0,
            prev_on_counts=self.prev_on,
            network_delay=obs.network_delay,
            pue_override=obs.pue,
        )
        evaluation = realized_problem.evaluate(realized)
        self.prev_on = np.where(levels >= 0, fleet.counts, 0.0)
        served = rows.served

        controller.observe(
            SlotOutcome(t=t, evaluation=evaluation, offsite=environment.offsite(t))
        )

        if tele.enabled:
            if (
                self.solve_deadline_ms is not None
                and solve_timer.elapsed * 1000.0 > self.solve_deadline_ms
            ):
                tele.emit(
                    "deadline.slot_overrun",
                    t=t,
                    budget_ms=float(self.solve_deadline_ms),
                    elapsed_ms=solve_timer.elapsed * 1000.0,
                )
                tele.metrics.counter("deadline.slot_overruns").inc()
            tele.emit(
                "slot.decision",
                t=t,
                arrival_predicted=obs.arrival_rate,
                onsite=obs.onsite,
                price=obs.price,
                objective=solution.objective,
                planned_cost=solution.cost,
                active_servers=solution.action.active_servers(fleet),
                solve_time_s=solve_timer.elapsed,
            )
            tele.emit(
                "slot.outcome",
                t=t,
                cost=evaluation.cost,
                electricity_cost=evaluation.electricity_cost,
                delay_cost=evaluation.delay_cost,
                brown_energy=evaluation.brown_energy,
                switching_energy=evaluation.switching_energy,
                arrival_actual=actual,
                served=served,
                dropped=dropped,
            )
            if dropped > 0.0:
                tele.emit("slot.dropped", t=t, dropped=dropped)
                tele.metrics.counter("sim.dropped_load").inc(dropped)
            metrics = tele.metrics
            metrics.counter("sim.slots").inc()
            metrics.counter("sim.cost_dollars").inc(evaluation.cost)
            metrics.counter("sim.brown_energy_mwh").inc(evaluation.brown_energy)
            metrics.gauge("sim.brown_energy_rate").set(evaluation.brown_energy)
            # Per-slot attribution gauges: a /metrics scrape shows what the
            # *latest* slot spent and why (cost split, carbon draw, load
            # fate), alongside the cumulative counters above and the
            # deficit-queue gauge set by the controller.
            metrics.gauge("sim.slot").set(t)
            metrics.gauge("sim.slot_cost_dollars").set(evaluation.cost)
            metrics.gauge("sim.slot_electricity_cost_dollars").set(
                evaluation.electricity_cost
            )
            metrics.gauge("sim.slot_delay_cost_dollars").set(evaluation.delay_cost)
            metrics.gauge("sim.slot_brown_energy_mwh").set(evaluation.brown_energy)
            metrics.gauge("sim.slot_switching_energy_mwh").set(
                evaluation.switching_energy
            )
            metrics.gauge("sim.slot_served_load").set(served)
            metrics.gauge("sim.slot_dropped_load").set(dropped)
            metrics.gauge("sim.slot_solve_time_s").set(solve_timer.elapsed)

        cols = self.cols
        cols["it_power"].append(evaluation.it_power)
        cols["facility_power"].append(evaluation.facility_power)
        cols["brown_energy"].append(evaluation.brown_energy)
        cols["electricity_cost"].append(evaluation.electricity_cost)
        cols["delay_cost"].append(evaluation.delay_cost)
        cols["cost"].append(evaluation.cost)
        cols["switching_energy"].append(evaluation.switching_energy)
        cols["arrival_predicted"].append(obs.arrival_rate)
        cols["arrival_actual"].append(actual)
        cols["served"].append(served)
        cols["dropped"].append(dropped)
        cols["active_servers"].append(rows.active_servers)

        if self.checkpoint is not None:
            self.checkpoint.maybe_write(t + 1, lambda: self.capture(t + 1))

    # ------------------------------------------------------------------
    def finish(self) -> SimulationRecord:
        """Emit end-of-run events and assemble the record."""
        injector, policy, tele = self.injector, self.policy, self.tele
        cols = self.cols
        if injector is not None and tele.enabled:
            tele.emit(
                "fault.summary",
                **injector.summary(),
                degradation=policy.stats(),
            )
        if tele.enabled:
            tele.emit(
                "run.end",
                controller=self.controller.name(),
                slots=self.horizon,
                cost=float(sum(cols["cost"])),
                brown_energy=float(sum(cols["brown_energy"])),
                dropped=float(sum(cols["dropped"])),
            )

        arrays = {k: np.asarray(v, dtype=np.float64) for k, v in cols.items()}
        controller = self.controller
        environment = self.environment
        queue = np.asarray(
            getattr(controller, "queue_at_decision", []), dtype=np.float64
        )
        v_applied = np.asarray(getattr(controller, "v_history", []), dtype=np.float64)
        return SimulationRecord(
            controller=controller.name(),
            onsite=environment.portfolio.onsite.values.copy(),
            offsite=environment.portfolio.offsite.values.copy(),
            price=environment.price.values.copy(),
            queue=queue,
            v_applied=v_applied,
            **arrays,
        )


def simulate(
    model: DataCenterModel,
    controller: Controller,
    environment: Environment,
    *,
    telemetry: Telemetry | None = None,
    faults=None,
    degradation=None,
    checkpoint: CheckpointWriter | None = None,
    resume_from: Checkpoint | None = None,
    solve_deadline_ms: float | None = None,
    slot_sleep_s: float = 0.0,
) -> SimulationRecord:
    """Run ``controller`` over the full budgeting period.

    Returns the :class:`SimulationRecord` with every per-slot outcome; the
    controller's own diagnostics (deficit queue, applied ``V``) are attached
    when the controller exposes ``queue_at_decision`` / ``v_history``.

    ``telemetry`` attaches the run's observability: ``slot.decision`` /
    ``slot.outcome`` / ``slot.dropped`` events, a ``sim.solve_time_s``
    histogram around each decision, and run counters.  The handle is also
    bound onto the controller (which propagates it to its P3 solver), so one
    argument instruments the whole stack.  The default is a no-op and leaves
    results bit-identical.

    ``faults`` opts into chaos: a :class:`~repro.faults.FaultSchedule` (or a
    pre-built :class:`~repro.faults.FaultInjector`) whose timed events and
    message faults are injected as the run progresses, with ``degradation``
    (a :class:`~repro.faults.DegradationPolicy`, default constructed when
    omitted) governing what runs when a slot solve cannot complete.  An
    empty schedule — and the default ``faults=None`` — leaves every result
    bit-identical to the uninstrumented run.

    ``checkpoint`` attaches a :class:`~repro.state.CheckpointWriter`: at
    the writer's cadence the run state (controller/solver state incl. RNG
    streams, fault cursor, switching memory, and the per-slot rows added
    since the previous record) is appended to its log, so a killed process
    can continue from
    ``resume_from`` -- a :class:`~repro.state.Checkpoint` -- and the
    remaining slots replay **bit-identically** to an uninterrupted run,
    SIGKILL included.
    The checkpoint is validated against this call's environment
    (fingerprint), horizon, and controller before anything is restored.

    ``solve_deadline_ms`` arms a per-slot wall-clock solve budget on the
    controller (see :class:`~repro.solvers.SolveDeadline`): on expiry the
    iterative engines return their best feasible incumbent, and a slot
    whose solve still overran the budget is flagged with a
    ``deadline.slot_overrun`` event.  Deadline expiry depends on wall-clock
    speed, so it intentionally breaks the bit-replay contract.

    ``slot_sleep_s`` sleeps after each slot -- a testing aid that slows a
    run down (so a crash harness can kill it mid-horizon) without touching
    any arithmetic or RNG; results stay bit-identical.
    """
    runner = SlotRunner(
        model,
        controller,
        environment,
        telemetry=telemetry,
        faults=faults,
        degradation=degradation,
        checkpoint=checkpoint,
        solve_deadline_ms=solve_deadline_ms,
    )
    runner.start()
    if resume_from is not None:
        runner.restore(resume_from)
    for t in range(runner.start_slot, runner.horizon):
        runner.step(t)
        if slot_sleep_s > 0.0:
            time.sleep(slot_sleep_s)
    return runner.finish()
