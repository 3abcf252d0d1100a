"""The serving loop: one :class:`~repro.sim.engine.SlotRunner` step per slot,
forever (or until the horizon, a stop signal, or ``--max-slots``).

:class:`ControlService` composes the pieces the previous subsystems built:

- the **runner** executes each slot through the *same* code as batch
  ``repro run`` (bit-identity by construction);
- the **resolver** turns the signal feed into exactly one complete frame
  per slot, degrading losses through the fault injector;
- the **environment** holds each resolved frame before the slot executes,
  and the runner's checkpoint records carry a live feed's frames with the
  slots they produced, so a SIGKILL loses at most the in-flight slot;
- the **board** (and its HTTP view) is refreshed once per slot; the
  solve-latency percentiles are computed only when ``/status`` is read;
- the **dashboard** re-renders every N slots from a bounded ring of recent
  events, so operators get a live HTML health report without unbounded
  memory;
- **alerts** stream to their sinks the moment monitors raise them (the
  suite taps the telemetry chain; nothing here is replay-after-the-fact).

Stopping is cooperative: the loop checks ``stop_event`` between slots and
while pacing, writes a *forced* checkpoint at the exact slot boundary, and
reports where it stopped -- which is what makes SIGTERM + ``repro resume``
(or ``repro serve --resume``) complete the horizon bit-identically.
"""

from __future__ import annotations

import threading
import time as _time
from dataclasses import dataclass
from typing import Callable

from ..sim.engine import SlotRunner
from ..sim.metrics import SimulationRecord
from .environment import LiveEnvironment
from .staleness import StalenessResolver
from .status import StatusBoard

__all__ = ["ControlService", "ServiceResult"]


@dataclass(frozen=True)
class ServiceResult:
    """How a service run ended.

    ``status`` is ``"completed"`` (horizon finished; ``record`` holds the
    assembled :class:`SimulationRecord`) or ``"stopped"`` (stop signal or
    ``max_slots``; ``stopped_at`` is the first unexecuted slot, which is
    exactly the slot the forced checkpoint resumes into).
    """

    status: str
    stopped_at: int | None = None
    record: SimulationRecord | None = None
    checkpoint_path: str | None = None


class ControlService:
    """Drives a :class:`SlotRunner` from a resolved signal feed."""

    def __init__(
        self,
        runner: SlotRunner,
        resolver: StalenessResolver,
        *,
        board: StatusBoard | None = None,
        suite=None,
        budget_mwh: float | None = None,
        slot_period_s: float = 0.0,
        max_slots: int | None = None,
        dashboard_out: str | None = None,
        dashboard_every: int = 0,
        recent_events=None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.runner = runner
        self.resolver = resolver
        self.board = board if board is not None else StatusBoard()
        self.suite = suite
        self.budget_mwh = budget_mwh
        self.slot_period_s = float(slot_period_s)
        self.max_slots = max_slots
        self.dashboard_out = dashboard_out
        self.dashboard_every = int(dashboard_every)
        #: Bounded buffer of recent events backing the dashboard renders
        #: (anything with a ``.events`` list; see RingBufferTracer).
        self.recent_events = recent_events
        self._clock = clock if clock is not None else _time.monotonic
        self.slots_run = 0
        # Running board totals over the first ``_summed`` record rows, so
        # a board refresh adds only the slots run since the last one.
        self._summed = 0
        self._brown = 0.0
        self._cost = 0.0
        self.board.compute("solver_latency", self._solver_latency)

    def _solver_latency(self) -> dict:
        """The board's ``solver_latency`` block, built when ``/status`` is
        read: the percentiles sort the whole latency reservoir, which would
        cost a third of a serve slot if refreshed every slot."""
        metrics = self.runner.tele.metrics
        if "sim.solve_time_s" not in metrics:  # read-only: create nothing
            return {}
        hist = metrics.histogram("sim.solve_time_s")
        if not hist.count:
            return {}
        p50, p90, p99 = hist.percentiles((50, 90, 99))
        return {
            "count": hist.count,
            "p50_ms": p50 * 1000.0,
            "p90_ms": p90 * 1000.0,
            "p99_ms": p99 * 1000.0,
            "max_ms": hist.max * 1000.0,
        }

    # ------------------------------------------------------------------
    def _render_dashboard(self) -> None:
        if not self.dashboard_out or self.recent_events is None:
            return
        from ..monitor.dashboard import write_dashboard

        write_dashboard(
            list(self.recent_events.events),
            self.dashboard_out,
            suite=self.suite,
            title=f"repro serve (slot {self.runner.start_slot + self.slots_run})",
        )

    def _update_board(self, slot: int, state: str) -> None:
        runner = self.runner
        cols = runner.cols
        for i in range(self._summed, len(cols["cost"])):
            self._brown += cols["brown_energy"][i]
            self._cost += cols["cost"][i]
        self._summed = len(cols["cost"])
        brown = float(self._brown)
        cost = float(self._cost)
        alerts: dict = {"total": 0}
        if self.suite is not None:
            channel = self.suite.channel
            alerts = {
                "total": channel.count(),
                "info": channel.count("info"),
                "warning": channel.count("warning"),
                "critical": channel.count("critical"),
                "worst": channel.worst_severity,
            }
        checkpointing = {}
        if runner.checkpoint is not None:
            checkpointing = {
                "dir": runner.checkpoint.directory,
                "every": runner.checkpoint.every,
                "written": runner.checkpoint.written,
            }
        self.board.update(
            state=state,
            slot=slot,
            horizon=runner.horizon,
            controller=runner.controller.status_dict(),
            carbon={
                "brown_mwh": brown,
                "budget_mwh": self.budget_mwh,
                "headroom_mwh": (
                    None if self.budget_mwh is None else self.budget_mwh - brown
                ),
            },
            cost_dollars=cost,
            alerts=alerts,
            signals=self.resolver.stats(),
            checkpoint=checkpointing,
        )

    # ------------------------------------------------------------------
    def _stop(self, slot: int, reason: str) -> ServiceResult:
        """Forced checkpoint at the slot boundary, then report."""
        path = self.runner.checkpoint_now(slot)
        tele = self.runner.tele
        if tele.enabled:
            tele.emit("serve.stop", slot=slot, reason=reason, checkpoint=path)
        self._update_board(slot, "stopped")
        self._render_dashboard()
        return ServiceResult(status="stopped", stopped_at=slot, checkpoint_path=path)

    def run(self, stop_event: threading.Event | None = None) -> ServiceResult:
        """Serve slots until the horizon, a stop, or ``max_slots``; the
        checkpoint log is released however the run ends."""
        try:
            return self._run(
                stop_event if stop_event is not None else threading.Event()
            )
        finally:
            self.runner.close()

    def _run(self, stop_event: threading.Event) -> ServiceResult:
        runner = self.runner
        tele = runner.tele
        if tele.enabled:
            tele.emit(
                "serve.start",
                slot=runner.start_slot,
                horizon=runner.horizon,
                source=self.resolver.source.describe(),
                slot_period_s=self.slot_period_s,
            )
        self._update_board(runner.start_slot, "running")
        period = self.slot_period_s
        epoch = self._clock() if period > 0 else 0.0

        for t in range(runner.start_slot, runner.horizon):
            if stop_event.is_set():
                return self._stop(t, "signal")
            if self.max_slots is not None and self.slots_run >= self.max_slots:
                return self._stop(t, "max_slots")

            frame = self.resolver.resolve(t)
            # The slot's checkpoint record carries this frame (live feeds);
            # a resume re-resolves every later slot, the in-flight one
            # included, from the source.
            if isinstance(runner.environment, LiveEnvironment):
                runner.environment.append(frame)

            runner.step(t)
            self.slots_run += 1
            self._update_board(t + 1, "running")
            if self.dashboard_every and (t + 1) % self.dashboard_every == 0:
                self._render_dashboard()

            if period > 0:
                # Pace against the epoch (not per-slot sleeps), so slow
                # solves borrow from the idle time instead of drifting.
                deadline = epoch + (self.slots_run) * period
                remaining = deadline - self._clock()
                if remaining > 0 and stop_event.wait(remaining):
                    return self._stop(t + 1, "signal")

        record = runner.finish()
        if tele.enabled:
            tele.emit("serve.complete", slots=runner.horizon)
        self._update_board(runner.horizon, "completed")
        self._render_dashboard()
        return ServiceResult(status="completed", record=record)
