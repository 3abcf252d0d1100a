"""The slot loop: one :class:`~repro.sim.engine.SlotRunner` step per slot,
until the horizon, a stop signal, or ``max_slots``.

Every run drives its runner through :class:`ControlService`:
:func:`~repro.sim.engine.simulate`, and ``repro run`` and ``repro resume``
over every signal source.  The pieces around the runner are optional, and
a replay of the scenario traces takes none of them:

- the **resolver** (:class:`~repro.serve.StalenessResolver`) turns a live
  feed into exactly one complete frame per slot, degrading losses through
  the fault injector; each resolved frame is appended to the runner's
  :class:`~repro.serve.LiveEnvironment` before the slot executes, and the
  runner's checkpoint records carry the frames with the slots they
  produced, so a SIGKILL loses at most the in-flight slot;
- the **board** (:class:`~repro.serve.StatusBoard`, and its HTTP view) is
  refreshed once per slot; the solve-latency percentiles are computed only
  when ``/status`` is read;
- the **dashboard** re-renders every N slots from a bounded ring of recent
  events;
- **alerts** stream to their sinks the moment monitors raise them (the
  suite taps the telemetry chain; nothing here is replay-after-the-fact).

Stopping is cooperative: the loop checks ``stop_event`` between slots and
while pacing, writes a *forced* checkpoint at the exact slot boundary, and
reports where it stopped -- which is what makes SIGTERM + ``repro resume``
complete the horizon bit-identically.  This module imports nothing from
:mod:`repro.serve`, so a replay pays for no feed, HTTP or dashboard code.
"""

from __future__ import annotations

import threading
import time as _time
from typing import Callable, NamedTuple

from .engine import SlotRunner
from .metrics import SimulationRecord

__all__ = ["ControlService", "ServiceResult"]


class ServiceResult(NamedTuple):
    """How a run ended.

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
    """Drives a :class:`SlotRunner` to its horizon, from a resolved signal
    feed when ``resolver`` is given (else the runner's environment already
    holds every slot)."""

    def __init__(
        self,
        runner: SlotRunner,
        resolver=None,
        *,
        board=None,
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
        self.board = board
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
        if board is not None:
            board.compute("solver_latency", self._solver_latency)

    def _solver_latency(self) -> dict:
        """The board's ``solver_latency`` block, built when ``/status`` is
        read: the percentiles sort every latency sample, which would cost
        a third of a slot if refreshed every slot."""
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
            title=f"repro run (slot {self.runner.start_slot + self.slots_run})",
        )

    def _update_board(self, slot: int, state: str) -> None:
        if self.board is None:
            return
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
            signals=(
                {"ok": slot} if self.resolver is None else self.resolver.stats()
            ),
            checkpoint=checkpointing,
        )

    # ------------------------------------------------------------------
    def _stop(self, slot: int, reason: str) -> ServiceResult:
        """Forced checkpoint at the slot boundary, then report."""
        path = self.runner.checkpoint_now(slot)
        tele = self.runner.tele
        if tele.enabled:
            tele.emit("run.stop", slot=slot, reason=reason, checkpoint=path)
        self._update_board(slot, "stopped")
        self._render_dashboard()
        return ServiceResult(status="stopped", stopped_at=slot, checkpoint_path=path)

    def run(self, stop_event: threading.Event | None = None) -> ServiceResult:
        """Run slots until the horizon, a stop, or ``max_slots``; the
        checkpoint log is released however the run ends."""
        try:
            return self._run(
                stop_event if stop_event is not None else threading.Event()
            )
        finally:
            self.runner.close()

    def _run(self, stop_event: threading.Event) -> ServiceResult:
        runner = self.runner
        resolver = self.resolver
        append = None if resolver is None else runner.environment.append
        self._update_board(runner.start_slot, "running")
        period = self.slot_period_s
        epoch = self._clock() if period > 0 else 0.0

        for t in range(runner.start_slot, runner.horizon):
            if stop_event.is_set():
                return self._stop(t, "signal")
            if self.max_slots is not None and self.slots_run >= self.max_slots:
                return self._stop(t, "max_slots")

            if append is not None:
                # The slot's checkpoint record carries this frame; a resume
                # re-resolves every later slot, the in-flight one included,
                # from the source.
                append(resolver.resolve(t))

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
        self._update_board(runner.horizon, "completed")
        self._render_dashboard()
        return ServiceResult(status="completed", record=record)
