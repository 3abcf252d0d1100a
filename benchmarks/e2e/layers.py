"""Function patching and the traced pass's per-layer spans.

Everything here wraps the program's public functions from outside, so the
program itself carries no benchmark code.  A target that no longer exists
(a later change deleted or renamed it) is reported as ``absent`` and the
run goes on without it.

Spans live in memory until the run ends.  Each span names its parent (the
innermost wrapped call open when it started) and the slot ``t`` of the most
recent ``SlotRunner.step``; calls made many times per slot (``hot``) are
folded per slot into ``(count, total, self)`` instead of one record each.
A span's duration is the wrapped function's own run time; its self time
is that minus the whole time of the wrapped calls nested in it (their
wrappers included).  The wrappers' own bookkeeping under each
``SlotRunner.step`` is summed apart, so coverage can leave it out.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable

perf = time.perf_counter

__all__ = ["Patcher", "Tracer", "TARGETS", "layer_metrics"]


class Patcher:
    """Replaces functions and methods, and puts the originals back."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def patch(self, target: str, make: Callable[[Callable], Callable]) -> bool:
        """Wrap ``module:qualname`` with ``make(original)``.

        A module-level function is replaced in every loaded module that
        bound it (``from x import f`` copies the reference); a method is
        replaced on its class, keeping ``classmethod``/``staticmethod``.
        Returns False, and records the target as absent, when it does not
        resolve.
        """
        module_name, _, qualname = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(target)
            return False
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            self.absent.append(target)
            return False
        if isinstance(raw, (classmethod, staticmethod)):
            self._set(owner, attr, type(raw)(make(raw.__func__)))
        elif isinstance(owner, type):
            self._set(owner, attr, make(raw))
        else:
            wrapped = make(raw)
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not namespace:
                    continue
                for name, value in list(namespace.items()):
                    if value is raw:
                        self._set(module, name, wrapped)
        return True

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# --------------------------------------------------------------- targets
#: (span name, target, hot).  ``sim.step`` is the root: it sets the slot.
TARGETS: tuple[tuple[str, str, bool], ...] = (
    ("scenarios.build", "repro.scenarios:paper_scenario", False),
    ("traces.generate", "repro.traces.workload_fiu:fiu_workload", False),
    ("traces.generate", "repro.traces.workload_msr:msr_workload", False),
    ("traces.generate", "repro.traces.price:price_trace", False),
    ("traces.generate", "repro.energy.renewables:onsite_mix", False),
    ("solvers.calibrate", "repro.solvers.batch:batch_enumerate", False),
    ("faults.schedule", "repro.faults.schedule:FaultSchedule.generate", False),
    ("faults.inject", "repro.faults.injector:FaultInjector.begin_slot", False),
    ("faults.inject", "repro.faults.injector:FaultInjector.degrade_observation", False),
    ("faults.fallback", "repro.faults.degradation:DegradationPolicy.fallback", False),
    ("core.failed_solve", "repro.solvers.degraded:solve_with_failed_groups", False),
    ("core.decide", "repro.core.coca:COCA.decide", False),
    ("core.observe", "repro.core.coca:COCA.observe", False),
    ("sim.step", "repro.sim.engine:SlotRunner.step", False),
    ("sim.observation", "repro.sim.environment:Environment.observation", False),
    ("sim.observation", "repro.serve.environment:LiveEnvironment.observation", False),
    ("sim.realize", "repro.sim.engine:realize_action", False),
    ("sim.record", "repro.cluster.fleet:FleetAction.served_load", True),
    ("sim.record", "repro.cluster.fleet:FleetAction.active_servers", True),
    ("sim.record", "repro.cluster.fleet:FleetAction.on_counts", True),
    ("sim.problem", "repro.core.config:DataCenterModel.slot_problem", True),
    ("sim.evaluate", "repro.solvers.problem:SlotProblem.evaluate", True),
    ("sim.finish", "repro.sim.engine:SlotRunner.finish", False),
    ("solvers.gsd", "repro.solvers.gsd:GSDSolver.solve", False),
    ("solvers.enum", "repro.solvers.enumeration:HomogeneousEnumerationSolver.solve", False),
    ("waterfill", "repro.solvers.load_distribution:distribute_load", True),
    ("telemetry.emit", "repro.telemetry.bundle:Telemetry.emit", True),
    ("monitor.tap", "repro.monitor.suite:MonitorSuite.observe", True),
    ("state.capture", "repro.sim.engine:SlotRunner.capture", False),
    ("state.checkpoint_write", "repro.state.checkpoint:CheckpointWriter.write", False),
    ("state.journal", "repro.serve.environment:FrameJournal.append", False),
    ("serve.resolve", "repro.serve.staleness:StalenessResolver.resolve", False),
    ("serve.board", "repro.serve.loop:ControlService._update_board", False),
    ("serve.dashboard", "repro.monitor.dashboard:write_dashboard", False),
)


class Tracer:
    """Span recorder for the traced pass."""

    def __init__(self) -> None:
        self.patcher = Patcher()
        self.t = -1
        self._stack: list[list] = []
        #: One record per cold call: (t, name, parent, start, dur, self).
        self.spans: list[tuple] = []
        #: Hot calls folded per slot: (t, parent, name) -> [count, total, self].
        self.folded: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self.waterfill_s: list[float] = []
        #: (problem, objective) of every GSD solve, graded after the run.
        self.gsd_solves: list[tuple] = []
        self.resolver = None
        #: Wrapper bookkeeping nested in ``SlotRunner.step`` calls.
        self.step_wrapper_s = 0.0
        self._hooks = {
            "solvers.gsd": self._on_gsd,
            "waterfill": self._on_waterfill,
            "state.checkpoint_write": self._on_checkpoint,
            "serve.resolve": self._on_resolve,
        }

    # ----------------------------------------------------------- install
    def install(self) -> None:
        for name, target, hot in TARGETS:
            self.patcher.patch(
                target, functools.partial(self._wrap, name, hot)
            )

    def uninstall(self) -> None:
        self.patcher.restore()

    def _wrap(self, name: str, hot: bool, fn: Callable) -> Callable:
        stack = self._stack
        spans = self.spans
        folded = self.folded
        hook = self._hooks.get(name)
        on_error = self._on_waterfill_error if name == "waterfill" else None
        root = name == "sim.step"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = perf()
            if root:
                tracer.t = args[1] if len(args) > 1 else kwargs["t"]
            parent = stack[-1][0] if stack else ""
            # [name, time of nested wrapped calls, their wrappers' own time]
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            ok = False
            start = perf()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf()
                dur = end - start
                stack.pop()
                own = dur - frame[1]
                if hot:
                    acc = folded[(tracer.t, parent, name)]
                    acc[0] += 1
                    acc[1] += dur
                    acc[2] += own
                else:
                    spans.append((tracer.t, name, parent, start, dur, own))
                if ok and hook is not None:
                    hook(args, result, dur)
                elif not ok and on_error is not None:
                    on_error()
                if root:
                    tracer.step_wrapper_s += frame[2]
                elif stack:
                    up = stack[-1]
                    done = perf()
                    up[1] += done - enter
                    up[2] += frame[2] + (start - enter) + (done - end)
            return result

        return traced

    # ------------------------------------------------------------- hooks
    def _on_gsd(self, args, result, dur) -> None:
        problem = args[1]
        self.gsd_solves.append((problem, float(result.objective)))
        fastpath = result.info.get("fastpath", {})
        for key in ("evaluations", "inner_solves", "cache_hits", "inner_iters"):
            self.counters[f"gsd.{key}"] += fastpath.get(key, 0)

    def _on_waterfill(self, args, result, dur) -> None:
        self.waterfill_s.append(dur)
        self.counters[f"waterfill.{result.regime}_calls"] += 1
        self.counters[f"waterfill.{result.regime}_s"] += dur
        self.counters["waterfill.warm"] += bool(result.warm_started)
        self.counters["waterfill.inner_iters"] += result.inner_iters

    def _on_waterfill_error(self) -> None:
        self.counters["waterfill.infeasible_calls"] += 1

    def _on_checkpoint(self, args, result, dur) -> None:
        if result and os.path.exists(result):
            self.counters["state.checkpoint_bytes"] = os.path.getsize(result)

    def _on_resolve(self, args, result, dur) -> None:
        self.resolver = args[0]

    # ------------------------------------------------------------ output
    def write(self, path: str) -> None:
        """Write every span and folded bucket as JSON lines."""
        with open(path, "w") as fh:
            for t, name, parent, start, dur, own in self.spans:
                fh.write(json.dumps({
                    "t": t, "name": name, "parent": parent,
                    "start_s": start, "dur_s": dur, "self_s": own,
                }) + "\n")
            for (t, parent, name), (count, total, own) in self.folded.items():
                fh.write(json.dumps({
                    "t": t, "name": name, "parent": parent,
                    "count": count, "total_s": total, "self_s": own,
                }) + "\n")

    def totals(self) -> dict[tuple[str, str], list]:
        """``(parent, name) -> [count, total, self]`` over the whole run."""
        out: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        for _, name, parent, _, dur, own in self.spans:
            acc = out[(parent, name)]
            acc[0] += 1
            acc[1] += dur
            acc[2] += own
        for (_, parent, name), (count, total, own) in self.folded.items():
            acc = out[(parent, name)]
            acc[0] += count
            acc[1] += total
            acc[2] += own
        return out


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _gaps(solves: list[tuple]) -> list[float]:
    """GSD objective vs the shared-speed enumeration on the same problem
    (relative; negative when GSD beat the shared-speed family)."""
    try:
        from repro.solvers.enumeration import HomogeneousEnumerationSolver
    except ImportError:
        return []
    exact = HomogeneousEnumerationSolver()
    gaps = []
    for problem, objective in solves:
        if not problem.fleet.is_homogeneous:
            continue
        reference = float(exact.solve(problem).objective)
        gaps.append((objective - reference) / max(abs(reference), 1e-12))
    return gaps


def layer_metrics(tracer: Tracer, runner) -> dict[str, float]:
    """The per-layer metrics of one traced run (call after ``uninstall``)."""
    totals = tracer.totals()

    def pick(name: str, field: int, parent: str | None = None) -> float:
        return float(sum(
            acc[field] for (p, n), acc in totals.items()
            if n == name and (parent is None or p == parent)
        ))

    def count(name, parent=None):
        return pick(name, 0, parent)

    def total(name, parent=None):
        return pick(name, 1, parent)

    def own(name, parent=None):
        return pick(name, 2, parent)

    c = tracer.counters
    steps = max(count("sim.step"), 1.0)
    wf_calls = count("waterfill")
    gsd_evals = c["gsd.evaluations"]
    gsd_inner = c["gsd.inner_solves"]
    gaps = _gaps(tracer.gsd_solves)
    step_total = total("sim.step")
    policy = getattr(runner, "policy", None)
    resolver_stats = tracer.resolver.stats() if tracer.resolver is not None else {}

    m = {
        "scenarios.build_s": total("scenarios.build"),
        "traces.generate_s": total("traces.generate"),
        "solvers.calibrate_s": total("solvers.calibrate"),
        "solvers.calibrate_calls": count("solvers.calibrate"),
        "faults.schedule_s": total("faults.schedule"),
        "faults.inject_s": total("faults.inject"),
        "faults.fallbacks": float(policy.stats()["fallbacks"]) if policy else 0.0,
        "core.failed_solve_self_s": own("core.failed_solve"),
        "core.decide_self_s": own("core.decide"),
        "core.observe_s": total("core.observe"),
        "sim.step_self_s": own("sim.step"),
        "sim.observation_s": total("sim.observation", "sim.step"),
        "sim.problem_s": total("sim.problem", "sim.step"),
        "sim.realize_s": total("sim.realize"),
        "sim.record_s": total("sim.record", "sim.step"),
        "sim.evaluate_s": total("sim.evaluate", "sim.step"),
        "sim.finish_s": total("sim.finish"),
        "solvers.solve_s": total("solvers.gsd") + total("solvers.enum"),
        "solvers.enum_solve_s": total("solvers.enum"),
        "solvers.gsd_self_s": own("solvers.gsd"),
        "solvers.evaluations": gsd_evals,
        "solvers.inner_solves": gsd_inner,
        "solvers.cache_hit_ratio": c["gsd.cache_hits"] / gsd_evals if gsd_evals else 0.0,
        "solvers.inner_iters_per_solve": c["gsd.inner_iters"] / gsd_inner if gsd_inner else 0.0,
        "solvers.gap_rel_p50": _median(gaps),
        "solvers.gap_rel_max": max(gaps, default=0.0),
        "waterfill.calls": wf_calls,
        "waterfill.s": total("waterfill"),
        "waterfill.calls_per_slot": wf_calls / steps,
        "waterfill.us_per_call_p50": 1e6 * _median(tracer.waterfill_s),
        "waterfill.warm_ratio": c["waterfill.warm"] / wf_calls if wf_calls else 0.0,
        "waterfill.inner_iters_per_call": (
            c["waterfill.inner_iters"] / wf_calls if wf_calls else 0.0
        ),
        "waterfill.infeasible_calls": c["waterfill.infeasible_calls"],
        "telemetry.events": count("telemetry.emit"),
        "telemetry.emit_s": total("telemetry.emit"),
        "monitor.tap_s": total("monitor.tap"),
        "state.capture_s": total("state.capture"),
        "state.checkpoint_writes": count("state.checkpoint_write"),
        "state.checkpoint_write_s": total("state.checkpoint_write"),
        "state.checkpoint_bytes": c["state.checkpoint_bytes"],
        "state.journal_s": total("state.journal"),
        "serve.resolve_s": total("serve.resolve"),
        "serve.frames_degraded": float(sum(
            resolver_stats.get(k, 0) for k in ("missing", "gap", "degraded_fields")
        )),
        "serve.board_s": total("serve.board"),
        "serve.dashboard_s": total("serve.dashboard"),
        "trace.wrapper_frac": tracer.step_wrapper_s / step_total if step_total else 0.0,
        "trace.coverage_frac": (
            1.0 - own("sim.step") / (step_total - tracer.step_wrapper_s)
            if step_total else 0.0
        ),
    }
    for regime in ("billed", "free", "boundary"):
        m[f"waterfill.{regime}_calls"] = c[f"waterfill.{regime}_calls"]
        m[f"waterfill.{regime}_s"] = c[f"waterfill.{regime}_s"]
    return m
