"""Command-line interface: run the paper's experiments from a shell.

``python -m repro <command>`` exposes the experiment drivers without
writing any Python:

=============  ==========================================================
Command        What it runs
=============  ==========================================================
figure         a paper figure's table and claims (``quickstart``, Figs. 1-5,
               Theorem 2, the ablations; ``all`` runs every one)
report         markdown scenario report: inputs, traces, controllers, queue
traces         summarize any of the synthetic trace generators
telemetry      summarize a JSONL event trace written by ``--trace-out``
dashboard      offline HTML health report (monitors + charts) from a trace
run            the controller over a signal feed (``--source``: the scenario
               traces, a JSONL file, a seeded lossy generator): checkpoints,
               seeded faults, monitors, status endpoint, replay check
resume         continue a stopped or killed ``run`` from its newest valid
               checkpoint, over the same feed
=============  ==========================================================

``serve`` is another name for ``run``.  Scenario commands accept
``--scale {small,paper}`` (a 400-server fortnight vs the 216 K-server
year), ``--horizon`` to override the number of hourly slots, and
``--workload {fiu,msr}``; ``figure`` always runs the paper-scale year its
committed table was made on.  ``run`` and ``resume`` build their scenario
and controller stack through one :class:`~repro.runspec.RunSpec`, the only
reader and writer of the ``manifest.json`` a checkpointed run leaves
behind, and drive it through one slot loop
(:class:`~repro.sim.loop.ControlService`).  Every subcommand
additionally takes the global observability flags ``--trace-out FILE``
(stream a JSONL event trace of the run) and ``--metrics-out FILE`` (write a
metrics snapshot: ``.md`` renders markdown, anything else CSV); see
``docs/OBSERVABILITY.md``.

Failures exit with a *distinct* nonzero code so CI and scripts can tell
them apart: :data:`EXIT_BAD_INPUT` (1) for unreadable/invalid inputs,
:data:`EXIT_MONITOR_CRITICAL` (2) for ``--strict`` invariant-monitor
failures and for ``figure`` claims that do not hold,
:data:`EXIT_REPLAY_MISMATCH` (3) when ``--verify-replay`` finds a
bit-level divergence, :data:`EXIT_SHUTDOWN` (4) when a run
stopped on SIGTERM/SIGINT after writing its shutdown checkpoint (the
resumable exit; see ``docs/OPERATIONS.md``).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from typing import Sequence

import numpy as np

from .runspec import FALLBACKS, MANIFEST_NAME, SOLVERS, SOURCE_KINDS, RunSpec, ServeConfig, feed_of

__all__ = [
    "main",
    "build_parser",
    "EXIT_BAD_INPUT",
    "EXIT_MONITOR_CRITICAL",
    "EXIT_REPLAY_MISMATCH",
    "EXIT_SHUTDOWN",
]

#: Unreadable or invalid input (missing trace, torn schedule, bad manifest).
EXIT_BAD_INPUT = 1
#: An invariant monitor failed under ``--strict`` (CI gating).
EXIT_MONITOR_CRITICAL = 2
#: ``--verify-replay`` found records that are not bit-identical.
EXIT_REPLAY_MISMATCH = 3
#: A run stopped on a signal after a clean shutdown checkpoint.
EXIT_SHUTDOWN = 4


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=["small", "paper"],
        default="small",
        help="small: 400 servers / 2 weeks; paper: 216k servers / 1 year",
    )
    parser.add_argument("--horizon", type=int, default=None, help="slots override")
    parser.add_argument("--workload", choices=["fiu", "msr"], default="fiu")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--budget-fraction",
        type=float,
        default=0.92,
        help="carbon budget as a fraction of the carbon-unaware usage",
    )


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    """The global observability flags, attached to every subcommand."""
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="stream a JSONL event trace of the run to FILE",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write a metrics snapshot to FILE (.md = markdown, else CSV)",
    )


@contextmanager
def _telemetry_scope(args, *, suite=None, ring=None):
    """Yield a Telemetry wired to the requested outputs, or None.

    ``suite`` taps a monitor suite onto the trace path (it sees the run
    live, trace file or not); ``ring``, a RingBufferTracer, keeps the
    newest events in front of the file.  On exit, finalizes the suite,
    closes the trace, writes the metrics and says where everything went.
    """
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if not (trace_out or metrics_out) and suite is None and ring is None:
        yield None
        return
    from .monitor.suite import MonitoringTracer
    from .telemetry import JsonlTracer, MetricsRegistry, Telemetry, write_metrics

    file_tracer = JsonlTracer(trace_out) if trace_out else None
    tracer = file_tracer
    if ring is not None:
        if tracer is not None:
            ring.inner = tracer
        tracer = ring
    if suite is not None:
        tracer = MonitoringTracer(suite, tracer)
    telemetry = Telemetry(tracer=tracer, metrics=MetricsRegistry())
    try:
        yield telemetry
    finally:
        if suite is not None:
            suite.finalize()
        if file_tracer is not None:
            file_tracer.close()
            print(f"trace written to {trace_out} ({file_tracer.count} events)")
        if metrics_out:
            write_metrics(telemetry.metrics, metrics_out)
            print(f"metrics written to {metrics_out}")


def _report_monitors(suite, strict: bool) -> int:
    """Print the suite's verdict and every failing monitor; the exit code
    ``--strict`` asks for (0 when not strict or all pass)."""
    reports = suite.reports()
    failing = [r for r in reports if not r.passed]
    for report in failing:
        print(f"  FAIL {report.monitor}: {report.detail}", file=sys.stderr)
    print(f"{len(reports) - len(failing)}/{len(reports)} monitors passing")
    return EXIT_MONITOR_CRITICAL if strict and failing else 0


def _spec_or_fail(args):
    """The run spec of a command line; None after printing each problem
    (one line each, no traceback) to stderr."""
    spec = RunSpec.from_args(args)
    problems = spec.problems()
    for problem in problems:
        print(f"repro {args.command}: {problem}", file=sys.stderr)
    return None if problems else spec


# ----------------------------------------------------------------- commands
def _cmd_figure(args) -> int:
    from .analysis.figures import FIGURES, run_figures

    names = list(FIGURES) if "all" in args.names else args.names
    unknown = [name for name in names if name not in FIGURES]
    if unknown:
        print(
            f"repro figure: unknown figure {unknown[0]!r} "
            f"(choose from {', '.join(FIGURES)}, all)",
            file=sys.stderr,
        )
        return EXIT_BAD_INPUT
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    claims = []
    with _telemetry_scope(args) as telemetry:
        for name, table, checked in run_figures(names, telemetry=telemetry):
            print(f"\n{table}\n")
            for claim in checked:
                print(f"  {'PASS' if claim.holds else 'FAIL'} {name}: {claim.label}")
            claims += checked
            if args.out:
                with open(os.path.join(args.out, f"{name}.txt"), "w") as fh:
                    fh.write(table + "\n")
    failing = sum(not claim.holds for claim in claims)
    print(f"{len(claims) - failing}/{len(claims)} claims hold")
    return EXIT_MONITOR_CRITICAL if failing else 0


def _cmd_report(args) -> int:
    from .analysis.report import scenario_report

    spec = _spec_or_fail(args)
    if spec is None:
        return EXIT_BAD_INPUT
    with _telemetry_scope(args) as telemetry:
        try:
            text = scenario_report(
                spec.scenario(),
                v=args.v,
                include_opt=not args.no_opt,
                telemetry=telemetry,
            )
        except ValueError as exc:  # no V meets the budget
            print(f"repro report: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_traces(args) -> int:
    from .energy.rec_market import rec_price_trace
    from .traces import fiu_workload, msr_workload, price_trace, solar_trace, wind_trace

    if args.horizon is not None and args.horizon < 1:
        print(f"repro traces: --horizon must be >= 1, got {args.horizon}", file=sys.stderr)
        return EXIT_BAD_INPUT
    # Each generator with its default seed.
    generators = {
        "fiu": (lambda h, seed: fiu_workload(h, peak=1.0, seed=seed), 2012),
        "msr": (lambda h, seed: msr_workload(h, peak=1.0, seed=seed), 2007),
        "solar": (solar_trace, 77),
        "wind": (wind_trace, 88),
        "price": (price_trace, 55),
        "rec-price": (rec_price_trace, 31),
    }
    generate, seed = generators[args.kind]
    trace = generate(
        8760 if args.horizon is None else args.horizon,
        seed=seed if args.seed is None else args.seed,
    )
    print(trace.describe())
    profile = trace.daily_profile()
    peak_hour = int(np.argmax(profile))
    print(f"daily profile peak at hour {peak_hour:02d}:00 "
          f"(x{profile[peak_hour] / profile.mean():.2f} of the daily mean)")
    with _telemetry_scope(args) as telemetry:
        if telemetry is not None:
            telemetry.emit(
                "trace.generated",
                trace=trace.name,
                horizon=len(trace),
                mean=float(trace.values.mean()),
                peak=float(trace.values.max()),
                peak_hour=peak_hour,
            )
    return 0


def _load_trace_or_fail(command: str, path: str) -> list[dict] | None:
    """Load a trace for a CLI command; on failure print the reason (no
    traceback) to stderr and return None."""
    from .telemetry import TraceError, load_trace

    try:
        return load_trace(path)
    except TraceError as exc:
        print(f"repro {command}: {exc}", file=sys.stderr)
        return None


def _cmd_telemetry(args) -> int:
    from .telemetry import render_trace_summary

    events = _load_trace_or_fail("telemetry", args.trace)
    if events is None:
        return EXIT_BAD_INPUT
    print(render_trace_summary(events, title=args.trace, spans=args.spans))
    return 0


def _cmd_dashboard(args) -> int:
    from .monitor import default_suite, replay, write_dashboard

    events = _load_trace_or_fail("dashboard", args.trace)
    if events is None:
        return EXIT_BAD_INPUT
    suite = replay(events, default_suite())
    write_dashboard(events, args.output, suite=suite, title=args.title or args.trace)
    worst = suite.channel.worst_severity or "none"
    print(
        f"dashboard written to {args.output} "
        f"({suite.channel.count()} alerts, worst severity: {worst})"
    )
    return _report_monitors(suite, args.strict)


def _fault_schedule(args, scenario):
    """The run's fault schedule, loaded from ``--schedule`` or generated
    from the fault flags, and written to ``--schedule-out`` when asked.
    None after a one-line error when the file cannot be read or the
    flags are out of range."""
    from .faults import FaultSchedule

    try:
        if args.schedule:
            schedule = FaultSchedule.from_json(args.schedule)
        else:
            schedule = FaultSchedule.generate(
                args.fault_seed,
                horizon=scenario.horizon,
                num_groups=scenario.model.fleet.num_groups,
                failure_rate=args.failure_rate,
                mean_repair=args.mean_repair,
                signal_rate=args.signal_rate,
                loss=args.loss,
                delay=args.delay,
                duplicate=args.duplicate,
            )
    except (OSError, ValueError, KeyError, TypeError) as exc:
        what = f"cannot load fault schedule {args.schedule}: " if args.schedule else ""
        print(f"repro {args.command}: {what}{exc}", file=sys.stderr)
        return None
    if args.schedule_out:
        schedule.to_json(path=args.schedule_out)
        print(f"fault schedule written to {args.schedule_out}")
    return schedule


def _verify_replay(command: str, spec, scenario, record) -> int:
    """Re-run ``spec`` uninterrupted and untraced; exit 3 unless
    ``record`` matches it bit for bit (every array and the controller)."""
    import dataclasses

    from .sim import simulate
    from .state import record_mismatches

    _, controller, injector, policy = spec.build(scenario)
    golden = simulate(
        scenario.model,
        controller,
        scenario.environment,
        faults=injector,
        degradation=policy,
    )
    mismatched = record_mismatches(record, golden)
    if mismatched:
        print(f"repro {command}: replay DIVERGED in {', '.join(mismatched)}", file=sys.stderr)
        return EXIT_REPLAY_MISMATCH
    arrays = len(dataclasses.fields(record)) - 1
    print(f"replay: bit-identical to an uninterrupted run across {arrays} record arrays")
    return 0


def _print_fault_schedule(schedule, horizon: int, solver: str) -> None:
    """Print the ``chaos:`` line: what the run's fault schedule holds."""
    profile = schedule.messages
    print(
        f"chaos: {len(schedule.events)} timed events over {horizon} h"
        + (
            f"; messages loss={profile.loss:.2f} delay={profile.delay:.2f} "
            f"duplicate={profile.duplicate:.2f}"
            if profile is not None
            else "; reliable messaging"
        )
    )
    if profile is not None and solver != "distributed":
        print(
            "note: message faults only bite with --solver distributed "
            "(the other solvers pass no messages)"
        )


def _print_fault_summary(injector, policy) -> None:
    """Print what the faults did: the ``faults:`` and ``bus`` lines."""
    summary = injector.summary()
    deg = policy.stats()
    print(
        f"faults: {summary['injected']} injected "
        f"({', '.join(f'{k}={v}' for k, v in sorted(summary['by_kind'].items())) or 'none'}), "
        f"{summary['suppressed']} suppressed; "
        f"{deg['fallbacks']} fallback slot(s) ({deg['mode']}), "
        f"{deg['solve_retries']} solve retries"
    )
    if summary.get("last_bus"):
        bus = summary["last_bus"]
        print(
            f"bus (last solve): {bus.get('delivered', 0)} delivered, "
            f"{bus.get('dropped', 0)} dropped, {bus.get('delayed', 0)} delayed, "
            f"{bus.get('duplicated', 0)} duplicated over {summary['bus_solves']} solves"
        )


# ------------------------------------------------------------ run / resume
def _print_run_summary(record, args) -> None:
    """Print the run's totals; save the record to ``--record-out`` if asked."""
    print(
        f"run: cost ${record.cost.sum():,.0f}, "
        f"brown {record.brown_energy.sum():.4g} MWh, "
        f"dropped {record.dropped.sum():.4g} req/s, "
        f"final queue {record.queue[-1]:.4g} MWh"
    )
    if getattr(args, "record_out", None):
        from .state import save_record

        save_record(record, args.record_out)
        print(f"record written to {args.record_out}")


def _print_signals(resolver, horizon: int) -> None:
    """Print the ``signals:`` line: how each slot's frame was resolved (a
    replay delivers every slot on time)."""
    stats = {"ok": horizon, "late": 0} if resolver is None else resolver.stats()
    lost = {k: v for k, v in stats.items() if k not in ("ok", "late") and v}
    line = f"signals: {stats['ok']} ok, {stats['late']} late"
    if lost:
        details = ", ".join(f"{k}={v}" for k, v in lost.items())
        line += f", {sum(lost.values())} degraded ({details})"
    print(line)


def _checkpoint_writer(spec, directory: str, *, save: bool = True):
    """A checkpoint log writer for ``directory`` at the spec's cadence.
    With ``save`` the manifest is written first, so even a run killed
    before its first checkpoint leaves a directory that says how to
    rebuild it."""
    from .state import CheckpointWriter

    os.makedirs(directory, exist_ok=True)
    if save:
        spec.save(directory)
    return CheckpointWriter(directory, every=spec.checkpoint_every)


def _used_checkpoint_dir(command: str, directory: str | None) -> bool:
    """Whether a fresh run's ``directory`` already holds checkpoints
    (printed to stderr): a new run must not mix its log with another's."""
    from .state import checkpoint_files

    found = checkpoint_files(directory) if directory else []
    if found:
        print(
            f"repro {command}: {directory} already holds checkpoints "
            f"({found[0]}); resume it or pick an empty directory",
            file=sys.stderr,
        )
    return bool(found)


def _resume_checkpoint(command: str, directory: str, telemetry):
    """The fold of ``directory``'s checkpoint log; None after printing why
    there is none to resume from."""
    from .state import LOG_NAME, checkpoint_files, latest_valid_checkpoint

    ckpt = latest_valid_checkpoint(directory, telemetry=telemetry)
    if ckpt is None:
        found = checkpoint_files(directory)
        if found and LOG_NAME not in found:
            print(
                f"repro {command}: {directory} holds version-1 checkpoint "
                "snapshots (ckpt-*.json), which this build no longer reads; "
                "start a new run",
                file=sys.stderr,
            )
        else:
            print(f"repro {command}: no valid checkpoint in {directory}", file=sys.stderr)
    return ckpt


def _load_spec_or_fail(command: str, checkpoint_dir: str):
    """The spec of a checkpoint directory's manifest; None after printing
    why it cannot be read (no traceback) to stderr."""
    try:
        return RunSpec.load(checkpoint_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        path = os.path.join(checkpoint_dir, MANIFEST_NAME)
        print(f"repro {command}: cannot load {path}: {exc}", file=sys.stderr)
        return None


def _config_ok(args, spec, config) -> bool:
    """Whether a run's settings are valid, after printing every problem
    (one line each, no traceback) to stderr; ``--dry-run`` also prints the
    verdict."""
    problems = spec.problems() + config.problems()
    if args.verify_replay and spec.solve_deadline_ms is not None:
        problems.append(
            "--verify-replay is incompatible with a run that used "
            "--solve-deadline-ms (wall-clock deadlines intentionally break bit-replay)"
        )
    if args.verify_replay and config.source != "replay":
        problems.append(
            f"--verify-replay re-runs the scenario traces, not a {config.source} feed"
        )
    for problem in problems:
        print(f"repro {args.command}: {problem}", file=sys.stderr)
    if getattr(args, "dry_run", False):
        if problems:
            print(f"dry run: {len(problems)} problem(s) found", file=sys.stderr)
        else:
            print(f"dry run: config ok ({config.describe()})")
    return not problems


def _cmd_run(args) -> int:
    import dataclasses

    if args.schedule_out and not (args.chaos or args.schedule):
        print(
            f"repro {args.command}: --schedule-out needs --chaos or --schedule "
            "(a fault-free run has no schedule to write)",
            file=sys.stderr,
        )
        return EXIT_BAD_INPUT
    spec = RunSpec.from_args(args)
    config = ServeConfig.from_args(args, feed_of(args))
    if not _config_ok(args, spec, config):
        return EXIT_BAD_INPUT
    if args.dry_run:
        return 0
    if _used_checkpoint_dir(args.command, args.checkpoint_dir):
        return EXIT_BAD_INPUT
    scenario = spec.scenario()
    if args.schedule or args.chaos:
        schedule = _fault_schedule(args, scenario)
        if schedule is None:
            return EXIT_BAD_INPUT
        spec = dataclasses.replace(spec, schedule=schedule)
        _print_fault_schedule(schedule, scenario.horizon, spec.solver)
    return _drive(args, spec, scenario, config)


def _cmd_resume(args) -> int:
    # The manifest owns everything the results depend on (scenario,
    # solver, faults, feed identity); the command line keeps only the
    # operational flags (pacing, ports, dashboard, max-slots, monitors).
    spec = _load_spec_or_fail(args.command, args.checkpoint_dir)
    if spec is None:
        return EXIT_BAD_INPUT
    config = ServeConfig.from_args(args, spec.serve or {})
    if not _config_ok(args, spec, config):
        return EXIT_BAD_INPUT
    return _drive(args, spec, spec.scenario(), config, resume=True)


def _drive(args, spec, scenario, config, *, resume: bool = False) -> int:
    """Run ``spec`` over its signal source through the one slot loop, from
    the start or (``resume``) from the checkpoint directory's newest valid
    record; returns the exit code.

    A replay runs over the scenario's own environment with no resolver, so
    it is the batch path.  A live feed (file, synthetic) runs over a bare
    :class:`~repro.serve.LiveEnvironment` that the resolver fills slot by
    slot, with a fault injector (an empty schedule when the run has none)
    through which every feed loss degrades.  The monitors tap when
    ``--strict``, ``--dashboard-out`` or ``--status-port`` is given; a run
    watched live (a dashboard or a status port) also streams its alerts to
    stderr and keeps the status board current.
    """
    import dataclasses
    import threading

    from .sim import ControlService
    from .sim.engine import SlotRunner
    from .state import CheckpointError

    command = args.command
    live = config.source != "replay"
    source, environment, stack = None, scenario.environment, spec
    if live:
        from .faults import FaultSchedule
        from .serve import FileTailSignalSource, LiveEnvironment, SyntheticSignalSource

        if config.source == "file":
            source = FileTailSignalSource(config.feed)
        else:
            source = SyntheticSignalSource(
                scenario.environment, seed=config.source_seed, **config.synthetic
            )
        environment = LiveEnvironment(scenario.horizon)
        if spec.schedule is None:  # the manifest records none
            stack = dataclasses.replace(spec, schedule=FaultSchedule())
    _, controller, injector, policy = stack.build(scenario)

    watched = bool(config.dashboard_out) or config.status_port is not None
    suite = ring = None
    if args.strict or watched:
        from .monitor import default_suite
        from .monitor.alerts import AlertChannel, stderr_sink

        # --alert-rearm re-announces a persisting condition every N slots
        # instead of once per run.
        sinks = [stderr_sink] if watched else []
        suite = default_suite(channel=AlertChannel(sinks, dedup_window=config.alert_rearm))
    if config.dashboard_out:  # rendered every N slots and when the run ends
        from .telemetry import RingBufferTracer

        ring = RingBufferTracer()
    with _telemetry_scope(args, suite=suite, ring=ring) as telemetry:
        ckpt = None
        if resume:
            ckpt = _resume_checkpoint(command, config.checkpoint_dir, telemetry)
            if ckpt is None:
                return EXIT_BAD_INPUT
            # A live feed's resolved frames (synthesized values exist
            # nowhere else) come back from the log, in runner.restore.
            frames = ckpt.state["series"].get("environment", {}).get("frames", ())
            if live and len(frames) < ckpt.slot:
                print(
                    f"repro {command}: checkpoint log {ckpt.path} carries {len(frames)} "
                    f"resolved frame(s) but is at slot {ckpt.slot} (written "
                    "before frames moved into the log); start a new run",
                    file=sys.stderr,
                )
                return EXIT_BAD_INPUT
        writer = None
        if config.checkpoint_dir:
            writer = _checkpoint_writer(spec, config.checkpoint_dir, save=not resume)
            if not resume:
                print(
                    f"checkpointing every {spec.checkpoint_every} slot(s) "
                    f"into {config.checkpoint_dir}"
                )
        runner = SlotRunner(
            scenario.model,
            controller,
            environment,
            telemetry=telemetry,
            faults=injector,
            degradation=policy,
            checkpoint=writer,
            solve_deadline_ms=spec.solve_deadline_ms,
        )
        resolver = None
        if live:
            from .serve import StalenessResolver

            resolver = StalenessResolver(
                source,
                injector=runner.injector,
                telemetry=telemetry,
                timeout_s=config.signal_timeout_s,
                poll_interval_s=config.poll_interval_s,
                peak_arrival=scenario.model.fleet.capacity(scenario.model.gamma),
            )
            environment.signals = resolver.counts  # copied into each record
        runner.start()
        if ckpt is not None:
            try:
                runner.restore(ckpt)
            except CheckpointError as exc:
                runner.close()
                print(f"repro {command}: {exc}", file=sys.stderr)
                return EXIT_BAD_INPUT
            if live:
                source.seek(ckpt.slot)
                # The log carries the feed's counts (none if written before
                # they were logged).
                resolver.restore(
                    environment.frames[-1] if environment.frames else None,
                    ckpt.state.get("signals"),
                )
            print(f"resuming from {ckpt.path} (slot {ckpt.slot}/{scenario.horizon})")

        board = server = None
        if watched:
            from .serve import StatusBoard

            board = StatusBoard()
        if config.status_port is not None:
            from .serve import StatusServer
            from .state import atomic_write_text

            server = StatusServer(board, port=config.status_port, registry=telemetry.metrics)
            print(f"status endpoint at {server.url}/status")
            print(f"metrics endpoint at {server.url}/metrics")
            if config.status_port_file:
                atomic_write_text(config.status_port_file, f"{server.port}\n")

        service = ControlService(
            runner,
            resolver,
            board=board,
            suite=suite,
            budget_mwh=scenario.budget,
            slot_period_s=config.slot_period_s,
            max_slots=config.max_slots,
            dashboard_out=config.dashboard_out,
            dashboard_every=config.dashboard_every,
            recent_events=ring,
        )
        # A run that can be resumed or is watched stops at a slot boundary
        # on SIGTERM/SIGINT; a plain replay keeps the default handlers.
        stop = threading.Event()
        previous_handlers = {}
        if config.checkpoint_dir or live or watched:
            import signal

            previous_handlers = {
                sig: signal.signal(sig, lambda *_: stop.set())
                for sig in (signal.SIGTERM, signal.SIGINT)
            }
        try:
            result = service.run(stop)
        finally:
            for sig, handler in previous_handlers.items():
                signal.signal(sig, handler)
            if source is not None:
                source.close()
            if server is not None:
                server.close()
    rc = 0 if suite is None else _report_monitors(suite, args.strict)

    if result.status == "stopped":
        where = f"slot {result.stopped_at}/{scenario.horizon}"
        if result.checkpoint_path:
            print(f"{command}: stopped at {where}; checkpoint {result.checkpoint_path}")
            print(f"resume with: repro resume {config.checkpoint_dir}")
        else:
            print(f"{command}: stopped at {where} (no checkpoint dir; not resumable)")
        return EXIT_SHUTDOWN if stop.is_set() else 0

    if injector is not None:
        _print_fault_summary(injector, policy)
    _print_run_summary(result.record, args)
    _print_signals(resolver, scenario.horizon)
    if args.verify_replay:
        return _verify_replay(command, spec, scenario, result.record) or rc
    return rc


# ----------------------------------------------------------------- parser
#: Flags several commands share, declared once; a command passes keyword
#: overrides to :func:`_add_shared` where its default or help differs.
_SHARED_FLAGS = {
    "--v": dict(type=float, default=150.0, help="fixed V for the run"),
    "--solver": dict(
        choices=list(SOLVERS),
        default="auto",
        help="P3 engine (auto = exact enumeration/coordinate descent)",
    ),
    "--iterations": dict(
        type=int, default=200, help="iterations per solve for --solver gsd/distributed"
    ),
    "--fallback": dict(
        choices=list(FALLBACKS),
        default="last_action",
        help="degraded action when a slot solve fails",
    ),
    "--retries": dict(type=int, default=1, help="slot-solve retries before falling back"),
    "--solve-deadline-ms": dict(
        type=float, default=None, metavar="MS",
        help="wall-clock budget per slot solve (anytime cut on expiry)",
    ),
    "--checkpoint-dir": dict(
        default=None, metavar="DIR",
        help="write crash-safe checkpoints (and the resume manifest) here",
    ),
    "--checkpoint-every": dict(
        type=int, default=1, metavar="N", help="checkpoint cadence in slots"
    ),
    "--record-out": dict(
        default=None, metavar="FILE",
        help="save the final SimulationRecord (.npz) for golden diffs",
    ),
    "--strict": dict(
        action="store_true",
        help="exit 2 when any invariant monitor fails (CI gating)",
    ),
    "--verify-replay": dict(
        action="store_true",
        help="also run uninterrupted and require bit-identical records "
        "(exit 3 otherwise)",
    ),
}


def _add_shared(parser: argparse.ArgumentParser, *flags: str, **overrides: dict) -> None:
    """Attach shared ``flags``; ``overrides`` maps a flag's dest to the
    keyword arguments that differ for this command."""
    for flag in flags:
        dest = flag.lstrip("-").replace("-", "_")
        parser.add_argument(flag, **{**_SHARED_FLAGS[flag], **overrides.get(dest, {})})


def _add_operational_args(parser: argparse.ArgumentParser) -> None:
    """The flags that pace, watch and check a run, never change its
    results; ``resume`` takes them as ``run`` does."""
    parser.add_argument(
        "--slot-period-s", type=float, default=0.0, metavar="S",
        help="wall-clock pacing per slot (0 = free-running)",
    )
    parser.add_argument(
        "--poll-interval-s", type=float, default=0.05, metavar="S",
        help="sleep between feed polls while waiting",
    )
    parser.add_argument(
        "--status-port", type=int, default=None, metavar="PORT",
        help="serve GET /status, /healthz, and Prometheus /metrics on "
        "127.0.0.1:PORT (0 = ephemeral)",
    )
    parser.add_argument(
        "--status-port-file", default=None, metavar="FILE",
        help="write the bound status port to FILE (ephemeral-port discovery)",
    )
    parser.add_argument(
        "--dashboard-out", default=None, metavar="FILE",
        help="re-render a live HTML dashboard to FILE",
    )
    parser.add_argument(
        "--dashboard-every", type=int, default=0, metavar="N",
        help="slots between dashboard re-renders (0 = disabled)",
    )
    parser.add_argument(
        "--alert-rearm", type=int, default=None, metavar="W",
        help="re-announce a persisting alert every W slots (default: once)",
    )
    parser.add_argument(
        "--max-slots", type=int, default=None, metavar="N",
        help="stop (with a checkpoint) after N slots",
    )
    _add_shared(
        parser, "--strict", "--verify-replay",
        strict=dict(help="tap the health monitors; exit 2 when any fails (CI gating)"),
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="COCA (SC'13) reproduction: experiments from the command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "figure",
        help="regenerate a paper figure's table on its paper-scale year and "
        "check its claims (exit 2 when one fails)",
    )
    _add_telemetry_args(p)
    p.add_argument(
        "names", nargs="+", metavar="NAME",
        help="figure name (e.g. quickstart, fig2ab_constant_v, fig5a_budget_fiu) or all",
    )
    p.add_argument(
        "--out", default=None, metavar="DIR", help="write each table to DIR/NAME.txt"
    )
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser(
        "report", help="markdown scenario report: input traces, controllers, deficit queue"
    )
    _add_scenario_args(p)
    _add_telemetry_args(p)
    p.add_argument("--v", type=float, default=None)
    p.add_argument("--no-opt", action="store_true")
    p.add_argument("--output", "-o", default=None, help="write to a file")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("traces", help="summarize a synthetic trace")
    _add_telemetry_args(p)
    p.add_argument("kind", choices=["fiu", "msr", "solar", "wind", "price", "rec-price"])
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_traces)

    p = sub.add_parser("telemetry", help="summarize a JSONL event trace")
    _add_telemetry_args(p)
    p.add_argument("trace", help="path to a trace written with --trace-out")
    p.add_argument(
        "--spans",
        action="store_true",
        help="append the span hotspot tree (schema v3 traces; older traces "
        "report no span events)",
    )
    p.set_defaults(func=_cmd_telemetry)

    p = sub.add_parser(
        "dashboard", help="render an offline HTML health report from a trace"
    )
    p.add_argument(
        "--trace", required=True, help="path to a trace written with --trace-out"
    )
    p.add_argument(
        "--output", "-o", default="dashboard.html", help="HTML file to write"
    )
    p.add_argument("--title", default=None, help="report title (default: trace path)")
    _add_shared(p, "--strict")
    p.set_defaults(func=_cmd_dashboard)

    p = sub.add_parser(
        "run",
        aliases=["serve"],
        help="run the controller over a signal feed: checkpoints, seeded "
        "faults, monitors, status endpoint, replay check",
    )
    _add_scenario_args(p)
    _add_telemetry_args(p)
    p.add_argument(
        "--source",
        choices=list(SOURCE_KINDS),
        default="replay",
        help="signal feed: replay the scenario traces (the batch run), "
        "tail a JSONL feed file, or a seeded lossy generator",
    )
    p.add_argument(
        "--feed", default=None, metavar="FILE",
        help="JSONL feed path (required with --source file)",
    )
    p.add_argument(
        "--source-seed", type=int, default=0,
        help="delivery seed for --source synthetic",
    )
    p.add_argument(
        "--p-drop", type=float, default=0.02,
        help="synthetic: probability a slot's frame is never delivered",
    )
    p.add_argument(
        "--p-late", type=float, default=0.1,
        help="synthetic: probability a frame needs an extra poll",
    )
    p.add_argument(
        "--p-field-loss", type=float, default=0.02,
        help="synthetic: per-field omission probability",
    )
    p.add_argument(
        "--p-swap", type=float, default=0.05,
        help="synthetic: probability adjacent frames swap delivery order",
    )
    p.add_argument(
        "--signal-timeout-s", type=float, default=0.0, metavar="S",
        help="staleness budget waiting for a slot's frame (0 = one poll)",
    )
    p.add_argument(
        "--fault-seed", type=int, default=7,
        help="seed for the generated fault schedule, message faults and GSD chain",
    )
    p.add_argument(
        "--failure-rate", type=float, default=0.02,
        help="per-slot, per-group failure probability",
    )
    p.add_argument(
        "--mean-repair", type=float, default=6.0,
        help="mean slots a failed group stays down",
    )
    p.add_argument(
        "--signal-rate", type=float, default=0.0,
        help="per-slot probability of a stale/missing observation fault",
    )
    p.add_argument("--loss", type=float, default=0.0, help="message loss probability")
    p.add_argument("--delay", type=float, default=0.0, help="message delay probability")
    p.add_argument(
        "--duplicate", type=float, default=0.0,
        help="message duplication probability",
    )
    p.add_argument(
        "--schedule", default=None, metavar="FILE",
        help="replay a fault schedule from JSON instead of generating one",
    )
    p.add_argument(
        "--schedule-out", default=None, metavar="FILE",
        help="write the schedule (generated or loaded) to JSON for replay",
    )
    _add_shared(p, "--fallback", "--retries", "--v", "--solver", "--iterations")
    p.add_argument(
        "--chaos",
        action="store_true",
        help="inject a generated fault schedule (see the fault flags)",
    )
    _add_shared(
        p, "--checkpoint-dir", "--checkpoint-every",
        "--solve-deadline-ms", "--record-out",
    )
    _add_operational_args(p)
    p.add_argument(
        "--dry-run",
        action="store_true",
        help="validate the run's settings and exit 0 (clean) or 1",
    )
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "resume",
        help="continue a stopped or killed run from its newest valid checkpoint",
    )
    _add_telemetry_args(p)
    p.add_argument(
        "checkpoint_dir", metavar="DIR",
        help="checkpoint directory written by `repro run --checkpoint-dir`",
    )
    _add_shared(p, "--record-out")
    _add_operational_args(p)
    p.set_defaults(func=_cmd_resume)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
