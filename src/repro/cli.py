"""Command-line interface: run the paper's experiments from a shell.

``python -m repro <command>`` exposes the experiment drivers without
writing any Python:

=============  ==========================================================
Command        What it runs
=============  ==========================================================
quickstart     COCA vs carbon-unaware on one scenario (the README demo)
sweep-v        Fig. 2(a,b): cost/deficit vs constant V
compare-hp     Fig. 3: COCA vs PerfectHP
budget-sweep   Fig. 5(a,b): normalized cost vs carbon budget
report         full markdown scenario report
traces         summarize any of the synthetic trace generators
telemetry      summarize a JSONL event trace written by ``--trace-out``
dashboard      offline HTML health report (monitors + charts) from a trace
run            long-horizon run: checkpoints, seeded faults, monitors, replay
resume         continue a killed ``run`` from its newest valid checkpoint
serve          long-running online control service over a live signal feed
=============  ==========================================================

Scenario commands accept ``--scale {small,paper}`` (a 400-server fortnight
vs the 216 K-server year), ``--horizon`` to override the number of hourly
slots, and ``--workload {fiu,msr}``.  ``run``, ``resume`` and ``serve``
build their scenario and controller stack through one
:class:`~repro.runspec.RunSpec`, the only reader and writer of the
``manifest.json`` a checkpointed run leaves behind.  Every subcommand
additionally takes the global observability flags ``--trace-out FILE``
(stream a JSONL event trace of the run) and ``--metrics-out FILE`` (write a
metrics snapshot: ``.md`` renders markdown, anything else CSV); see
``docs/OBSERVABILITY.md``.

Failures exit with a *distinct* nonzero code so CI and scripts can tell
them apart: :data:`EXIT_BAD_INPUT` (1) for unreadable/invalid inputs,
:data:`EXIT_MONITOR_CRITICAL` (2) for ``--strict`` invariant-monitor
failures, :data:`EXIT_REPLAY_MISMATCH` (3) when ``--verify-replay`` finds
a bit-level divergence, :data:`EXIT_SHUTDOWN` (4) when ``repro serve``
stopped on SIGTERM/SIGINT after writing its shutdown checkpoint (the
resumable exit; see ``docs/OPERATIONS.md``).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Sequence

import numpy as np

from .runspec import FALLBACKS, MANIFEST_NAME, SOLVERS, RunSpec

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
#: ``repro serve`` stopped on a signal after a clean shutdown checkpoint.
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
def _telemetry_scope(args, *, suite=None, ring=None, reservoir=None):
    """Yield a Telemetry wired to the requested outputs, or None.

    ``suite`` taps a monitor suite onto the trace path (it sees the run
    live, trace file or not); ``ring``, a RingBufferTracer, keeps the
    newest events in front of the file; ``reservoir`` bounds histograms.
    On exit, finalizes the suite, closes the trace, writes the metrics and
    says where everything went.
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
    telemetry = Telemetry(tracer=tracer, metrics=MetricsRegistry(reservoir=reservoir))
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
def _cmd_quickstart(args) -> int:
    from .analysis import compare_records, find_neutral_v, render_table, run_coca
    from .baselines import CarbonUnaware
    from .sim import simulate

    scenario = RunSpec.from_args(args).scenario()
    portfolio = scenario.environment.portfolio
    print(
        f"scenario: {scenario.model.fleet.num_servers} servers, "
        f"{scenario.horizon} h, budget {scenario.budget:.4g} MWh "
        f"({100 * scenario.budget_fraction:.0f}% of unaware)"
    )
    v = args.v if args.v is not None else find_neutral_v(scenario)
    print(f"V = {v:.4g}" + ("" if args.v is not None else " (auto-tuned for neutrality)"))
    with _telemetry_scope(args) as telemetry:
        unaware = simulate(
            scenario.model,
            CarbonUnaware(scenario.model),
            scenario.environment,
            telemetry=telemetry,
        )
        record, _ = run_coca(scenario, v, telemetry=telemetry)
    rows = compare_records([unaware, record], portfolio, alpha=scenario.alpha)
    print(render_table(rows, title="carbon-unaware vs COCA"))
    return 0


def _cmd_sweep_v(args) -> int:
    from .analysis import render_table, sweep_constant_v

    scenario = RunSpec.from_args(args).scenario()
    values = [float(v) for v in args.values.split(",")]
    with _telemetry_scope(args) as telemetry:
        rows = sweep_constant_v(
            scenario, values, workers=args.workers, telemetry=telemetry
        )
    print(render_table(rows, title="Fig. 2(a,b): impact of constant V"))
    return 0


def _cmd_compare_hp(args) -> int:
    from .analysis import compare_with_perfecthp, find_neutral_v, render_table, time_bucket_rows

    scenario = RunSpec.from_args(args).scenario()
    v = args.v if args.v is not None else find_neutral_v(scenario)
    with _telemetry_scope(args) as telemetry:
        cmp = compare_with_perfecthp(scenario, v, telemetry=telemetry)
    print(f"COCA (V={v:.4g}) vs PerfectHP: cost saving {100 * cmp['cost_saving']:.1f}%")
    rows = time_bucket_rows(
        [cmp["coca"], cmp["perfecthp"]],
        scenario.environment.portfolio,
        alpha=scenario.alpha,
        buckets=args.buckets,
    )
    print(render_table(rows, title="Fig. 3: running averages"))
    return 0


def _cmd_budget_sweep(args) -> int:
    from .analysis import budget_sweep, render_table

    scenario = RunSpec.from_args(args).scenario()
    fractions = [float(f) for f in args.fractions.split(",")]
    with _telemetry_scope(args) as telemetry:
        rows = budget_sweep(
            scenario,
            fractions,
            include_opt=not args.no_opt,
            workers=args.workers,
            telemetry=telemetry,
        )
    print(render_table(rows, title="Fig. 5: normalized cost vs carbon budget"))
    return 0


def _cmd_report(args) -> int:
    from .analysis.report import scenario_report

    scenario = RunSpec.from_args(args).scenario()
    with _telemetry_scope(args) as telemetry:
        text = scenario_report(
            scenario,
            v=args.v,
            include_opt=not args.no_opt,
            telemetry=telemetry,
        )
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

    generators = {
        "fiu": lambda: fiu_workload(args.horizon or 8760, peak=1.0, seed=args.seed or 2012),
        "msr": lambda: msr_workload(args.horizon or 8760, peak=1.0, seed=args.seed or 2007),
        "solar": lambda: solar_trace(args.horizon or 8760, seed=args.seed or 77),
        "wind": lambda: wind_trace(args.horizon or 8760, seed=args.seed or 88),
        "price": lambda: price_trace(args.horizon or 8760, seed=args.seed or 55),
        "rec-price": lambda: rec_price_trace(args.horizon or 8760, seed=args.seed or 31),
    }
    trace = generators[args.kind]()
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


def _deadline_breaks_replay(command: str, verify_replay: bool, spec) -> bool:
    """Whether ``--verify-replay`` meets a deadline-bounded run (printed
    to stderr): deadline expiry depends on wall-clock speed, so such a run
    is *expected* to diverge between machines, and a bit-identity check
    against it would only produce noise."""
    if verify_replay and spec.solve_deadline_ms is not None:
        print(
            f"repro {command}: --verify-replay is incompatible with a run that "
            "used --solve-deadline-ms (wall-clock deadlines intentionally "
            "break bit-replay)",
            file=sys.stderr,
        )
        return True
    return False


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


def _checkpoint_writer(spec, directory: str, *, save: bool = True):
    """A checkpoint log writer for ``directory`` at the spec's cadence.
    With ``save`` the manifest is written first, so even a run killed
    before its first checkpoint leaves a directory that says how to
    rebuild it."""
    import os

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
    import os

    try:
        return RunSpec.load(checkpoint_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        path = os.path.join(checkpoint_dir, MANIFEST_NAME)
        print(f"repro {command}: cannot load {path}: {exc}", file=sys.stderr)
        return None


def _cmd_run(args) -> int:
    import dataclasses

    from .sim import simulate

    if args.schedule_out and not (args.chaos or args.schedule):
        print(
            "repro run: --schedule-out needs --chaos or --schedule "
            "(a fault-free run has no schedule to write)",
            file=sys.stderr,
        )
        return EXIT_BAD_INPUT
    spec = _spec_or_fail(args)
    if (
        spec is None
        or _deadline_breaks_replay("run", args.verify_replay, spec)
        or _used_checkpoint_dir("run", args.checkpoint_dir)
    ):
        return EXIT_BAD_INPUT
    scenario = spec.scenario()
    if args.schedule or args.chaos:
        schedule = _fault_schedule(args, scenario)
        if schedule is None:
            return EXIT_BAD_INPUT
        spec = dataclasses.replace(spec, schedule=schedule)
        _print_fault_schedule(schedule, scenario.horizon, spec.solver)
    _, controller, injector, policy = spec.build(scenario)

    writer = None
    if args.checkpoint_dir:
        writer = _checkpoint_writer(spec, args.checkpoint_dir)
        print(
            f"checkpointing every {spec.checkpoint_every} slot(s) "
            f"into {args.checkpoint_dir}"
        )

    suite = None
    if args.strict:
        from .monitor import default_suite

        suite = default_suite()
    with _telemetry_scope(args, suite=suite) as telemetry:
        record = simulate(
            scenario.model,
            controller,
            scenario.environment,
            telemetry=telemetry,
            faults=injector,
            degradation=policy,
            checkpoint=writer,
            solve_deadline_ms=spec.solve_deadline_ms,
            slot_sleep_s=args.slot_sleep_ms / 1000.0,
        )
    if injector is not None:
        _print_fault_summary(injector, policy)
    _print_run_summary(record, args)
    rc = 0 if suite is None else _report_monitors(suite, strict=True)
    if args.verify_replay:
        return _verify_replay("run", spec, scenario, record) or rc
    return rc


def _cmd_resume(args) -> int:
    from .sim import simulate
    from .state import CheckpointError

    spec = _load_spec_or_fail("resume", args.checkpoint_dir)
    if spec is None or _deadline_breaks_replay("resume", args.verify_replay, spec):
        return EXIT_BAD_INPUT

    with _telemetry_scope(args) as telemetry:
        ckpt = _resume_checkpoint("resume", args.checkpoint_dir, telemetry)
        if ckpt is None:
            return EXIT_BAD_INPUT
        scenario, controller, injector, policy = spec.build()
        print(f"resuming from {ckpt.path} (slot {ckpt.slot}/{scenario.horizon})")
        try:
            record = simulate(
                scenario.model,
                controller,
                scenario.environment,
                telemetry=telemetry,
                faults=injector,
                degradation=policy,
                checkpoint=_checkpoint_writer(spec, args.checkpoint_dir, save=False),
                resume_from=ckpt,
                solve_deadline_ms=spec.solve_deadline_ms,
            )
        except CheckpointError as exc:
            print(f"repro resume: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
    _print_run_summary(record, args)
    if args.verify_replay:
        return _verify_replay("resume", spec, scenario, record)
    return 0


# ----------------------------------------------------------------- serve
def _serve_config(args, feed: dict):
    """A :class:`~repro.serve.ServeConfig`: the feed identity ``feed`` (a
    spec's ``serve`` block), every other field from its same-named flag."""
    import dataclasses

    from .serve import ServeConfig

    names = [f.name for f in dataclasses.fields(ServeConfig) if f.name not in feed]
    return ServeConfig(**feed, **{name: getattr(args, name) for name in names})


def _serve_feed(config, scenario):
    """(source, environment) for the configured feed.

    Replay wraps the scenario's own environment (base-backed, so its
    checkpoints are interchangeable with batch ``repro run``); live feeds
    (file, synthetic) run over a bare :class:`LiveEnvironment`.
    """
    from .serve import (
        FileTailSignalSource,
        LiveEnvironment,
        ReplaySignalSource,
        SyntheticSignalSource,
    )

    if config.source == "replay":
        source = ReplaySignalSource(scenario.environment)
        return source, LiveEnvironment(scenario.horizon, base=scenario.environment)
    if config.source == "file":
        source = FileTailSignalSource(config.feed)
    else:
        source = SyntheticSignalSource(
            scenario.environment,
            seed=config.source_seed,
            **config.synthetic,
        )
    return source, LiveEnvironment(scenario.horizon)


def _cmd_serve(args) -> int:
    import dataclasses
    import signal as _signal
    import threading

    from .faults import FaultSchedule
    from .monitor import default_suite
    from .monitor.alerts import AlertChannel, stderr_sink
    from .serve import (
        ControlService,
        StalenessResolver,
        StatusBoard,
        StatusServer,
        frames_from_environment,
    )
    from .sim.engine import SlotRunner
    from .state import CheckpointError, atomic_write_text
    from .telemetry import RingBufferTracer

    if args.resume:
        if not args.checkpoint_dir:
            print("repro serve: --resume requires --checkpoint-dir DIR", file=sys.stderr)
            return EXIT_BAD_INPUT
        # The manifest owns everything determinism depends on (scenario,
        # solver, feed identity); the current invocation keeps only the
        # operational knobs (pacing, ports, dashboard, max-slots).
        spec = _load_spec_or_fail("serve", args.checkpoint_dir)
        if spec is None:
            return EXIT_BAD_INPUT
    else:
        spec = RunSpec.from_args(args)
    # A batch `repro run` manifest records no feed: the flags name it.
    config = _serve_config(args, spec.serve or RunSpec.from_args(args).serve)

    problems = spec.problems() + config.problems()
    for problem in problems:
        print(f"repro serve: {problem}", file=sys.stderr)
    if args.dry_run:
        if problems:
            print(f"dry run: {len(problems)} problem(s) found", file=sys.stderr)
            return EXIT_BAD_INPUT
        print(f"dry run: config ok ({config.describe()})")
        return 0
    if problems or (
        not args.resume and _used_checkpoint_dir("serve", config.checkpoint_dir)
    ):
        return EXIT_BAD_INPUT

    scenario = spec.scenario()
    source, environment = _serve_feed(config, scenario)
    # Replay promises perfect delivery and runs fault-free: exactly the
    # batch path, so bit-identity holds by construction.  Live feeds get
    # an empty-schedule injector, so every feed loss degrades through the
    # standard chaos machinery.  The manifest records neither.
    stack = spec if config.source == "replay" else dataclasses.replace(
        spec, schedule=FaultSchedule()
    )
    _, controller, injector, policy = stack.build(scenario)

    # Alerts stream to stderr as monitors raise them; --alert-rearm re-arms
    # a persisting condition every N slots instead of once per run.
    channel = AlertChannel([stderr_sink], dedup_window=config.alert_rearm)
    suite = default_suite(channel=channel)
    ring = RingBufferTracer() if config.dashboard_every else None
    # Serve runs indefinitely, so histograms default to a bounded seeded
    # reservoir instead of append-forever raw lists (percentiles exact
    # until the reservoir fills, uniformly sampled after).
    reservoir = args.metrics_reservoir if args.metrics_reservoir > 0 else None
    with _telemetry_scope(args, suite=suite, ring=ring, reservoir=reservoir) as telemetry:
        writer = None
        if config.checkpoint_dir:
            writer = _checkpoint_writer(spec, config.checkpoint_dir, save=not args.resume)
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
        resolver = StalenessResolver(
            source,
            injector=runner.injector,
            telemetry=telemetry,
            timeout_s=config.signal_timeout_s,
            poll_interval_s=config.poll_interval_s,
            peak_arrival=scenario.model.fleet.capacity(scenario.model.gamma),
        )
        if config.source != "replay":
            environment.signals = resolver.counts  # copied into each record
        runner.start()

        if args.resume:
            ckpt = _resume_checkpoint("serve", config.checkpoint_dir, telemetry)
            if ckpt is None:
                return EXIT_BAD_INPUT
            # The resolved prefix the checkpoint's fingerprint covers: replay
            # regenerates it from the scenario traces; a live feed's frames
            # (synthesized values exist nowhere else) come from the log,
            # in runner.restore.
            if config.source == "replay":
                for frame in frames_from_environment(scenario.environment):
                    if frame.slot < ckpt.slot:
                        environment.append(frame)
            else:
                held = len(ckpt.state["series"].get("environment", {}).get("frames", ()))
                if held < ckpt.slot:
                    print(
                        f"repro serve: checkpoint log {ckpt.path} carries {held} "
                        f"resolved frame(s) but is at slot {ckpt.slot} (written "
                        "before frames moved into the log); re-serve from the start",
                        file=sys.stderr,
                    )
                    return EXIT_BAD_INPUT
            try:
                runner.restore(ckpt)
            except CheckpointError as exc:
                print(f"repro serve: {exc}", file=sys.stderr)
                return EXIT_BAD_INPUT
            source.seek(ckpt.slot)
            # A replay delivers every slot on time; a live log carries its
            # feed's counts (none if written before they were logged).
            resolver.restore(
                environment.frames[-1] if environment.frames else None,
                {"ok": ckpt.slot} if config.source == "replay" else ckpt.state.get("signals"),
            )
            print(f"resuming from {ckpt.path} (slot {ckpt.slot}/{scenario.horizon})")

        board = StatusBoard()
        server = None
        if config.status_port is not None:
            server = StatusServer(
                board, port=config.status_port, registry=telemetry.metrics
            )
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

        stop = threading.Event()
        previous_handlers = {}
        for sig in (_signal.SIGTERM, _signal.SIGINT):
            previous_handlers[sig] = _signal.signal(sig, lambda *_: stop.set())
        print(f"serving: {config.describe()} ({scenario.horizon} slots)")
        try:
            result = service.run(stop)
        finally:
            for sig, handler in previous_handlers.items():
                _signal.signal(sig, handler)
            source.close()
            if server is not None:
                server.close()
    rc = _report_monitors(suite, args.strict)

    if result.status == "stopped":
        where = f"slot {result.stopped_at}/{scenario.horizon}"
        if result.checkpoint_path:
            print(f"serve: stopped at {where}; checkpoint {result.checkpoint_path}")
            print(
                f"resume with: repro serve --resume --checkpoint-dir "
                f"{config.checkpoint_dir}"
                + (
                    f"  (or: repro resume {config.checkpoint_dir})"
                    if config.source == "replay"
                    else ""
                )
            )
        else:
            print(f"serve: stopped at {where} (no checkpoint dir; not resumable)")
        return EXIT_SHUTDOWN if stop.is_set() else 0

    _print_run_summary(result.record, args)
    stats = resolver.stats()
    degraded = sum(v for k, v in stats.items() if k not in ("ok", "late"))
    print(
        f"signals: {stats['ok']} ok, {stats['late']} late, {degraded} degraded "
        f"({', '.join(f'{k}={v}' for k, v in stats.items() if k not in ('ok', 'late') and v)})"
        if degraded
        else f"signals: {stats['ok']} ok, {stats['late']} late"
    )
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
    "--solver-seed": dict(type=int, default=7, help="RNG seed for the stochastic solvers"),
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


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="COCA (SC'13) reproduction: experiments from the command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quickstart", help="COCA vs carbon-unaware")
    _add_scenario_args(p)
    _add_telemetry_args(p)
    p.add_argument("--v", type=float, default=None, help="fixed V (default: auto)")
    p.set_defaults(func=_cmd_quickstart)

    p = sub.add_parser("sweep-v", help="Fig. 2(a,b): V sweep")
    _add_scenario_args(p)
    _add_telemetry_args(p)
    p.add_argument("--values", default="0.001,0.01,0.1,1,10,100")
    p.add_argument(
        "--workers", type=int, default=None, help="parallel processes for the sweep"
    )
    p.set_defaults(func=_cmd_sweep_v)

    p = sub.add_parser("compare-hp", help="Fig. 3: COCA vs PerfectHP")
    _add_scenario_args(p)
    _add_telemetry_args(p)
    p.add_argument("--v", type=float, default=None)
    p.add_argument("--buckets", type=int, default=10)
    p.set_defaults(func=_cmd_compare_hp)

    p = sub.add_parser("budget-sweep", help="Fig. 5: budget sweep")
    _add_scenario_args(p)
    _add_telemetry_args(p)
    p.add_argument("--fractions", default="0.85,0.95,1.0")
    p.add_argument("--no-opt", action="store_true", help="skip the OPT baseline")
    p.add_argument(
        "--workers", type=int, default=None, help="parallel processes for the sweep"
    )
    p.set_defaults(func=_cmd_budget_sweep)

    p = sub.add_parser("report", help="full markdown scenario report")
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
        help="long-horizon run: checkpoints, seeded faults, monitors, replay",
    )
    _add_scenario_args(p)
    _add_telemetry_args(p)
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
    p.add_argument(
        "--slot-sleep-ms", type=float, default=0.0, metavar="MS",
        help="sleep after each slot (crash-harness aid; results unchanged)",
    )
    _add_shared(
        p, "--strict", "--verify-replay",
        strict=dict(help="tap the health monitors; exit 2 when any fails (CI gating)"),
    )
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "resume",
        help="continue a killed run from its newest valid checkpoint",
    )
    _add_telemetry_args(p)
    p.add_argument(
        "checkpoint_dir", metavar="DIR",
        help="checkpoint directory written by `repro run --checkpoint-dir`",
    )
    _add_shared(p, "--verify-replay", "--record-out")
    p.set_defaults(func=_cmd_resume)

    p = sub.add_parser(
        "serve",
        help="long-running online control service over a live signal feed",
    )
    _add_scenario_args(p)
    _add_telemetry_args(p)
    p.add_argument(
        "--source",
        choices=["replay", "file", "synthetic"],
        default="replay",
        help="signal feed: replay the scenario traces (deterministic), "
        "tail a JSONL feed file, or a seeded lossy generator",
    )
    p.add_argument(
        "--feed", default=None, metavar="FILE",
        help="JSONL feed path (required with --source file)",
    )
    _add_shared(
        p, "--v", "--solver", "--iterations", "--solver-seed", "--fallback", "--retries"
    )
    p.add_argument(
        "--slot-period-s", type=float, default=0.0, metavar="S",
        help="wall-clock pacing per slot (0 = free-running)",
    )
    p.add_argument(
        "--signal-timeout-s", type=float, default=0.0, metavar="S",
        help="staleness budget waiting for a slot's frame (0 = one poll)",
    )
    p.add_argument(
        "--poll-interval-s", type=float, default=0.05, metavar="S",
        help="sleep between feed polls while waiting",
    )
    _add_shared(
        p, "--solve-deadline-ms", "--checkpoint-dir", "--checkpoint-every",
        checkpoint_dir=dict(
            help="write crash-safe checkpoints (with a live feed's resolved "
            "frames) and the resume manifest here"
        ),
    )
    p.add_argument(
        "--status-port", type=int, default=None, metavar="PORT",
        help="serve GET /status, /healthz, and Prometheus /metrics on "
        "127.0.0.1:PORT (0 = ephemeral)",
    )
    p.add_argument(
        "--metrics-reservoir", type=int, default=8192, metavar="N",
        help="bound each latency histogram to a seeded N-sample reservoir "
        "(exact until N observations; 0 = unbounded raw lists)",
    )
    p.add_argument(
        "--status-port-file", default=None, metavar="FILE",
        help="write the bound status port to FILE (ephemeral-port discovery)",
    )
    p.add_argument(
        "--dashboard-out", default=None, metavar="FILE",
        help="re-render a live HTML dashboard to FILE",
    )
    p.add_argument(
        "--dashboard-every", type=int, default=0, metavar="N",
        help="slots between dashboard re-renders (0 = disabled)",
    )
    p.add_argument(
        "--alert-rearm", type=int, default=None, metavar="W",
        help="re-announce a persisting alert every W slots (default: once)",
    )
    p.add_argument(
        "--max-slots", type=int, default=None, metavar="N",
        help="stop (with a checkpoint) after N slots; smoke-test aid",
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
        "--resume",
        action="store_true",
        help="continue from the newest valid checkpoint in --checkpoint-dir",
    )
    p.add_argument(
        "--dry-run",
        action="store_true",
        help="validate the service configuration and exit 0 (clean) or 1",
    )
    _add_shared(p, "--record-out", "--strict")
    p.set_defaults(func=_cmd_serve)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
