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
profile        sampling flamegraph of a COCA run with span attribution
bench          run benchmark suites; append rows to the trend ledger
chaos          COCA under seeded fault injection (failures, lossy messaging)
run            checkpointed long-horizon run (crash-safe, resumable)
resume         continue a killed ``run`` from its newest valid checkpoint
serve          long-running online control service over a live signal feed
=============  ==========================================================

Scenario commands accept ``--scale {small,paper}`` (a 400-server fortnight
vs the 216 K-server year), ``--horizon`` to override the number of hourly
slots, and ``--workload {fiu,msr}``.  Every subcommand additionally takes
the global observability flags ``--trace-out FILE`` (stream a JSONL event
trace of the run) and ``--metrics-out FILE`` (write a metrics snapshot:
``.md`` renders markdown, anything else CSV); see ``docs/OBSERVABILITY.md``.

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
def _telemetry_scope(args):
    """Yield a Telemetry wired to the requested outputs, or None.

    On exit, closes the trace stream and writes the metrics snapshot, then
    reports where everything went -- so every subcommand gets the flags'
    behaviour from one place.
    """
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if not trace_out and not metrics_out:
        yield None
        return
    from .telemetry import JsonlTracer, Telemetry, write_metrics

    tracer = JsonlTracer(trace_out) if trace_out else None
    telemetry = Telemetry(tracer=tracer)
    try:
        yield telemetry
    finally:
        if tracer is not None:
            tracer.close()
            print(f"trace written to {trace_out} ({tracer.count} events)")
        if metrics_out:
            write_metrics(telemetry.metrics, metrics_out)
            print(f"metrics written to {metrics_out}")


def _build_scenario(args):
    from .scenarios import paper_scenario, small_scenario

    kwargs: dict = {
        "workload": args.workload,
        "budget_fraction": args.budget_fraction,
    }
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.horizon is not None:
        kwargs["horizon"] = args.horizon
    if args.scale == "paper":
        return paper_scenario(**kwargs)
    return small_scenario(**kwargs)


def _build_solver(kind: str, iterations: int, seed: int):
    """The P3 engine a command runs: a GSD chain (``gsd``/``distributed``)
    of ``iterations`` steps per solve seeded with ``seed``, or ``None`` for
    ``auto`` (COCA picks exact enumeration or coordinate descent)."""
    from .solvers import DistributedGSD, GSDSolver

    engine = {"gsd": GSDSolver, "distributed": DistributedGSD}.get(kind)
    if engine is None:
        return None
    return engine(iterations=int(iterations), rng=np.random.default_rng(int(seed)))


# ----------------------------------------------------------------- commands
def _cmd_quickstart(args) -> int:
    from .analysis import compare_records, find_neutral_v, render_table, run_coca
    from .baselines import CarbonUnaware
    from .sim import simulate

    scenario = _build_scenario(args)
    portfolio = scenario.environment.portfolio
    print(
        f"scenario: {scenario.model.fleet.num_servers} servers, "
        f"{scenario.horizon} h, budget {scenario.budget:.4g} MWh "
        f"({100 * scenario.budget_fraction:.0f}% of unaware)"
    )
    v = args.v if args.v is not None else find_neutral_v(scenario, iters=args.v_iters)
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

    scenario = _build_scenario(args)
    values = [float(v) for v in args.values.split(",")]
    with _telemetry_scope(args) as telemetry:
        rows = sweep_constant_v(
            scenario, values, workers=args.workers, telemetry=telemetry
        )
    print(render_table(rows, title="Fig. 2(a,b): impact of constant V"))
    return 0


def _cmd_compare_hp(args) -> int:
    from .analysis import compare_with_perfecthp, find_neutral_v, render_table, time_bucket_rows

    scenario = _build_scenario(args)
    v = args.v if args.v is not None else find_neutral_v(scenario, iters=args.v_iters)
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

    scenario = _build_scenario(args)
    fractions = [float(f) for f in args.fractions.split(",")]
    with _telemetry_scope(args) as telemetry:
        rows = budget_sweep(
            scenario,
            fractions,
            include_opt=not args.no_opt,
            v_iters=args.v_iters,
            workers=args.workers,
            telemetry=telemetry,
        )
    print(render_table(rows, title="Fig. 5: normalized cost vs carbon budget"))
    return 0


def _cmd_report(args) -> int:
    from .analysis.report import scenario_report

    scenario = _build_scenario(args)
    with _telemetry_scope(args) as telemetry:
        text = scenario_report(
            scenario,
            v=args.v,
            include_opt=not args.no_opt,
            v_iters=args.v_iters,
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
    reports = suite.reports()
    passing = sum(1 for r in reports if r.passed)
    worst = suite.channel.worst_severity or "none"
    print(
        f"dashboard written to {args.output} "
        f"({passing}/{len(reports)} monitors passing, "
        f"{suite.channel.count()} alerts, worst severity: {worst})"
    )
    if args.strict and passing < len(reports):
        for report in reports:
            if not report.passed:
                print(
                    f"repro dashboard: FAIL {report.monitor}: {report.detail}",
                    file=sys.stderr,
                )
        return EXIT_MONITOR_CRITICAL
    return 0


def _cmd_profile(args) -> int:
    import os

    from .core.coca import COCA
    from .profile import StackSampler, write_flamegraph, write_folded
    from .sim import simulate
    from .telemetry import InMemoryTracer, JsonlTracer, Telemetry, write_metrics

    scenario = _build_scenario(args)
    controller = COCA(
        scenario.model,
        scenario.environment.portfolio,
        v_schedule=args.v,
        alpha=scenario.alpha,
        solver=_build_solver(args.solver, args.iterations, args.solver_seed),
    )
    # The sampler prefixes stacks with the live span path, which only
    # exists under an enabled tracer -- so the profiled run always gets
    # one; --trace-out decides whether the events also land on disk.
    tracer = JsonlTracer(args.trace_out) if args.trace_out else InMemoryTracer()
    telemetry = Telemetry(tracer=tracer)
    sampler = StackSampler(interval_ms=args.interval_ms, telemetry=telemetry)
    with sampler:
        record = simulate(
            scenario.model, controller, scenario.environment, telemetry=telemetry
        )
    if args.trace_out:
        tracer.close()
        print(f"trace written to {args.trace_out} ({tracer.count} events)")
    if args.metrics_out:
        write_metrics(telemetry.metrics, args.metrics_out)
        print(f"metrics written to {args.metrics_out}")

    folded = sampler.folded()
    os.makedirs(args.out_dir, exist_ok=True)
    folded_path = os.path.join(args.out_dir, "profile.folded")
    html_path = os.path.join(args.out_dir, "profile.html")
    write_folded(folded, folded_path)
    title = (
        f"repro profile: {args.scale} scenario, "
        f"{scenario.horizon} slots, solver={args.solver}"
    )
    write_flamegraph(folded, html_path, title=title)

    _print_run_summary(record)
    total = sampler.total_samples
    print(
        f"\n{total} samples over {sampler.duration_s:.2f} s profiled "
        f"({args.interval_ms:g} ms period); top {args.top} frames by self time:"
    )
    for frame, count in sampler.hotspots(args.top):
        print(f"  {count:>7}  {100.0 * count / total:5.1f}%  {frame}")
    print(f"folded stacks written to {folded_path}")
    print(f"flame view written to {html_path}")
    if total == 0:
        print(
            "repro profile: no samples collected -- raise --horizon or "
            "lower --interval-ms",
            file=sys.stderr,
        )
        return EXIT_BAD_INPUT
    return 0


def _cmd_bench(args) -> int:
    from datetime import datetime, timezone

    from .profile import (
        append_row,
        check_rows,
        discover_benches,
        git_revision,
        load_rows,
        make_row,
        run_suite,
    )

    suites = discover_benches(args.bench_dir)
    if not suites:
        print(
            f"repro bench: no bench_*.py found under {args.bench_dir}",
            file=sys.stderr,
        )
        return EXIT_BAD_INPUT
    if args.list:
        for name, suite in sorted(suites.items()):
            tag = "runnable" if suite.runnable else "figure driver (not runnable)"
            print(f"{name:24s} {tag}")
        return 0
    if args.suites:
        bad = [
            n for n in args.suites if n not in suites or not suites[n].runnable
        ]
        if bad:
            print(
                f"repro bench: not a runnable suite: {', '.join(bad)} "
                "(see `repro bench --list`)",
                file=sys.stderr,
            )
            return EXIT_BAD_INPUT
        selected = [suites[n] for n in args.suites]
    else:
        selected = [s for _, s in sorted(suites.items()) if s.runnable]

    history = load_rows(args.ledger)
    rev = git_revision()
    timestamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    fresh = []
    for suite in selected:
        print(
            f"running {suite.name} [{' '.join(suite.default_args) or 'defaults'}]",
            flush=True,
        )
        result = run_suite(suite, out_dir=args.out_dir)
        row = make_row(result, git_rev=rev, timestamp=timestamp)
        fresh.append(row)
        print(
            f"  exit {result.exit_code}, wall {result.wall_s:.2f} s, "
            f"{len(row['metrics'])} metrics"
        )
    if not args.no_append:
        for row in fresh:
            append_row(args.ledger, row)
        print(f"{len(fresh)} row(s) appended to {args.ledger}")

    rc = 0
    if args.check:
        ok, messages = check_rows(history, fresh, tolerance=args.tolerance)
        for message in messages:
            print(f"  {message}")
        if ok:
            print("repro bench: check passed")
        else:
            print("repro bench: REGRESSION detected", file=sys.stderr)
            rc = EXIT_BAD_INPUT
    if any(row["exit_code"] != 0 for row in fresh):
        # A suite's own contract failed (overhead budget, bit-identity, ...)
        # even without --check; never report success over that.
        rc = rc or EXIT_BAD_INPUT
    return rc


def _load_schedule_or_fail(command: str, path: str):
    """Load a fault schedule for a CLI command; on failure print the reason
    (no traceback) to stderr and return None."""
    import json as _json

    from .faults import FaultSchedule

    try:
        return FaultSchedule.from_json(path)
    except (OSError, ValueError, KeyError, TypeError, _json.JSONDecodeError) as exc:
        print(f"repro {command}: cannot load fault schedule {path}: {exc}", file=sys.stderr)
        return None


def _chaos_schedule(args, horizon: int, num_groups: int):
    """The run's fault schedule: loaded from ``--schedule`` or generated;
    None when a requested schedule file cannot be read."""
    if args.schedule:
        return _load_schedule_or_fail("chaos", args.schedule)
    from .faults import FaultSchedule

    return FaultSchedule.generate(
        args.fault_seed,
        horizon=horizon,
        num_groups=num_groups,
        failure_rate=args.failure_rate,
        mean_repair=args.mean_repair,
        signal_rate=args.signal_rate,
        loss=args.loss,
        delay=args.delay,
        duplicate=args.duplicate,
    )


def _chaos_run(scenario, schedule, args, telemetry):
    """One seeded chaos run; returns (record, injector, policy)."""
    from .core.coca import COCA
    from .faults import DegradationPolicy, FaultInjector
    from .sim import simulate

    # --distributed chains are seeded from --fault-seed, like the schedule.
    solver = _build_solver(
        "distributed" if args.distributed else "auto", args.iterations, args.fault_seed
    )
    controller = COCA(
        scenario.model,
        scenario.environment.portfolio,
        v_schedule=args.v,
        alpha=scenario.alpha,
        solver=solver,
    )
    injector = FaultInjector(
        schedule, num_groups=scenario.model.fleet.num_groups
    )
    policy = DegradationPolicy(mode=args.fallback, retries=args.retries)
    record = simulate(
        scenario.model,
        controller,
        scenario.environment,
        telemetry=telemetry,
        faults=injector,
        degradation=policy,
    )
    return record, injector, policy


#: Record arrays compared for bit-identical chaos replays.
_REPLAY_FIELDS = (
    "cost",
    "brown_energy",
    "queue",
    "served",
    "dropped",
    "facility_power",
    "v_applied",
)


def _cmd_chaos(args) -> int:
    from .monitor import default_suite
    from .monitor.suite import MonitoringTracer
    from .telemetry import JsonlTracer, Telemetry, write_metrics

    scenario = _build_scenario(args)
    schedule = _chaos_schedule(
        args, scenario.horizon, scenario.model.fleet.num_groups
    )
    if schedule is None:
        return EXIT_BAD_INPUT
    if args.schedule_out:
        schedule.to_json(path=args.schedule_out)
        print(f"fault schedule written to {args.schedule_out}")
    profile = schedule.messages
    print(
        f"chaos: {len(schedule.events)} timed events over {scenario.horizon} h"
        + (
            f"; messages loss={profile.loss:.2f} delay={profile.delay:.2f} "
            f"duplicate={profile.duplicate:.2f}"
            if profile is not None
            else "; reliable messaging"
        )
    )
    if profile is not None and not args.distributed:
        print(
            "note: message faults only bite with --distributed "
            "(the default solvers pass no messages)"
        )

    # The monitor tap sits on the trace path, so the suite sees the run
    # live whether or not a trace file was requested.
    suite = default_suite()
    tracer = JsonlTracer(args.trace_out) if args.trace_out else None
    telemetry = Telemetry(tracer=MonitoringTracer(suite, tracer))
    record, injector, policy = _chaos_run(scenario, schedule, args, telemetry)
    suite.finalize()
    if tracer is not None:
        tracer.close()
        print(f"trace written to {args.trace_out} ({tracer.count} events)")
    if args.metrics_out:
        write_metrics(telemetry.metrics, args.metrics_out)
        print(f"metrics written to {args.metrics_out}")

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
    print(
        f"run: cost ${record.cost.sum():,.0f}, "
        f"brown {record.brown_energy.sum():.4g} MWh, "
        f"dropped {record.dropped.sum():.4g} req/s, "
        f"final queue {record.queue[-1]:.4g} MWh"
    )
    reports = suite.reports()
    passing = sum(1 for r in reports if r.passed)
    print(f"monitors: {passing}/{len(reports)} passing")
    for report in reports:
        if not report.passed:
            print(f"  FAIL {report.monitor}: {report.detail}", file=sys.stderr)

    ok = True
    if args.verify_replay:
        replayed, _, _ = _chaos_run(scenario, schedule, args, telemetry=None)
        mismatched = [
            name
            for name in _REPLAY_FIELDS
            if not np.array_equal(getattr(record, name), getattr(replayed, name))
        ]
        if mismatched:
            ok = False
            print(
                f"repro chaos: replay DIVERGED in {', '.join(mismatched)}",
                file=sys.stderr,
            )
        else:
            print("replay: bit-identical across "
                  f"{len(_REPLAY_FIELDS)} record arrays")
    if not ok:
        return EXIT_REPLAY_MISMATCH
    if args.strict and passing < len(reports):
        return EXIT_MONITOR_CRITICAL
    return 0


# -------------------------------------------------------------- scenarios
def _cmd_scenarios_list(args) -> int:
    from .advice import list_scenarios

    for name, description in list_scenarios():
        print(f"{name:20s} {description}")
    return 0


def _cmd_scenarios_run(args) -> int:
    import json

    from .advice import run_scenario
    from .monitor import default_suite
    from .monitor.suite import MonitoringTracer
    from .telemetry import JsonlTracer, Telemetry

    # The monitor tap sits on the advised run's trace path, so the
    # advice-trust monitor (and the rest of the default suite) sees the
    # scenario live -- exactly the wiring `repro chaos` uses.
    suite = default_suite()
    tracer = JsonlTracer(args.trace_out) if args.trace_out else None
    telemetry = Telemetry(tracer=MonitoringTracer(suite, tracer))
    try:
        result = run_scenario(
            args.name, horizon=args.horizon, lam=args.lam, telemetry=telemetry
        )
    except (KeyError, ValueError) as exc:
        reason = exc.args[0] if exc.args else exc
        print(f"repro scenarios: {reason}", file=sys.stderr)
        return EXIT_BAD_INPUT
    suite.finalize()
    if tracer is not None:
        tracer.close()

    reports = suite.reports()
    passing = sum(1 for r in reports if r.passed)
    guard = result.guard
    if args.json:
        payload = result.to_dict()
        payload["monitors"] = {
            "passing": passing,
            "total": len(reports),
            "failed": [r.monitor for r in reports if not r.passed],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            f"scenario {result.name}: {result.horizon} slots, "
            f"λ={result.lam:g}, V={result.v:.4g}"
        )
        print(
            f"advised ${result.advised_cost:,.0f} vs plain ${result.plain_cost:,.0f}"
            f" -> ratio {result.cost_ratio:.4f} "
            f"(bound {result.bound:.2f}: "
            f"{'holds' if result.bound_holds else 'VIOLATED'})"
        )
        print(
            f"advice: {guard['advised_slots']}/{result.horizon} slots advised, "
            f"{guard['budget_blocks']} budget block(s), "
            f"{len(guard['transitions'])} trust transition(s), "
            f"final {'trusted' if guard['trusted'] else 'untrusted'}"
        )
        if tracer is not None:
            print(f"trace written to {args.trace_out} ({tracer.count} events)")
        print(f"monitors: {passing}/{len(reports)} passing")
    for report in reports:
        if not report.passed:
            print(f"  FAIL {report.monitor}: {report.detail}", file=sys.stderr)
    if not result.bound_holds:
        print(
            f"repro scenarios: certified bound VIOLATED "
            f"(ratio {result.cost_ratio:.4f} > {result.bound:.2f})",
            file=sys.stderr,
        )
        return EXIT_MONITOR_CRITICAL
    if args.strict and passing < len(reports):
        return EXIT_MONITOR_CRITICAL
    return 0


# ------------------------------------------------------------ run / resume
#: Manifest file a checkpointed run writes next to its checkpoints; resume
#: rebuilds the identical scenario/controller/fault stack from it.
MANIFEST_NAME = "manifest.json"
_MANIFEST_FORMAT = "repro-run-manifest"


def _scenario_from_manifest(sc: dict):
    from .scenarios import paper_scenario, small_scenario

    kwargs: dict = {
        "workload": sc["workload"],
        "budget_fraction": sc["budget_fraction"],
    }
    if sc.get("seed") is not None:
        kwargs["seed"] = int(sc["seed"])
    if sc.get("horizon") is not None:
        kwargs["horizon"] = int(sc["horizon"])
    builder = paper_scenario if sc["scale"] == "paper" else small_scenario
    return builder(**kwargs)


def _materialize_run(manifest: dict, scenario=None):
    """Rebuild the full run stack a manifest describes.

    Returns ``(scenario, controller, injector, policy)``; ``injector`` and
    ``policy`` are None for fault-free runs.  Both ``repro run`` and
    ``repro resume`` construct the stack through this one function, so a
    resumed run is guaranteed to sit on the same deterministic foundation
    as the run that wrote the checkpoint.
    """
    from .core.coca import COCA
    from .faults import DegradationPolicy, FaultInjector, FaultSchedule

    if scenario is None:
        scenario = _scenario_from_manifest(manifest["scenario"])
    run = manifest["run"]
    controller = COCA(
        scenario.model,
        scenario.environment.portfolio,
        v_schedule=float(run["v"]),
        alpha=scenario.alpha,
        solver=_build_solver(run["solver"], run["iterations"], run["solver_seed"]),
    )
    advice = run.get("advice")
    if advice:
        # Advice-augmented runs wrap the same COCA in an AdvisedController
        # fed from the signal frames; a feed that never delivers forecast
        # payloads leaves the run bit-identical to the plain controller,
        # so a batch `repro resume` of an advised serve checkpoint is safe.
        from .advice import (
            AdvisedController,
            FeedForecastProvider,
            ForecastAdvisor,
            TrustGuard,
        )

        advisor = ForecastAdvisor(
            scenario.model,
            scenario.environment.portfolio,
            frame_length=int(advice["frame"]),
            horizon=scenario.horizon,
            provider=FeedForecastProvider(),
            alpha=scenario.alpha,
        )
        controller = AdvisedController(
            controller,
            advisor=advisor,
            guard=TrustGuard(lam=float(advice["lam"])),
        )
    injector = policy = None
    if manifest.get("schedule") is not None:
        schedule = FaultSchedule.from_dict(manifest["schedule"])
        injector = FaultInjector(
            schedule, num_groups=scenario.model.fleet.num_groups
        )
        policy = DegradationPolicy(
            mode=run["fallback"], retries=int(run["retries"])
        )
    return scenario, controller, injector, policy


def _print_run_summary(record) -> None:
    print(
        f"run: cost ${record.cost.sum():,.0f}, "
        f"brown {record.brown_energy.sum():.4g} MWh, "
        f"dropped {record.dropped.sum():.4g} req/s, "
        f"final queue {record.queue[-1]:.4g} MWh"
    )


def _maybe_save_record(args, record) -> None:
    if getattr(args, "record_out", None):
        from .state import save_record

        save_record(record, args.record_out)
        print(f"record written to {args.record_out}")


def _cmd_run(args) -> int:
    import json
    import os

    from .sim import simulate
    from .state import CheckpointWriter, atomic_write_text

    scenario_cfg = {
        "scale": args.scale,
        "horizon": args.horizon,
        "workload": args.workload,
        "seed": args.seed,
        "budget_fraction": args.budget_fraction,
    }
    scenario = _scenario_from_manifest(scenario_cfg)

    schedule = None
    if args.schedule or args.chaos:
        if args.schedule:
            schedule = _load_schedule_or_fail("run", args.schedule)
            if schedule is None:
                return EXIT_BAD_INPUT
        else:
            schedule = _chaos_schedule(
                args, scenario.horizon, scenario.model.fleet.num_groups
            )
        if args.schedule_out:
            schedule.to_json(path=args.schedule_out)
            print(f"fault schedule written to {args.schedule_out}")
    if (
        args.solve_deadline_ms is not None
        and args.solver == "distributed"
    ):
        print(
            "note: --solve-deadline-ms applies to the local iterative "
            "solvers (gsd/cd/enumeration); the distributed protocol "
            "ignores it",
            file=sys.stderr,
        )

    manifest = {
        "format": _MANIFEST_FORMAT,
        "version": 1,
        "scenario": scenario_cfg,
        "run": {
            "v": args.v,
            "solver": args.solver,
            "iterations": args.iterations,
            "solver_seed": args.fault_seed,
            "fallback": args.fallback,
            "retries": args.retries,
            "solve_deadline_ms": args.solve_deadline_ms,
        },
        "schedule": None if schedule is None else schedule.to_dict(),
        "checkpoint": {"every": args.checkpoint_every, "keep": args.checkpoint_keep},
    }
    _, controller, injector, policy = _materialize_run(manifest, scenario=scenario)

    writer = None
    if args.checkpoint_dir:
        os.makedirs(args.checkpoint_dir, exist_ok=True)
        atomic_write_text(
            os.path.join(args.checkpoint_dir, MANIFEST_NAME),
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        )
        writer = CheckpointWriter(
            args.checkpoint_dir,
            every=args.checkpoint_every,
            keep=args.checkpoint_keep,
        )
        print(
            f"checkpointing every {args.checkpoint_every} slot(s) "
            f"into {args.checkpoint_dir} (keep {args.checkpoint_keep})"
        )

    with _telemetry_scope(args) as telemetry:
        record = simulate(
            scenario.model,
            controller,
            scenario.environment,
            telemetry=telemetry,
            faults=injector,
            degradation=policy,
            checkpoint=writer,
            solve_deadline_ms=args.solve_deadline_ms,
            slot_sleep_s=args.slot_sleep_ms / 1000.0,
        )
    _print_run_summary(record)
    _maybe_save_record(args, record)
    return 0


def _cmd_resume(args) -> int:
    from .sim import simulate
    from .state import CheckpointError, CheckpointWriter, latest_valid_checkpoint

    manifest = _load_manifest_or_fail("resume", args.checkpoint_dir)
    if manifest is None:
        return EXIT_BAD_INPUT

    deadline_ms = manifest["run"].get("solve_deadline_ms")
    if args.verify_replay and deadline_ms is not None:
        # Deadline expiry depends on wall-clock speed, so a deadline-bounded
        # run is *expected* to diverge between machines; a bit-identity
        # check against it would only produce noise.
        print(
            "repro resume: --verify-replay is incompatible with a run that "
            "used --solve-deadline-ms (wall-clock deadlines intentionally "
            "break bit-replay)",
            file=sys.stderr,
        )
        return EXIT_BAD_INPUT

    with _telemetry_scope(args) as telemetry:
        ckpt = latest_valid_checkpoint(args.checkpoint_dir, telemetry=telemetry)
        if ckpt is None:
            print(
                f"repro resume: no valid checkpoint in {args.checkpoint_dir}",
                file=sys.stderr,
            )
            return EXIT_BAD_INPUT
        scenario, controller, injector, policy = _materialize_run(manifest)
        print(
            f"resuming from {ckpt.path} "
            f"(slot {ckpt.slot}/{scenario.horizon})"
        )
        writer = CheckpointWriter(
            args.checkpoint_dir,
            every=int(manifest["checkpoint"]["every"]),
            keep=int(manifest["checkpoint"]["keep"]),
        )
        try:
            record = simulate(
                scenario.model,
                controller,
                scenario.environment,
                telemetry=telemetry,
                faults=injector,
                degradation=policy,
                checkpoint=writer,
                resume_from=ckpt,
                solve_deadline_ms=deadline_ms,
            )
        except CheckpointError as exc:
            print(f"repro resume: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
    _print_run_summary(record)
    _maybe_save_record(args, record)

    if args.verify_replay:
        from .state import record_mismatches

        _, golden_ctrl, golden_inj, golden_pol = _materialize_run(
            manifest, scenario=scenario
        )
        golden = simulate(
            scenario.model,
            golden_ctrl,
            scenario.environment,
            faults=golden_inj,
            degradation=golden_pol,
        )
        mismatched = record_mismatches(record, golden)
        if mismatched:
            print(
                f"repro resume: replay DIVERGED in {', '.join(mismatched)}",
                file=sys.stderr,
            )
            return EXIT_REPLAY_MISMATCH
        print("replay: resumed run is bit-identical to an uninterrupted run")
    return 0


# ----------------------------------------------------------------- serve
def _serve_config(args):
    """A :class:`~repro.serve.ServeConfig` from the parsed CLI flags."""
    from .serve import ServeConfig

    return ServeConfig(
        source=args.source,
        feed=args.feed,
        slot_period_s=args.slot_period_s,
        signal_timeout_s=args.signal_timeout_s,
        poll_interval_s=args.poll_interval_s,
        solve_deadline_ms=args.solve_deadline_ms,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        checkpoint_keep=args.checkpoint_keep,
        status_port=args.status_port,
        status_port_file=args.status_port_file,
        dashboard_out=args.dashboard_out,
        dashboard_every=args.dashboard_every,
        alert_rearm=args.alert_rearm,
        max_slots=args.max_slots,
        source_seed=args.source_seed,
        fallback=args.fallback,
        retries=args.retries,
        synthetic={
            "p_drop": args.p_drop,
            "p_late": args.p_late,
            "p_field_loss": args.p_field_loss,
            "p_swap": args.p_swap,
        },
    )


def _load_manifest_or_fail(command: str, checkpoint_dir: str) -> dict | None:
    """Load a run manifest for a CLI command; on failure print the reason
    (no traceback) to stderr and return None."""
    import json
    import os

    manifest_path = os.path.join(checkpoint_dir, MANIFEST_NAME)
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        if manifest.get("format") != _MANIFEST_FORMAT:
            raise ValueError(f"not a {_MANIFEST_FORMAT} file")
        if manifest.get("run", {}).get("shards"):
            # The process-sharded solver is gone; resuming on GSDSolver
            # would silently diverge from the run that wrote the checkpoint.
            raise ValueError(
                "written with --shards, which was removed; start a new run"
            )
        return manifest
    except (OSError, ValueError, KeyError) as exc:
        print(f"repro {command}: cannot load {manifest_path}: {exc}", file=sys.stderr)
        return None


def _serve_build_feed(config, scenario, advice_frame=None):
    """(source, environment, injector, policy) for the configured feed.

    ``advice_frame`` (slots) makes the replay/synthetic sources attach a
    forecast payload to every frame-boundary signal frame; file feeds
    carry whatever payloads were written into them.

    Replay wraps the scenario's own environment (base-backed, so its
    checkpoints are interchangeable with batch ``repro run``) and attaches
    *no* injector: replay promises perfect delivery, and the fault-free
    runner path is exactly the batch path -- bit-identity by construction.
    Live feeds (file, synthetic) run over a bare :class:`LiveEnvironment`
    with an empty-schedule injector, so every feed loss degrades through
    the standard chaos machinery.
    """
    from .faults import DegradationPolicy, FaultInjector, FaultSchedule
    from .serve import (
        FileTailSignalSource,
        LiveEnvironment,
        ReplaySignalSource,
        SyntheticSignalSource,
    )

    if config.source == "replay":
        source = ReplaySignalSource(scenario.environment, advice_frame=advice_frame)
        environment = LiveEnvironment(scenario.horizon, base=scenario.environment)
        return source, environment, None, None
    if config.source == "file":
        source = FileTailSignalSource(config.feed)
    else:
        source = SyntheticSignalSource(
            scenario.environment,
            seed=config.source_seed,
            advice_frame=advice_frame,
            **config.synthetic,
        )
    environment = LiveEnvironment(scenario.horizon)
    injector = FaultInjector(
        FaultSchedule(), num_groups=scenario.model.fleet.num_groups
    )
    policy = DegradationPolicy(mode=config.fallback, retries=config.retries)
    return source, environment, injector, policy


def _cmd_serve(args) -> int:
    import json
    import os
    import signal as _signal
    import threading

    from .monitor import default_suite
    from .monitor.alerts import AlertChannel, stderr_sink
    from .monitor.suite import MonitoringTracer
    from .serve import (
        JOURNAL_NAME,
        ControlService,
        FrameJournal,
        StalenessResolver,
        StatusBoard,
        StatusServer,
        frames_from_environment,
    )
    from .state import (
        CheckpointError,
        CheckpointWriter,
        atomic_write_text,
        latest_valid_checkpoint,
    )
    from .telemetry import (
        JsonlTracer,
        MetricsRegistry,
        RingBufferTracer,
        Telemetry,
        write_metrics,
    )

    config = _serve_config(args)

    manifest = None
    if args.resume:
        if not args.checkpoint_dir:
            print(
                "repro serve: --resume requires --checkpoint-dir DIR",
                file=sys.stderr,
            )
            return EXIT_BAD_INPUT
        manifest = _load_manifest_or_fail("serve", args.checkpoint_dir)
        if manifest is None:
            return EXIT_BAD_INPUT
        # The manifest owns everything determinism depends on (scenario,
        # solver, feed identity); the current invocation keeps only the
        # operational knobs (pacing, ports, dashboard, max-slots).
        serve_cfg = manifest.get("serve", {})
        config.source = serve_cfg.get("source", config.source)
        config.feed = serve_cfg.get("feed", config.feed)
        config.source_seed = int(serve_cfg.get("source_seed", config.source_seed))
        config.synthetic = dict(serve_cfg.get("synthetic", config.synthetic))
        config.signal_timeout_s = float(
            serve_cfg.get("signal_timeout_s", config.signal_timeout_s)
        )
        config.fallback = manifest["run"].get("fallback", config.fallback)
        config.retries = int(manifest["run"].get("retries", config.retries))
        config.solve_deadline_ms = manifest["run"].get("solve_deadline_ms")
        config.checkpoint_every = int(manifest["checkpoint"]["every"])
        config.checkpoint_keep = int(manifest["checkpoint"]["keep"])

    problems = config.problems()
    if args.dry_run:
        if problems:
            for problem in problems:
                print(f"repro serve: {problem}", file=sys.stderr)
            print(f"dry run: {len(problems)} problem(s) found", file=sys.stderr)
            return EXIT_BAD_INPUT
        print(f"dry run: config ok ({config.describe()})")
        return 0
    if problems:
        for problem in problems:
            print(f"repro serve: {problem}", file=sys.stderr)
        return EXIT_BAD_INPUT

    if manifest is not None:
        scenario = _scenario_from_manifest(manifest["scenario"])
    else:
        scenario_cfg = {
            "scale": args.scale,
            "horizon": args.horizon,
            "workload": args.workload,
            "seed": args.seed,
            "budget_fraction": args.budget_fraction,
        }
        scenario = _scenario_from_manifest(scenario_cfg)
        if args.advice:
            if args.advice_lam < 0:
                print("repro serve: --advice-lam must be >= 0", file=sys.stderr)
                return EXIT_BAD_INPUT
            if args.advice_frame < 1 or scenario.horizon % args.advice_frame:
                print(
                    f"repro serve: --advice-frame {args.advice_frame} must "
                    f"divide the horizon ({scenario.horizon})",
                    file=sys.stderr,
                )
                return EXIT_BAD_INPUT
        manifest = {
            "format": _MANIFEST_FORMAT,
            "version": 1,
            "scenario": scenario_cfg,
            # The run block matches `repro run` exactly, and `schedule` is
            # None, so a batch `repro resume DIR` rebuilds the identical
            # fault-free stack from a serve checkpoint directory.
            "run": {
                "v": args.v,
                "solver": args.solver,
                "iterations": args.iterations,
                "solver_seed": args.solver_seed,
                    "fallback": config.fallback,
                "retries": config.retries,
                "solve_deadline_ms": config.solve_deadline_ms,
                # Advice identity lives in the run block so both serve
                # --resume and batch `repro resume` rebuild the same
                # (possibly advised) controller stack.
                "advice": (
                    {"lam": args.advice_lam, "frame": args.advice_frame}
                    if args.advice
                    else None
                ),
            },
            "schedule": None,
            "checkpoint": {
                "every": config.checkpoint_every,
                "keep": config.checkpoint_keep,
            },
            "serve": {
                "source": config.source,
                "feed": config.feed,
                "source_seed": config.source_seed,
                "synthetic": config.synthetic,
                "signal_timeout_s": config.signal_timeout_s,
            },
        }

    advice_cfg = manifest["run"].get("advice")
    source, environment, injector, policy = _serve_build_feed(
        config,
        scenario,
        advice_frame=int(advice_cfg["frame"]) if advice_cfg else None,
    )
    _, controller, _, _ = _materialize_run(manifest, scenario=scenario)
    if advice_cfg:
        print(
            f"advice: enabled (λ={float(advice_cfg['lam']):g}, "
            f"frame={int(advice_cfg['frame'])} slots; untrusted advice "
            "falls back to plain COCA)"
        )

    # Alerts stream to stderr as monitors raise them; --alert-rearm re-arms
    # a persisting condition every N slots instead of once per run.
    channel = AlertChannel([stderr_sink], dedup_window=config.alert_rearm)
    suite = default_suite(channel=channel)
    file_tracer = JsonlTracer(args.trace_out) if args.trace_out else None
    ring = None
    tap_inner = file_tracer
    if config.dashboard_every:
        ring = RingBufferTracer(inner=file_tracer)
        tap_inner = ring
    # Serve runs indefinitely, so histograms default to a bounded seeded
    # reservoir instead of append-forever raw lists (percentiles exact
    # until the reservoir fills, uniformly sampled after).
    reservoir = args.metrics_reservoir if args.metrics_reservoir > 0 else None
    telemetry = Telemetry(
        tracer=MonitoringTracer(suite, tap_inner),
        metrics=MetricsRegistry(reservoir=reservoir),
    )

    writer = journal = None
    journal_path = None
    if config.checkpoint_dir:
        os.makedirs(config.checkpoint_dir, exist_ok=True)
        journal_path = os.path.join(config.checkpoint_dir, JOURNAL_NAME)
        if not args.resume:
            atomic_write_text(
                os.path.join(config.checkpoint_dir, MANIFEST_NAME),
                json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            )
        writer = CheckpointWriter(
            config.checkpoint_dir,
            every=config.checkpoint_every,
            keep=config.checkpoint_keep,
        )

    from .sim.engine import SlotRunner

    runner = SlotRunner(
        scenario.model,
        controller,
        environment,
        telemetry=telemetry,
        faults=injector,
        degradation=policy,
        checkpoint=writer,
        solve_deadline_ms=config.solve_deadline_ms,
    )
    resolver = StalenessResolver(
        source,
        injector=runner.injector,
        telemetry=telemetry,
        timeout_s=config.signal_timeout_s,
        poll_interval_s=config.poll_interval_s,
    )
    runner.start()

    if args.resume:
        ckpt = latest_valid_checkpoint(config.checkpoint_dir, telemetry=telemetry)
        if ckpt is None:
            print(
                f"repro serve: no valid checkpoint in {config.checkpoint_dir}",
                file=sys.stderr,
            )
            return EXIT_BAD_INPUT
        # Refill the resolved prefix the checkpoint's fingerprint covers:
        # replay regenerates it from the scenario traces; live feeds replay
        # the journal (synthesized values exist nowhere else).
        if config.source == "replay":
            frames = [
                f
                for f in frames_from_environment(
                    scenario.environment,
                    advice_frame=int(advice_cfg["frame"]) if advice_cfg else None,
                )
                if f.slot < ckpt.slot
            ]
        else:
            frames = FrameJournal.load(journal_path, upto=ckpt.slot)
            if len(frames) < ckpt.slot:
                print(
                    f"repro serve: journal {journal_path} holds "
                    f"{len(frames)} frame(s) but the checkpoint is at slot "
                    f"{ckpt.slot}; cannot rebuild the resolved prefix",
                    file=sys.stderr,
                )
                return EXIT_BAD_INPUT
            FrameJournal.truncate(journal_path, frames)
        for frame in frames:
            environment.append(frame)
        try:
            runner.restore(ckpt)
        except CheckpointError as exc:
            print(f"repro serve: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
        source.seek(ckpt.slot)
        resolver.restore(frames[-1] if frames else None)
        print(f"resuming from {ckpt.path} (slot {ckpt.slot}/{scenario.horizon})")
    if journal_path is not None:
        journal = FrameJournal(journal_path)

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
        journal=journal,
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
        suite.finalize()
        if journal is not None:
            journal.close()
        source.close()
        if server is not None:
            server.close()
        if file_tracer is not None:
            file_tracer.close()
            print(f"trace written to {args.trace_out} ({file_tracer.count} events)")
        if args.metrics_out:
            write_metrics(telemetry.metrics, args.metrics_out)
            print(f"metrics written to {args.metrics_out}")

    reports = suite.reports()
    passing = sum(1 for r in reports if r.passed)
    for report in reports:
        if not report.passed:
            print(f"  FAIL {report.monitor}: {report.detail}", file=sys.stderr)

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

    _print_run_summary(result.record)
    _maybe_save_record(args, result.record)
    stats = resolver.stats()
    degraded = sum(v for k, v in stats.items() if k not in ("ok", "late"))
    print(
        f"signals: {stats['ok']} ok, {stats['late']} late, {degraded} degraded "
        f"({', '.join(f'{k}={v}' for k, v in stats.items() if k not in ('ok', 'late') and v)})"
        if degraded
        else f"signals: {stats['ok']} ok, {stats['late']} late"
    )
    print(f"monitors: {passing}/{len(reports)} passing")
    if args.strict and passing < len(reports):
        return EXIT_MONITOR_CRITICAL
    return 0


# ----------------------------------------------------------------- parser
def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    """The fault-schedule flags shared by ``chaos`` and ``run``."""
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=7,
        help="seed for the generated fault schedule (and message faults)",
    )
    parser.add_argument(
        "--failure-rate", type=float, default=0.02,
        help="per-slot, per-group failure probability",
    )
    parser.add_argument(
        "--mean-repair", type=float, default=6.0,
        help="mean slots a failed group stays down",
    )
    parser.add_argument(
        "--signal-rate", type=float, default=0.0,
        help="per-slot probability of a stale/missing observation fault",
    )
    parser.add_argument(
        "--loss", type=float, default=0.0, help="message loss probability"
    )
    parser.add_argument(
        "--delay", type=float, default=0.0, help="message delay probability"
    )
    parser.add_argument(
        "--duplicate", type=float, default=0.0,
        help="message duplication probability",
    )
    parser.add_argument(
        "--schedule", default=None, metavar="FILE",
        help="replay a fault schedule from JSON instead of generating one",
    )
    parser.add_argument(
        "--schedule-out", default=None, metavar="FILE",
        help="write the schedule (generated or loaded) to JSON for replay",
    )
    parser.add_argument(
        "--fallback",
        choices=["last_action", "proportional"],
        default="last_action",
        help="degraded action when a slot solve fails",
    )
    parser.add_argument(
        "--retries", type=int, default=1,
        help="slot-solve retries before falling back",
    )


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
    p.add_argument("--v-iters", type=int, default=9)
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
    p.add_argument("--v-iters", type=int, default=9)
    p.add_argument("--buckets", type=int, default=10)
    p.set_defaults(func=_cmd_compare_hp)

    p = sub.add_parser("budget-sweep", help="Fig. 5: budget sweep")
    _add_scenario_args(p)
    _add_telemetry_args(p)
    p.add_argument("--fractions", default="0.85,0.95,1.0")
    p.add_argument("--no-opt", action="store_true", help="skip the OPT baseline")
    p.add_argument("--v-iters", type=int, default=8)
    p.add_argument(
        "--workers", type=int, default=None, help="parallel processes for the sweep"
    )
    p.set_defaults(func=_cmd_budget_sweep)

    p = sub.add_parser("report", help="full markdown scenario report")
    _add_scenario_args(p)
    _add_telemetry_args(p)
    p.add_argument("--v", type=float, default=None)
    p.add_argument("--v-iters", type=int, default=9)
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
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit 2 when any invariant monitor fails (CI gating)",
    )
    p.set_defaults(func=_cmd_dashboard)

    p = sub.add_parser(
        "profile",
        help="profile a COCA run: sampling flamegraph with span attribution",
    )
    _add_scenario_args(p)
    _add_telemetry_args(p)
    p.add_argument("--v", type=float, default=150.0, help="fixed V for the run")
    p.add_argument(
        "--solver",
        choices=["auto", "gsd"],
        default="auto",
        help="P3 engine under the profiler (auto = exact enumeration)",
    )
    p.add_argument(
        "--iterations", type=int, default=200,
        help="iterations per solve for --solver gsd",
    )
    p.add_argument(
        "--solver-seed", type=int, default=7,
        help="RNG seed for the stochastic solvers",
    )
    p.add_argument(
        "--interval-ms", type=float, default=2.0, metavar="MS",
        help="sampling period on the profile clock",
    )
    p.add_argument(
        "--out-dir", "-o", default="profile", metavar="DIR",
        help="write profile.folded and profile.html here",
    )
    p.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="hotspot frames printed to the console",
    )
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "bench",
        help="run benchmark suites; append rows to the trend ledger",
    )
    p.add_argument(
        "suites", nargs="*", metavar="SUITE",
        help="suite names (default: every runnable suite; see --list)",
    )
    p.add_argument(
        "--bench-dir", default="benchmarks", metavar="DIR",
        help="directory scanned for bench_*.py suites",
    )
    p.add_argument(
        "--ledger", default="benchmarks/results/trend.jsonl", metavar="FILE",
        help="JSONL trend ledger to append to and check against",
    )
    p.add_argument(
        # Not benchmarks/results: ledger runs use shortened suite args
        # (--quick, fewer repeats), and writing there would clobber the
        # committed full-run references CI checks against.
        "--out-dir", default="benchmarks/results/latest", metavar="DIR",
        help="where suites write their BENCH_<suite>.json reports",
    )
    p.add_argument(
        "--list", action="store_true",
        help="list discovered suites (runnable or not) and exit",
    )
    p.add_argument(
        "--check", action="store_true",
        help="exit 1 when a gated counter regressed vs the previous "
        "ledger row for the same suite",
    )
    p.add_argument(
        "--tolerance", type=float, default=0.20, metavar="FRAC",
        help="relative growth allowed on gated counters with --check",
    )
    p.add_argument(
        "--no-append", action="store_true",
        help="run (and optionally check) without writing ledger rows",
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "chaos", help="COCA under seeded fault injection (chaos run)"
    )
    _add_scenario_args(p)
    _add_telemetry_args(p)
    _add_fault_args(p)
    p.add_argument("--v", type=float, default=150.0, help="fixed V for the run")
    p.add_argument(
        "--distributed",
        action="store_true",
        help="solve P3 with DistributedGSD so message faults apply",
    )
    p.add_argument(
        "--iterations", type=int, default=12,
        help="DistributedGSD iterations per solve (with --distributed)",
    )
    p.add_argument(
        "--verify-replay",
        action="store_true",
        help="run twice and require bit-identical records (exit 3 otherwise)",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit 2 when any invariant monitor fails (CI gating)",
    )
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "run",
        help="checkpointed long-horizon run (crash-safe, resumable)",
    )
    _add_scenario_args(p)
    _add_telemetry_args(p)
    _add_fault_args(p)
    p.add_argument("--v", type=float, default=150.0, help="fixed V for the run")
    p.add_argument(
        "--solver",
        choices=["auto", "gsd", "distributed"],
        default="auto",
        help="P3 engine (auto = exact enumeration/coordinate descent)",
    )
    p.add_argument(
        "--iterations", type=int, default=200,
        help="iterations per solve for --solver gsd/distributed",
    )
    p.add_argument(
        "--chaos",
        action="store_true",
        help="inject a generated fault schedule (see the fault flags)",
    )
    p.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="write crash-safe checkpoints (and the resume manifest) here",
    )
    p.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="checkpoint cadence in slots",
    )
    p.add_argument(
        "--checkpoint-keep", type=int, default=3, metavar="K",
        help="checkpoints retained in the rotation",
    )
    p.add_argument(
        "--solve-deadline-ms", type=float, default=None, metavar="MS",
        help="wall-clock budget per slot solve (anytime cut on expiry)",
    )
    p.add_argument(
        "--record-out", default=None, metavar="FILE",
        help="save the final SimulationRecord (.npz) for golden diffs",
    )
    p.add_argument(
        "--slot-sleep-ms", type=float, default=0.0, metavar="MS",
        help="sleep after each slot (crash-harness aid; results unchanged)",
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
    p.add_argument(
        "--verify-replay",
        action="store_true",
        help="also run uninterrupted and require bit-identical records "
             "(exit 3 otherwise)",
    )
    p.add_argument(
        "--record-out", default=None, metavar="FILE",
        help="save the final SimulationRecord (.npz) for golden diffs",
    )
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
    p.add_argument("--v", type=float, default=150.0, help="fixed V for the run")
    p.add_argument(
        "--solver",
        choices=["auto", "gsd", "distributed"],
        default="auto",
        help="P3 engine (auto = exact enumeration/coordinate descent)",
    )
    p.add_argument(
        "--iterations", type=int, default=200,
        help="iterations per solve for --solver gsd/distributed",
    )
    p.add_argument(
        "--solver-seed", type=int, default=7,
        help="RNG seed for the stochastic solvers",
    )
    p.add_argument(
        "--fallback",
        choices=["last_action", "proportional"],
        default="last_action",
        help="degraded action when a slot solve fails",
    )
    p.add_argument(
        "--retries", type=int, default=1,
        help="slot-solve retries before falling back",
    )
    p.add_argument(
        "--advice",
        action="store_true",
        help="wrap the controller with the learning-augmented advice layer "
        "(forecast payloads from the feed; see docs/ADVICE.md)",
    )
    p.add_argument(
        "--advice-lam", type=float, default=0.25, metavar="L",
        help="robustness knob λ: committed cost never exceeds (1+λ)× plain "
        "COCA",
    )
    p.add_argument(
        "--advice-frame", type=int, default=24, metavar="T",
        help="advice frame length in slots (must divide the horizon)",
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
    p.add_argument(
        "--solve-deadline-ms", type=float, default=None, metavar="MS",
        help="wall-clock budget per slot solve (anytime cut on expiry)",
    )
    p.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="write crash-safe checkpoints, the resume manifest, and the "
        "frame journal here",
    )
    p.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="checkpoint cadence in slots",
    )
    p.add_argument(
        "--checkpoint-keep", type=int, default=3, metavar="K",
        help="checkpoints retained in the rotation",
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
    p.add_argument(
        "--record-out", default=None, metavar="FILE",
        help="save the final SimulationRecord (.npz) for golden diffs",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit 2 when any invariant monitor fails (CI gating)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "scenarios",
        help="named learning-augmented advice scenarios (docs/ADVICE.md)",
    )
    ssub = p.add_subparsers(dest="scenarios_cmd", required=True, metavar="COMMAND")
    sp = ssub.add_parser("list", help="list the scenario pack")
    sp.set_defaults(func=_cmd_scenarios_list)
    sp = ssub.add_parser(
        "run",
        help="run one named scenario against its plain-COCA shadow",
    )
    sp.add_argument("name", help="scenario name (see `repro scenarios list`)")
    sp.add_argument(
        "--lam", type=float, default=0.25, metavar="L",
        help="robustness knob λ: advised cost is certified ≤ (1+λ)× plain",
    )
    sp.add_argument(
        "--horizon", type=int, default=24 * 7,
        help="slots to run (must be a multiple of the 24-slot advice frame)",
    )
    sp.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the advised run's JSONL event trace (advice.* stream)",
    )
    sp.add_argument(
        "--json", action="store_true",
        help="print the full result (costs, bound, guard summary) as JSON",
    )
    sp.add_argument(
        "--strict", action="store_true",
        help="exit 2 when any invariant monitor fails (CI gating); the "
        "certified (1+λ) bound is always enforced",
    )
    sp.set_defaults(func=_cmd_scenarios_run)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
