"""The unified benchmark registry and trend ledger behind ``repro bench``.

Before this module the repo's performance record was three disconnected
``BENCH_*.json`` snapshots, each written by hand from a different script
invocation.  The ledger unifies them:

- **Discovery.**  Every ``benchmarks/bench_*.py`` is a candidate suite; the
  *runnable* ones expose a standalone ``main(argv) -> int`` CLI with a
  ``-o FILE`` JSON report (the convention established by
  ``bench_solver_fastpath`` / ``bench_monitor_overhead`` /
  ``bench_checkpoint_overhead``; the ``bench_fig*`` scripts are
  figure-reproduction drivers and are listed but not runnable here).
- **Rows.**  One run of one suite appends one JSON line to
  ``benchmarks/results/trend.jsonl``: suite name, timestamp (caller
  provided), git revision, CLI args, exit code, wall time, and *every*
  numeric leaf of the suite's JSON report flattened to dotted keys.  The
  ledger is append-only history -- regressions become a diffable series
  instead of a single overwritten snapshot.
- **Host stamps.**  Every row records the host it ran on (CPU affinity
  count and Python version, :func:`host_stamp`); a row is only ever
  compared against history from a like host.
- **Verdict.**  ``check_rows`` compares each fresh row against the previous
  ledger row for the same suite from a like host: deterministic work
  counters (the ``GATE_METRICS`` patterns, e.g. GSD inner-solve counts,
  which are exact under fixed seeds) gate at a relative tolerance;
  wall-times ride along as advisory context (noisy CI runners cannot gate
  on them -- the same stance the ``monitoring-artifacts`` CI job takes).
  A suite whose own ``main`` exits non-zero always fails the verdict, so
  each suite's internal contracts (warm-start tolerance, fast-path
  floors, overhead budget) stay enforced.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from glob import glob

__all__ = [
    "BenchSuite",
    "BenchResult",
    "DEFAULT_LEDGER",
    "GATE_METRICS",
    "SUITE_ARGS",
    "discover_benches",
    "run_suite",
    "flatten_metrics",
    "make_row",
    "append_row",
    "load_rows",
    "check_rows",
    "git_revision",
    "host_stamp",
]

#: Default ledger location, relative to the repo root.
DEFAULT_LEDGER = os.path.join("benchmarks", "results", "trend.jsonl")

#: Default argv per runnable suite (quick-but-meaningful configurations;
#: suites not listed here run with their own defaults).
SUITE_ARGS: dict[str, tuple[str, ...]] = {
    # solver_fastpath self-checks against its committed full-run reference:
    # the >20% inner-solve tolerance, the shipped GSD chain within 1e-9 of
    # its cold chain (warm starts patched off), and two floors on that
    # shipped chain: >= 3x fewer cold inner solves than candidates scored,
    # and warm inner solves taking >= 3x fewer bisection steps than the
    # cold chain's (all seed-determined).  A breach exits non-zero, which
    # fails the ledger verdict even without a prior trend row.
    "solver_fastpath": (
        "--quick",
        "--check",
        os.path.join("benchmarks", "results", "BENCH_solver_fastpath.json"),
    ),
    "checkpoint_overhead": ("--horizon", "48", "--repeats", "2", "--warmup", "1"),
    "monitor_overhead": ("--horizon", "96", "--repeats", "3", "--warmup", "1"),
    "span_overhead": ("--horizon", "96", "--repeats", "3", "--warmup", "1"),
    # scale checks the shipped GSD chain against the cold chain (1e-9) at
    # every fleet size; the week-wall-clock acceptance runs in the
    # dedicated scale-smoke CI job with the full 168-slot horizon, so the
    # ledger run skips it.
    "scale": ("--repeats", "2", "--skip-week", "--check"),
}

#: Per-suite metric-name substrings that gate the --check verdict.  Only
#: deterministic counters belong here: they are exact under fixed seeds, so
#: any increase beyond tolerance is a real regression, not runner noise.
GATE_METRICS: dict[str, tuple[str, ...]] = {
    "solver_fastpath": ("inner_solves", "cold_solves", "evaluations"),
    # The chain's evaluation count is a pure function of the seed, so any
    # growth is a real algorithmic regression, not runner noise.
    "scale": ("evaluations",),
}

#: Default relative tolerance for gated counters (matches the existing
#: bench_solver_fastpath REGRESSION_TOLERANCE).
DEFAULT_TOLERANCE = 0.20


@dataclass(frozen=True)
class BenchSuite:
    """One discovered ``benchmarks/bench_*.py`` script."""

    name: str  # "solver_fastpath" for bench_solver_fastpath.py
    path: str
    runnable: bool  # exposes main(argv) (the standalone-CLI convention)

    @property
    def default_args(self) -> tuple[str, ...]:
        return SUITE_ARGS.get(self.name, ())


@dataclass(frozen=True)
class BenchResult:
    """Outcome of one suite run."""

    suite: BenchSuite
    args: tuple[str, ...]
    exit_code: int
    wall_s: float
    report: dict


def discover_benches(bench_dir: str) -> dict[str, BenchSuite]:
    """Map suite name -> :class:`BenchSuite` for every ``bench_*.py``."""
    suites: dict[str, BenchSuite] = {}
    for path in sorted(glob(os.path.join(bench_dir, "bench_*.py"))):
        stem = os.path.splitext(os.path.basename(path))[0]
        name = stem[len("bench_"):]
        with open(path) as fh:
            source = fh.read()
        suites[name] = BenchSuite(
            name=name, path=path, runnable="def main(" in source
        )
    return suites


def run_suite(
    suite: BenchSuite,
    *,
    out_dir: str,
    extra_args: tuple[str, ...] = (),
) -> BenchResult:
    """Run one suite in-process and collect its JSON report.

    The suite module is imported by path (so ``repro bench`` works from any
    checkout layout) and its ``main`` is called with the suite's default
    args plus ``extra_args`` plus ``-o <tmp>``; the report is whatever JSON
    the suite wrote there.  ``SystemExit`` is treated as a return code.
    """
    if not suite.runnable:
        raise ValueError(f"suite {suite.name!r} has no standalone main(argv) CLI")
    os.makedirs(out_dir, exist_ok=True)
    out_json = os.path.join(out_dir, f"BENCH_{suite.name}.json")
    spec = importlib.util.spec_from_file_location(
        f"repro_bench_{suite.name}", suite.path
    )
    module = importlib.util.module_from_spec(spec)
    args = (*suite.default_args, *extra_args, "-o", out_json)
    started = time.perf_counter()
    try:
        spec.loader.exec_module(module)
        code = module.main(list(args))
    except SystemExit as exc:  # argparse errors, explicit sys.exit
        code = int(exc.code or 0)
    wall = time.perf_counter() - started
    report: dict = {}
    if os.path.exists(out_json):
        with open(out_json) as fh:
            report = json.load(fh)
    return BenchResult(
        suite=suite,
        args=args,
        exit_code=int(code or 0),
        wall_s=wall,
        report=report,
    )


def flatten_metrics(obj, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a nested report, dotted-keyed; bools become 0/1."""
    flat: dict[str, float] = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            sub = f"{prefix}.{key}" if prefix else str(key)
            flat.update(flatten_metrics(value, sub))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            flat.update(flatten_metrics(value, f"{prefix}.{i}" if prefix else str(i)))
    elif isinstance(obj, bool):
        flat[prefix] = 1.0 if obj else 0.0
    elif isinstance(obj, (int, float)):
        flat[prefix] = float(obj)
    return flat


def git_revision(repo_dir: str | None = None) -> str:
    """Short git revision of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo_dir,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def host_stamp() -> dict:
    """The host facts a timing depends on: the CPUs this process may run
    on (its affinity set, not the machine's core count) and the Python
    ``major.minor`` version."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cpus = os.cpu_count() or 1
    return {"cpus": cpus, "python": f"{sys.version_info[0]}.{sys.version_info[1]}"}


def make_row(result: BenchResult, *, git_rev: str, timestamp: str) -> dict:
    """One ledger line for one suite run, stamped with :func:`host_stamp`."""
    return {
        "schema": 1,
        "suite": result.suite.name,
        "timestamp": timestamp,
        "git_rev": git_rev,
        "host": host_stamp(),
        "args": list(result.args),
        "exit_code": result.exit_code,
        "wall_s": result.wall_s,
        "metrics": flatten_metrics(result.report),
    }


def append_row(path: str, row: dict) -> None:
    """Append one JSON line to the ledger, creating directories as needed."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")


def load_rows(path: str) -> list[dict]:
    """All ledger rows in file order; missing file -> empty history."""
    if not os.path.exists(path):
        return []
    rows: list[dict] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def check_rows(
    history: list[dict],
    fresh: list[dict],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[bool, list[str]]:
    """Regression verdict for ``fresh`` rows against prior ``history``.

    Returns ``(ok, messages)``.  For each fresh row: a non-zero suite exit
    code fails outright; each gated counter (see :data:`GATE_METRICS`) is
    compared against the *most recent* prior row for the same suite whose
    ``host`` stamp matches the fresh row's, and fails when it grew by more
    than ``tolerance`` relative.  Rows from an unlike host are never
    compared; a suite with no prior row from a like host passes (the
    fresh row seeds that host's trend) with a note.
    """
    ok = True
    messages: list[str] = []
    for row in fresh:
        suite = row.get("suite", "?")
        if row.get("exit_code", 0) != 0:
            ok = False
            messages.append(
                f"{suite}: suite main() exited {row['exit_code']} "
                "(internal contract violation)"
            )
            continue
        host = row.get("host")
        same_suite = [c for c in history if c.get("suite") == suite]
        like = [c for c in same_suite if c.get("host") == host]
        if not like:
            if same_suite:
                messages.append(
                    f"{suite}: no prior ledger row from a like host "
                    f"({_describe_host(host)}; latest prior row ran on "
                    f"{_describe_host(same_suite[-1].get('host'))}); seeding trend"
                )
            else:
                messages.append(f"{suite}: no prior ledger row; seeding trend")
            continue
        prior = like[-1]
        patterns = GATE_METRICS.get(suite, ())
        metrics = row.get("metrics", {})
        prior_metrics = prior.get("metrics", {})
        gated = 0
        for key, value in sorted(metrics.items()):
            if not any(pat in key for pat in patterns):
                continue
            base = prior_metrics.get(key)
            if base is None or base <= 0:
                continue
            gated += 1
            ratio = value / base
            if ratio > 1.0 + tolerance:
                ok = False
                messages.append(
                    f"{suite}: {key} regressed {base:g} -> {value:g} "
                    f"({100 * (ratio - 1):+.1f}% > {100 * tolerance:.0f}% tolerance)"
                )
        messages.append(
            f"{suite}: {gated} gated counters vs {prior.get('git_rev', '?')}"
            f"@{prior.get('timestamp', '?')}, wall {row.get('wall_s', 0.0):.2f}s "
            f"(prior {prior.get('wall_s', 0.0):.2f}s, advisory)"
        )
    return ok, messages


def _describe_host(host: dict | None) -> str:
    if not host:
        return "an unstamped host"
    return f"cpus={host.get('cpus')}, python {host.get('python')}"
