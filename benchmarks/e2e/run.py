"""End-to-end benchmark of the shipped ``repro`` CLI paths.

Usage::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed S]
        [--trace [0|1]] [--smoke] [--out DIR]

Each workload (see ``workloads.py``) runs as child processes, one at a
time.  The timed pass runs ``REPEATS`` children on the seed and one more
child on ``REFERENCE_SEED``, which gives the quality metrics; children of
one seed must produce bit-identical costs.  Times are pooled over all
children and taken at the reference speed of ``speed.py``.
``--trace`` instead runs one untraced and one traced child and reports
the per-layer metrics.  ``--seconds`` is accepted only as the
``run_seconds`` of ``BENCHMARK.json``: a run measures a fixed amount of
work, which takes about that long.

Every metric named in ``BENCHMARK.json`` for the pass is printed with its
unit, the output checks run on every child, and the last line of stdout is
one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With several workloads, metric names are prefixed ``<workload>.``.  The
exit code is non-zero when any check fails or a child crashes; no JSON
line is printed then.  Results are appended to ``<out>/results.jsonl``
for ``compare.py``, and traced spans go to ``<out>/<workload>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from workloads import REFERENCE_SEED, REPEATS, WORKLOADS  # noqa: E402

perf = time.perf_counter

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

#: Children of one workload are killed after this many seconds in total.
WORKLOAD_TIMEOUT_S = 170


def percentile(ordered: list[float], q: float) -> float:
    """Linear-interpolation percentile of a sorted list (numpy's default)."""
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def git_rev() -> str:
    """The checkout's commit, read from ``.git`` (``unknown`` outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_stamp() -> dict:
    """What ``compare.py`` must find equal before it compares two results."""
    from importlib.metadata import PackageNotFoundError, version

    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = "absent"
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_rev": git_rev(),
    }


# ---------------------------------------------------------------- children
def run_child(name: str, seed: int, args, index: int, deadline: float,
              *extra: str) -> dict | None:
    """One child on ``seed``; its JSON result, or None after reporting why not."""
    tmp = pathlib.Path(args.out) / "tmp" / f"{name}-{os.getpid()}-{index}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", name,
        "--seed", str(seed), "--tmp", str(tmp), *extra,
    ]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, cwd=ROOT,
            timeout=max(deadline - perf(), 1.0),
        )
    except subprocess.TimeoutExpired:
        print(f"{name}: child timed out", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name}: child exited {proc.returncode}", file=sys.stderr)
        print(proc.stderr[-4000:], file=sys.stderr)
        return None
    return {**json.loads(lines[-1]), "seed": seed}


def timed_metrics(children: list[dict]) -> tuple[dict, dict]:
    """(end-to-end metrics, diagnostics) of a workload's timed children;
    the last one ran on ``REFERENCE_SEED``.

    The slots of all children are pooled, each timed at the reference
    speed of ``speed.py``; the raw wall times are diagnostics.  The child
    count is fixed, so every commit takes as many samples.  Setup time is
    the median over the children.
    """
    def pooled(key: str) -> list[float]:
        return sorted(1000.0 * x for r in children for x in r[key])

    step_ms, raw_ms = pooled("step_ref_s"), pooled("step_s")
    slots = len(step_ms)
    reference = children[-1]
    metrics = {
        "setup_s": statistics.median(r["setup_ref_s"] for r in children),
        "slots_per_s": slots / sum(sum(r["cycle_ref_s"]) for r in children),
        "step_ms_p50": percentile(step_ms, 50),
        "step_ms_p90": percentile(step_ms, 90),
        "cost_usd": reference["cost_usd"],
        "budget_use": reference["budget_use"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in children),
    }
    diagnostics = {
        "step_samples": slots,
        "sim.step_ms_p99": percentile(step_ms, 99),
        "raw.setup_s": statistics.median(r["setup_s"] for r in children),
        "raw.slots_per_s": slots / sum(sum(r["cycle_s"]) for r in children),
        "raw.step_ms_p50": percentile(raw_ms, 50),
        "raw.step_ms_p90": percentile(raw_ms, 90),
        "kernel_ms": 1000.0 * statistics.median(r["kernel_s"] for r in children),
        "seed_cost_usd": children[0]["cost_usd"],
        "seed_budget_use": children[0]["budget_use"],
        "ops_failed_frac": (
            sum(r["ops_failed"] for r in children) / sum(r["horizon"] for r in children)
        ),
        "fallbacks": sum(r["fallbacks"] for r in children),
        "dropped_slots": sum(r["dropped_slots"] for r in children),
    }
    return metrics, diagnostics


def check_children(children: list[dict]) -> dict[str, str]:
    """Merge the children's checks and compare the cost columns of the
    children that ran one seed."""
    checks: dict[str, str] = {}
    for i, child in enumerate(children):
        for name, verdict in child["checks"].items():
            if verdict != "ok" and name not in checks:
                checks[name] = f"child {i}: {verdict}"
            checks.setdefault(name, "ok")
    digests: dict[int, set] = {}
    for child in children:
        digests.setdefault(child["seed"], set()).add(child["cost_sha256"])
    split = {seed: len(d) for seed, d in digests.items() if len(d) > 1}
    checks["repeat_identity"] = "ok" if not split else "; ".join(
        f"seed {seed}: {n} distinct cost columns" for seed, n in split.items()
    )
    return checks


def run_workload(name: str, args) -> dict | None:
    """All children of one workload; None when one of them crashed."""
    deadline = perf() + WORKLOAD_TIMEOUT_S
    if args.trace:
        spans = str(pathlib.Path(args.out) / f"{name}.spans.jsonl")
        runs = [(args.seed, ()), (args.seed, ("--trace-out", spans))]
    else:
        runs = [(args.seed, ())] * REPEATS + [(REFERENCE_SEED, ())]
    children: list[dict] = []
    for index, (seed, extra) in enumerate(runs):
        result = run_child(name, seed, args, index, deadline, *extra)
        if result is None:
            return None
        children.append(result)

    if args.trace:
        untraced, traced = children
        metrics = dict(traced["layers"])
        metrics["trace.overhead_frac"] = (
            statistics.median(traced["step_ref_s"])
            / statistics.median(untraced["step_ref_s"]) - 1.0
        )
        metrics["sim.step_ms_p99"] = 1000.0 * percentile(sorted(untraced["step_ref_s"]), 99)
        diagnostics = {"absent": traced["absent"]}
    else:
        metrics, diagnostics = timed_metrics(children)

    names = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    return {
        "workload": name,
        "repeats": REPEATS,
        "metrics": {n: metrics[n] for n in names},
        "diagnostics": diagnostics,
        "checks": check_children(children),
        "attempted": sum(r["horizon"] for r in children),
        "failed": sum(r["ops_failed"] for r in children),
    }


# -------------------------------------------------------------------- main
def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument(
        "--seconds", type=int, default=SPEC["run_seconds"],
        help="must be BENCHMARK.json's run_seconds; the work per run is fixed",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report per-layer metrics from a traced run instead",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fleet, 48 slots per workload, all checks",
    )
    parser.add_argument("--out", default=str(HERE / "out"))
    args = parser.parse_args(argv)
    if args.seconds != SPEC["run_seconds"]:
        parser.error(f"--seconds must be {SPEC['run_seconds']} (BENCHMARK.json run_seconds)")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    stamp = host_stamp()
    print("host: " + ", ".join(f"{k}={v}" for k, v in stamp.items()))

    results = []
    for name in args.workload or list(WORKLOADS):
        result = run_workload(name, args)
        if result is None:
            return 1
        results.append(result)
        for metric, value in result["metrics"].items():
            print(f"{name:12s} {metric:32s} {value:16.6g} {UNITS[metric]}")
        for metric, value in result["diagnostics"].items():
            print(f"{name:12s} {metric:32s} {value!s:>16} (diagnostic)")
        for check, verdict in result["checks"].items():
            print(f"{name:12s} check {check:26s} {verdict}")

    with open(os.path.join(args.out, "results.jsonl"), "a") as fh:
        for result in results:
            fh.write(json.dumps({
                "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
                "host": stamp, **result,
            }) + "\n")

    if any(v != "ok" for r in results for v in r["checks"].values()):
        print("output checks FAILED", file=sys.stderr)
        return 1
    prefix = len(results) > 1
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{m}" if prefix else m): {"value": v, "unit": UNITS[m]}
            for r in results for m, v in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
