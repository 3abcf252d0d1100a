"""Checkpoint-write overhead benchmark (standalone, no pytest needed).

Crash-safe checkpoints are meant to be left on for every long-horizon run
(``repro run --checkpoint-every 1``), so their cost must stay within the
documented **5% overhead budget** relative to an un-checkpointed run (see
docs/OPERATIONS.md "Overhead budget") even at the most aggressive cadence
of one checkpoint per slot.

Method: the same closed-loop COCA run (small scenario, GSD solver at its
``repro run`` default of 200 iterations) is repeated ``--repeats`` times
per mode after a warm-up, once without a
:class:`~repro.state.CheckpointWriter` ("off") and once appending a record
*every slot* to a fresh checkpoint log with ``sync=False`` ("on") -- fsync
cost is the disk's, not the serializer's, and CI filesystems make it pure
noise.  Each repetition yields one *per-slot wall time* sample (run wall
time / horizon); state capture and the append both happen inside the
slot loop, so whole-slot wall time is the honest measure.

The budget is defined against the iterative solve path because that is
the configuration checkpoints exist for.  A GSD-200 slot of this scenario
takes ~6-8 ms on a shared 2-CPU x86_64 host; a record holds the O(1) run
state plus the slot's new rows, and docs/OPERATIONS.md ("Overhead
budget") has the measured runs.  On sub-millisecond slot loops (the
homogeneous-enumeration fast path) coarsen ``--checkpoint-every``.

The p50/p95 land in ``benchmarks/results/BENCH_checkpoint.json``::

    {
      "horizon": 96, "repeats": 5,
      "off": {"p50_ms": ..., "p95_ms": ...},
      "on":  {"p50_ms": ..., "p95_ms": ...},
      "overhead_pct": ..., "budget_pct": 5.0, "within_budget": true
    }

Run it directly (CI does)::

    PYTHONPATH=src python benchmarks/bench_checkpoint_overhead.py
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys
import tempfile
import time

import numpy as np

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Documented ceiling for checkpoint-every-slot, as a percent of the
#: un-checkpointed per-slot time (docs/OPERATIONS.md "Overhead budget").
BUDGET_PCT = 5.0


def _run_once(scenario, *, checkpoint_dir: str | None) -> float:
    """One full COCA run; returns wall seconds.  Fresh controller (and a
    fresh checkpoint log in a new directory under ``checkpoint_dir``) per
    call so no state leaks between repetitions."""
    from repro.core import COCA
    from repro.sim import simulate
    from repro.solvers import GSDSolver
    from repro.state import CheckpointWriter

    writer = None
    if checkpoint_dir is not None:
        writer = CheckpointWriter(
            tempfile.mkdtemp(dir=checkpoint_dir), every=1, sync=False
        )
    controller = COCA(
        scenario.model,
        scenario.environment.portfolio,
        v_schedule=120.0,
        alpha=scenario.alpha,
        solver=GSDSolver(iterations=200, rng=np.random.default_rng(0)),
    )
    started = time.perf_counter()
    simulate(
        scenario.model, controller, scenario.environment, checkpoint=writer
    )
    return time.perf_counter() - started


def measure(*, horizon: int, repeats: int, warmup: int) -> dict:
    """Interleaved off/on repetitions -> per-slot p50/p95 per mode."""
    from repro.scenarios import small_scenario

    scenario = small_scenario(horizon=horizon)
    workdir = tempfile.mkdtemp(prefix="bench-ckpt-")
    try:
        for _ in range(warmup):
            _run_once(scenario, checkpoint_dir=None)
            _run_once(scenario, checkpoint_dir=workdir)

        samples: dict[str, list[float]] = {"off": [], "on": []}
        # Interleave modes so clock drift / thermal state hits both equally,
        # and keep the pairs: machine-state drift across repetitions is
        # larger than the writer itself, so the overhead estimate is the
        # median of the *paired* on/off ratios (drift cancels within a
        # pair), not a ratio of cross-repetition medians.
        for _ in range(repeats):
            samples["off"].append(
                1e3 * _run_once(scenario, checkpoint_dir=None) / horizon
            )
            samples["on"].append(
                1e3 * _run_once(scenario, checkpoint_dir=workdir) / horizon
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def _stats(values: list[float]) -> dict:
        arr = np.asarray(values)
        return {
            "p50_ms": float(np.percentile(arr, 50)),
            "p95_ms": float(np.percentile(arr, 95)),
            "mean_ms": float(arr.mean()),
        }

    off, on = _stats(samples["off"]), _stats(samples["on"])
    ratios = np.asarray(samples["on"]) / np.asarray(samples["off"])
    overhead_pct = 100.0 * (float(np.median(ratios)) - 1.0)
    return {
        "benchmark": "checkpoint_overhead",
        "horizon": horizon,
        "repeats": repeats,
        "warmup": warmup,
        "solver": "gsd-200",
        "cadence": "every slot (append-only log, sync off)",
        "unit": "ms per slot (wall time / horizon)",
        "off": off,
        "on": on,
        "overhead_pct": overhead_pct,
        "budget_pct": BUDGET_PCT,
        "within_budget": overhead_pct <= BUDGET_PCT,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--horizon", type=int, default=96, help="slots per run")
    parser.add_argument("--repeats", type=int, default=5, help="timed runs per mode")
    parser.add_argument("--warmup", type=int, default=1, help="untimed runs per mode")
    parser.add_argument(
        "--output",
        "-o",
        default=str(RESULTS_DIR / "BENCH_checkpoint.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when the measured overhead exceeds the budget",
    )
    args = parser.parse_args(argv)

    report = measure(horizon=args.horizon, repeats=args.repeats, warmup=args.warmup)
    out = pathlib.Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"checkpoint-every-slot overhead: {report['overhead_pct']:+.2f}% "
        f"(median paired ratio; off p50 {report['off']['p50_ms']:.3f} ms/slot, "
        f"on p50 {report['on']['p50_ms']:.3f} ms/slot; "
        f"budget {report['budget_pct']:g}%) -> {out}"
    )
    if args.check and not report["within_budget"]:
        print("checkpoint overhead exceeds budget", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
