"""Paper-scale fleet throughput: sharded vs single-process GSD (standalone).

The sharded solver exists for one reason -- to push the per-slot GSD chain
past what one process can do on a paper-scale fleet -- so this suite
measures exactly that: **slots per second** (one slot = one full
``iterations``-step solve) at 200 / 2 000 / 10 000 server groups, for the
single-process chain the CLI ships (``GSDSolver()``: class-compressed
water-fill, warm starts) and for the process-sharded chain across a
sweep of shard counts, from a *warm* worker pool (cold spawn is a one-time
cost the warm pool exists to amortize; it is reported separately).

Two internal contracts gate ``--check``:

- **Throughput**: at the largest fleet the best sharded configuration must
  be at least as fast as the single-process solver (the whole point of
  paying the IPC overhead).  Median-of-repeats damps runner noise.  On a
  host with a single usable CPU, parallel speedup is physically
  unavailable and the gate degrades to an IPC-overhead bound: sharded must
  stay within 20% of single-process (the report records which mode ran).
- **Week wall-clock**: a simulated week (168 slots, diurnally varying
  load, operational iteration count) on the largest fleet must finish
  under the documented 5-minute budget (docs/SCALING.md).

Every timed sharded solve is also differentially checked against the
cold batched single-process chain (``GSDSolver(batched=True,
warm_start=False)``, whose arithmetic it shares: bit-identical objective
and levels), and the shipped chain against that reference within the
1e-9 objective contract -- a scale benchmark that quietly computed the
wrong answer would be worse than a slow one.  The reference chain's own
wall time is reported as ``batched_cold_solve_s``.  The deterministic ``evaluations`` counter lands in the report
for the trend ledger to gate (see ``repro bench``).

Run it directly (CI does)::

    PYTHONPATH=src python benchmarks/bench_scale.py --check
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

import numpy as np

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: docs/SCALING.md acceptance: a 10k-group week simulates in under 5 min.
WEEK_BUDGET_S = 300.0
WEEK_SLOTS = 168

#: Single-CPU fallback: with no second core to run workers on, the gate
#: bounds the IPC + coordination overhead instead of demanding a speedup.
SINGLE_CPU_FLOOR = 0.8


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _mixed_fleet(num_groups: int, seed: int = 42):
    from repro.cluster import Fleet, ServerGroup, cubic_dvfs_profile, opteron_2380

    rng = np.random.default_rng(seed)
    profiles = (opteron_2380, cubic_dvfs_profile)
    return Fleet(
        [
            ServerGroup(profiles[g % 2](), int(rng.integers(2, 15)))
            for g in range(num_groups)
        ]
    )


def _slot_problem(model, lam_frac: float):
    lam = lam_frac * model.fleet.capacity(model.gamma)
    return model.slot_problem(
        arrival_rate=lam, onsite=0.2, price=40.0, q=5.0, V=1.0
    )


def _time_solves(solve, repeats: int) -> float:
    """Median wall seconds over ``repeats`` solves (first call not timed
    here; the caller warms the pool/caches beforehand)."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        solve()
        samples.append(time.perf_counter() - started)
    return float(np.median(samples))


def measure_fleet(
    num_groups: int, *, shard_counts: list[int], iterations: int, repeats: int
) -> dict:
    """Single vs sharded slots/sec on one fleet size, warm-pool timings."""
    from repro.core import DataCenterModel
    from repro.solvers import GSDSolver, ShardedGSDSolver

    model = DataCenterModel(fleet=_mixed_fleet(num_groups), beta=10.0)
    problem = _slot_problem(model, 0.5)

    def single_solve():
        return GSDSolver(iterations=iterations, rng=np.random.default_rng(0)).solve(
            problem
        )

    started = time.perf_counter()
    reference = GSDSolver(
        iterations=iterations,
        rng=np.random.default_rng(0),
        batched=True,
        warm_start=False,
    ).solve(problem)
    reference_s = time.perf_counter() - started
    shipped = single_solve()  # also warms the process (imports, allocator)
    rel = abs(shipped.objective - reference.objective) / abs(reference.objective)
    if rel > 1e-9 or not np.array_equal(shipped.action.levels, reference.action.levels):
        raise AssertionError(
            f"shipped single-process chain left the 1e-9 contract at "
            f"{num_groups} groups (relative objective error {rel:.3g})"
        )
    single_s = _time_solves(single_solve, repeats)

    sharded: dict[str, dict] = {}
    for shards in shard_counts:
        with ShardedGSDSolver(
            shards=shards, iterations=iterations, rng=np.random.default_rng(0)
        ) as solver:
            spawn_started = time.perf_counter()
            sol = solver.solve(problem)  # cold: spawns + ships the problem
            cold_s = time.perf_counter() - spawn_started
            if (
                sol.info["final_objective"] != reference.info["final_objective"]
                or not np.array_equal(sol.action.levels, reference.action.levels)
            ):
                raise AssertionError(
                    f"sharded (S={shards}) diverged from single-process at "
                    f"{num_groups} groups -- determinism contract broken"
                )
            warm_s = _time_solves(lambda: solver.solve(problem), repeats)
        sharded[f"s{shards}"] = {
            "shards": shards,
            "cold_first_solve_s": cold_s,
            "solve_s": warm_s,
            "slots_per_s": 1.0 / warm_s,
        }

    best = max(sharded.values(), key=lambda row: row["slots_per_s"])
    return {
        "groups": num_groups,
        "evaluations": reference.info["evaluations"],
        "single": {"solve_s": single_s, "slots_per_s": 1.0 / single_s},
        "batched_cold_solve_s": reference_s,
        "sharded": sharded,
        "best_sharded": {
            "shards": best["shards"],
            "slots_per_s": best["slots_per_s"],
            "speedup_vs_single": best["slots_per_s"] * single_s,
        },
    }


def measure_week(
    num_groups: int, *, shards: int, iterations: int, slots: int
) -> dict:
    """Wall-clock for a simulated week: ``slots`` sequential solves with a
    diurnal load profile, one warm solver instance (the serving shape)."""
    from repro.core import DataCenterModel
    from repro.solvers import ShardedGSDSolver

    model = DataCenterModel(fleet=_mixed_fleet(num_groups), beta=10.0)
    hours = np.arange(slots)
    lam_fracs = 0.5 + 0.2 * np.sin(2.0 * np.pi * hours / 24.0)

    with ShardedGSDSolver(
        shards=shards, iterations=iterations, rng=np.random.default_rng(0)
    ) as solver:
        solver.solve(_slot_problem(model, 0.5))  # warm the pool
        started = time.perf_counter()
        for frac in lam_fracs:
            solver.solve(_slot_problem(model, float(frac)))
        wall = time.perf_counter() - started

    return {
        "groups": num_groups,
        "slots": slots,
        "shards": shards,
        "iterations": iterations,
        "wall_s": wall,
        "slots_per_s": slots / wall,
        "budget_s": WEEK_BUDGET_S,
        "under_budget": wall <= WEEK_BUDGET_S,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--groups", default="200,2000,10000",
        help="comma-separated fleet sizes (largest one carries the gates)",
    )
    parser.add_argument(
        "--shards", default="2,4,8", help="comma-separated shard counts"
    )
    parser.add_argument(
        "--iterations", type=int, default=30, help="GSD iterations per timed slot"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timed solves per configuration"
    )
    parser.add_argument(
        "--week-slots", type=int, default=WEEK_SLOTS,
        help="slots in the simulated week",
    )
    parser.add_argument(
        "--week-iterations", type=int, default=8,
        help="GSD iterations per week slot (the operational chaos-run depth)",
    )
    parser.add_argument(
        "--skip-week", action="store_true",
        help="skip the week-wall-clock measurement (and its gate)",
    )
    parser.add_argument(
        "--output", "-o", default=str(RESULTS_DIR / "BENCH_scale.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 when a throughput or week-budget gate fails",
    )
    args = parser.parse_args(argv)

    group_counts = [int(g) for g in args.groups.split(",") if g]
    shard_counts = [int(s) for s in args.shards.split(",") if s]

    fleets = {}
    for num_groups in group_counts:
        row = measure_fleet(
            num_groups,
            shard_counts=[s for s in shard_counts if s <= num_groups],
            iterations=args.iterations,
            repeats=args.repeats,
        )
        fleets[f"g{num_groups}"] = row
        print(
            f"{num_groups:>6} groups: single {row['single']['slots_per_s']:.2f} "
            f"slots/s; best sharded (S={row['best_sharded']['shards']}) "
            f"{row['best_sharded']['slots_per_s']:.2f} slots/s "
            f"({row['best_sharded']['speedup_vs_single']:.2f}x)"
        )

    largest = fleets[f"g{max(group_counts)}"]
    cpus = _available_cpus()
    required_ratio = 1.0 if cpus >= 2 else SINGLE_CPU_FLOOR
    ratio = (
        largest["best_sharded"]["slots_per_s"]
        / largest["single"]["slots_per_s"]
    )
    gate = {
        "groups": max(group_counts),
        "single_slots_per_s": largest["single"]["slots_per_s"],
        "best_sharded_slots_per_s": largest["best_sharded"]["slots_per_s"],
        "cpus": cpus,
        "mode": "speedup" if cpus >= 2 else "overhead-bound (single CPU)",
        "required_ratio": required_ratio,
        "ratio": ratio,
        "sharded_at_least_single": ratio >= required_ratio,
    }

    report = {
        "benchmark": "scale",
        "iterations": args.iterations,
        "repeats": args.repeats,
        "shard_counts": shard_counts,
        "unit": "slots per second (one slot = one full GSD solve)",
        "fleets": fleets,
        "gate": gate,
    }

    failures = []
    if not gate["sharded_at_least_single"]:
        failures.append(
            f"throughput gate ({gate['mode']}): best sharded "
            f"{gate['best_sharded_slots_per_s']:.2f} slots/s is "
            f"{gate['ratio']:.2f}x single-process "
            f"{gate['single_slots_per_s']:.2f} slots/s at {gate['groups']} "
            f"groups (required >= {gate['required_ratio']:.2f}x)"
        )

    if not args.skip_week:
        week = measure_week(
            max(group_counts),
            shards=largest["best_sharded"]["shards"],
            iterations=args.week_iterations,
            slots=args.week_slots,
        )
        report["week"] = week
        print(
            f"week: {week['slots']} slots x {week['groups']} groups "
            f"(S={week['shards']}, {week['iterations']} iters) in "
            f"{week['wall_s']:.1f}s (budget {week['budget_s']:.0f}s)"
        )
        if not week["under_budget"]:
            failures.append(
                f"week gate: {week['wall_s']:.1f}s exceeds the "
                f"{week['budget_s']:.0f}s budget"
            )

    out = pathlib.Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"-> {out}")

    if args.check and failures:
        for line in failures:
            print(line, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
