"""Paper-scale fleet throughput of the shipped single-process GSD chain.

Measures **slots per second** (one slot = one full ``iterations``-step
solve) at 200 / 2 000 / 10 000 server groups for the chain the CLI ships
(``GSDSolver()``: class-compressed water-fill).  The water-fill runs over
(profile, level) classes, so the group count enters only through the
chain's bookkeeping and the final per-group expansion.

One internal contract gates ``--check``:

- **Week wall-clock**: a simulated week (168 slots, diurnally varying
  load, operational iteration count) on the largest fleet must finish
  under the documented 5-minute budget (docs/PERFORMANCE.md).

The deterministic ``evaluations`` counter of each fleet size is reported
beside its slots per second, not gated.

Run it directly, as CI does::

    PYTHONPATH=src python benchmarks/bench_scale.py --check -o BENCH_scale.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: docs/PERFORMANCE.md acceptance: a 10k-group week simulates in under 5 min.
WEEK_BUDGET_S = 300.0
WEEK_SLOTS = 168


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
    here; the caller warms the process beforehand)."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        solve()
        samples.append(time.perf_counter() - started)
    return float(np.median(samples))


def measure_fleet(num_groups: int, *, iterations: int, repeats: int) -> dict:
    """Shipped-chain slots/sec on one fleet size."""
    from repro.core import DataCenterModel
    from repro.solvers import GSDSolver

    model = DataCenterModel(fleet=_mixed_fleet(num_groups), beta=10.0)
    problem = _slot_problem(model, 0.5)

    def single_solve():
        return GSDSolver(iterations=iterations, rng=np.random.default_rng(0)).solve(
            problem
        )

    shipped = single_solve()  # also warms the process (imports, allocator)
    single_s = _time_solves(single_solve, repeats)
    return {
        "groups": num_groups,
        "evaluations": shipped.info["evaluations"],
        "single": {"solve_s": single_s, "slots_per_s": 1.0 / single_s},
    }


def measure_week(num_groups: int, *, iterations: int, slots: int) -> dict:
    """Wall-clock for a simulated week: ``slots`` sequential solves with a
    diurnal load profile, one solver instance (the serving shape)."""
    from repro.core import DataCenterModel
    from repro.solvers import GSDSolver

    model = DataCenterModel(fleet=_mixed_fleet(num_groups), beta=10.0)
    hours = np.arange(slots)
    lam_fracs = 0.5 + 0.2 * np.sin(2.0 * np.pi * hours / 24.0)

    solver = GSDSolver(iterations=iterations, rng=np.random.default_rng(0))
    solver.solve(_slot_problem(model, 0.5))  # warm the process
    started = time.perf_counter()
    for frac in lam_fracs:
        solver.solve(_slot_problem(model, float(frac)))
    wall = time.perf_counter() - started

    return {
        "groups": num_groups,
        "slots": slots,
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
        help="comma-separated fleet sizes (largest one carries the week gate)",
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
        help="exit 1 when the week-budget gate fails",
    )
    args = parser.parse_args(argv)

    group_counts = [int(g) for g in args.groups.split(",") if g]

    fleets = {}
    for num_groups in group_counts:
        row = measure_fleet(
            num_groups, iterations=args.iterations, repeats=args.repeats
        )
        fleets[f"g{num_groups}"] = row
        print(f"{num_groups:>6} groups: {row['single']['slots_per_s']:.2f} slots/s")

    report = {
        "benchmark": "scale",
        "iterations": args.iterations,
        "repeats": args.repeats,
        "unit": "slots per second (one slot = one full GSD solve)",
        "fleets": fleets,
    }

    failures = []
    if not args.skip_week:
        week = measure_week(
            max(group_counts),
            iterations=args.week_iterations,
            slots=args.week_slots,
        )
        report["week"] = week
        print(
            f"week: {week['slots']} slots x {week['groups']} groups "
            f"({week['iterations']} iters) in "
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
