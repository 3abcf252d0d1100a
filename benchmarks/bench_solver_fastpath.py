"""Solver fast-path benchmark (standalone, no pytest needed).

Measures what the per-solve evaluation cache buys on the hot
configurations the harness leans on:

- ``gsd_200g_500it``: the paper's Fig. 4 timing claim -- a 500-iteration
  GSD chain over the 200-group paper fleet (slot 1500, no queue).  Its
  chain proposes only off and the Opteron's top speed, so every on-set it
  scores is one class, solved in closed form in no steps;
- ``gsd_cubic_200g_500it``: the same chain over 200 groups of 1,080
  ``cubic_dvfs_profile()`` servers, at ``cd_hetero``'s slot inputs.  No
  cubic level is dominated, so its on-sets span several classes and the
  water-fill bisects;
- ``cd_hetero``: coordinate descent on a 20-group heterogeneous fleet
  (the engine every mixed-profile experiment uses).

Each engine has one scoring path, the evaluation cache, and each case runs
once per repetition, as ``shipped``: the configuration ``repro run``
builds.  Seeds are fixed, so the fast-path counters (``inner_solves``,
``inner_iters``, ``cache_hits``, ...) are exactly reproducible; only the
wall times vary run to run.

``--check REF`` adds the CI gate: the >20% regression tolerance on the
deterministic ``inner_solves`` and ``evaluations`` counters of every case
against the committed reference.  These counts are fixed by the seeds, so
the gate is exact on any runner.  Wall times are reported, never gated.

The report lands in ``benchmarks/results/BENCH_solver_fastpath.json``
unless ``-o`` says otherwise; that file is also the committed full-run
reference, so a quick run that should not replace it writes elsewhere.
The reference is read before the report is written, so a run whose ``-o``
is its ``--check`` file is still checked against the committed numbers.
``--quick`` only reduces the wall-time repetitions (counters are
configuration-determined, so quick and full runs agree on them).

Run it directly, as CI does::

    PYTHONPATH=src python benchmarks/bench_solver_fastpath.py --quick \
        --check benchmarks/results/BENCH_solver_fastpath.json \
        -o BENCH_solver_fastpath.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: ``--check`` fails when one of a case's deterministic ``GATED_COUNTERS``
#: grew by more than this fraction over the committed reference.
REGRESSION_TOLERANCE = 0.20

#: Fast-path counters gated under ``--check``, per case.
GATED_COUNTERS = ("inner_solves", "evaluations")

#: The one configuration each case runs, and its key in the report.
MODE = "shipped"


def _gsd_solve(problem):
    from repro.solvers import GSDSolver

    def solve():
        return GSDSolver(iterations=500, rng=np.random.default_rng(0)).solve(problem)

    return solve


def _synthetic_problem(groups):
    """``cd_hetero``'s slot inputs on a fleet of ``groups``: 55% of the
    capped capacity, 0.2 MW on site, $40/MWh, queue 5."""
    from repro.cluster import Fleet
    from repro.core import DataCenterModel

    model = DataCenterModel(fleet=Fleet(groups), beta=10.0)
    return model.slot_problem(
        arrival_rate=0.55 * model.fleet.capacity(model.gamma),
        onsite=0.2,
        price=40.0,
        q=5.0,
    )


def _gsd_case():
    from repro.scenarios import paper_scenario

    sc = paper_scenario()
    obs = sc.environment.observation(1500)
    problem = sc.model.slot_problem(
        arrival_rate=obs.arrival_rate, onsite=obs.onsite, price=obs.price, q=0.0
    )
    return "gsd_200g_500it", _gsd_solve(problem)


def _gsd_cubic_case():
    from repro.cluster import ServerGroup, cubic_dvfs_profile

    groups = [ServerGroup(cubic_dvfs_profile(), 1080) for _ in range(200)]
    return "gsd_cubic_200g_500it", _gsd_solve(_synthetic_problem(groups))


def _cd_case():
    from repro.cluster import ServerGroup, cubic_dvfs_profile, opteron_2380
    from repro.solvers import CoordinateDescentSolver

    groups = [ServerGroup(opteron_2380(), 60) for _ in range(12)] + [
        ServerGroup(cubic_dvfs_profile(), 40) for _ in range(8)
    ]
    problem = _synthetic_problem(groups)

    def solve():
        return CoordinateDescentSolver(restarts=4, rng=np.random.default_rng(0)).solve(
            problem
        )

    return "cd_hetero", solve


def _run_case(solve, *, repeats: int) -> dict:
    """The case's report entry: the objective, the best wall time over
    ``repeats`` solves and the fast-path counters."""
    best = np.inf
    for _ in range(repeats):
        started = time.perf_counter()
        sol = solve()
        best = min(best, time.perf_counter() - started)
    return {MODE: {"objective": sol.objective, "wall_s_min": best, **sol.info["fastpath"]}}


def measure(*, repeats: int) -> dict:
    return {
        "benchmark": "solver_fastpath",
        "repeats": repeats,
        "regression_tolerance": REGRESSION_TOLERANCE,
        "cases": {
            name: _run_case(solve, repeats=repeats)
            for name, solve in (_gsd_case(), _gsd_cubic_case(), _cd_case())
        },
    }


def check_against(report: dict, reference: dict) -> list[str]:
    """The CI gate: counter regressions vs the committed reference."""
    failures = []
    for name, ref_case in reference.get("cases", {}).items():
        case = report["cases"].get(name)
        if case is None:
            failures.append(f"{name}: missing from this run")
            continue
        ref_mode, cur_mode = ref_case.get(MODE, {}), case.get(MODE, {})
        for counter in GATED_COUNTERS:
            ref_n = ref_mode.get(counter)
            if ref_n is None:
                continue
            cur_n = cur_mode.get(counter)
            if cur_n is None or cur_n > ref_n * (1.0 + REGRESSION_TOLERANCE):
                failures.append(
                    f"{name}/{MODE}: {counter} {cur_n} vs reference "
                    f"{ref_n} (tolerance {REGRESSION_TOLERANCE:.0%})"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="two wall-time repetitions per case (counters are unaffected)",
    )
    parser.add_argument("--repeats", type=int, default=None, help="timed runs per case")
    parser.add_argument(
        "--output",
        "-o",
        default=str(RESULTS_DIR / "BENCH_solver_fastpath.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--check",
        metavar="REF",
        default=None,
        help="reference JSON; exit 1 on a >20%% fast-path counter regression",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats if args.repeats is not None else (2 if args.quick else 3)
    # Read before the report is written: -o may name the reference itself.
    reference = json.loads(pathlib.Path(args.check).read_text()) if args.check else None

    report = measure(repeats=repeats)
    out = pathlib.Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")

    for name, case in report["cases"].items():
        entry = case[MODE]
        print(
            f"{name}: {entry['inner_solves']} solves, "
            f"{entry['inner_iters']} bisection steps / "
            f"{1e3 * entry['wall_s_min']:.0f} ms"
        )
    print(f"report -> {out}")

    failed = check_against(report, reference) if reference is not None else []
    for message in failed:
        print(f"bench_solver_fastpath: FAIL {message}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
