"""Solver fast-path benchmark (standalone, no pytest needed).

Measures what the per-solve evaluation cache and the warm-started inner
solves buy on the two hot configurations the harness leans on:

- ``gsd_200g_500it``: the paper's Fig. 4 timing claim -- a 500-iteration
  GSD chain over the 200-group paper fleet (slot 1500, no queue);
- ``cd_hetero``: coordinate descent on a 20-group heterogeneous fleet
  (the engine every mixed-profile experiment uses).

Each engine has one scoring path, the evaluation cache.  GSD runs in two
modes: ``shipped`` (warm-started inner solves, what ``repro run --solver
gsd`` builds) and ``cold``, the same chain with
``repro.solvers.gsd._WARM_START`` patched off in-process.  Coordinate
descent ships cold and runs once, as ``shipped``.  Seeds are fixed, so the
fast-path counters (``cold_solves``, ``warm_starts``, ``cache_hits``, ...)
are exactly reproducible; only the wall times vary run to run.  The script
verifies the fast path's contracts on every invocation:

- the ``shipped`` GSD objective matches the ``cold`` one within the
  documented 1e-9 relative error (warm starts stop short of fp bracket
  collapse);
- the shipped GSD chain runs ``GSD_COLD_SPEEDUP_FLOOR`` (3x) fewer cold
  inner solves than it scores candidates (``info["evaluations"]``), which
  is what every candidate would cost without the fast path.

``--check REF`` adds the CI gates: the >20% regression tolerance on the
deterministic ``inner_solves``, ``cold_solves`` and ``evaluations``
counters of every mode against the committed reference, plus the
**warm-start floor** on the shipped GSD path -- its inner solves must take
``GSD_WARM_ITER_FLOOR`` (3x) fewer bisection steps each than the cold
chain's.  All of these counts are fixed by the seeds, so the gate is exact
on any runner.  Wall times and their ratios are reported, never gated.

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
from unittest import mock

import numpy as np

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: ``--check`` fails when one of a mode's deterministic ``GATED_COUNTERS``
#: grew by more than this fraction over the committed reference.
REGRESSION_TOLERANCE = 0.20

#: Fast-path counters gated under ``--check``, per mode.
GATED_COUNTERS = ("inner_solves", "cold_solves", "evaluations")

#: Acceptance bar: the shipped GSD chain on the 200-group/500-iter case must
#: run at least this factor fewer cold inner solves than candidates scored.
GSD_COLD_SPEEDUP_FLOOR = 3.0

#: Hard floor under ``--check`` on the shipped GSD path: bisection steps
#: per inner solve of the ``cold`` chain over those of ``shipped``.  Wall
#: ratios are not gated: a cold class-compressed solve is cheap, so they
#: mix what the fast path saves with what the inner solve costs.
GSD_WARM_ITER_FLOOR = 3.0

#: Modes run per case.  CD ships cold, so it has no cold reference mode.
CASE_MODES = {"gsd_200g_500it": ("cold", "shipped"), "cd_hetero": ("shipped",)}


def _gsd_case():
    from repro.scenarios import paper_scenario
    from repro.solvers import GSDSolver, gsd

    sc = paper_scenario()
    obs = sc.environment.observation(1500)
    problem = sc.model.slot_problem(
        arrival_rate=obs.arrival_rate, onsite=obs.onsite, price=obs.price, q=0.0
    )

    def solve(mode: str):
        with mock.patch.object(gsd, "_WARM_START", mode == "shipped"):
            return GSDSolver(iterations=500, rng=np.random.default_rng(0)).solve(
                problem
            )

    return "gsd_200g_500it", solve


def _cd_case():
    from repro.cluster import Fleet, ServerGroup, cubic_dvfs_profile, opteron_2380
    from repro.core import DataCenterModel
    from repro.solvers import CoordinateDescentSolver

    groups = [ServerGroup(opteron_2380(), 60) for _ in range(12)] + [
        ServerGroup(cubic_dvfs_profile(), 40) for _ in range(8)
    ]
    model = DataCenterModel(fleet=Fleet(groups), beta=10.0)
    problem = model.slot_problem(
        arrival_rate=0.55 * model.fleet.capacity(model.gamma),
        onsite=0.2,
        price=40.0,
        q=5.0,
    )

    def solve(mode: str):
        return CoordinateDescentSolver(restarts=4, rng=np.random.default_rng(0)).solve(
            problem
        )

    return "cd_hetero", solve


def _run_case(name: str, solve, *, repeats: int) -> tuple[dict, dict]:
    """Per-mode report entries, and each mode's last solution."""
    out: dict[str, dict] = {}
    solutions = {}
    for mode in CASE_MODES[name]:
        best = np.inf
        for _ in range(repeats):
            started = time.perf_counter()
            sol = solve(mode)
            best = min(best, time.perf_counter() - started)
        out[mode] = {"objective": sol.objective, "wall_s_min": best, **sol.info["fastpath"]}
        solutions[mode] = sol
    return out, solutions


def _iters_per_solve(mode: dict) -> float:
    return mode["inner_iters"] / mode["inner_solves"]


def measure(*, repeats: int) -> dict:
    cases = {}
    for name, solve in (_gsd_case(), _cd_case()):
        cases[name], solutions = _run_case(name, solve, repeats=repeats)
    gsd_case = cases["gsd_200g_500it"]
    cold, shipped = gsd_case["cold"], gsd_case["shipped"]
    gsd_case["cold_solve_speedup"] = (
        solutions["shipped"].info["evaluations"] / shipped["cold_solves"]
    )
    gsd_case["wall_speedup_warm"] = cold["wall_s_min"] / shipped["wall_s_min"]
    gsd_case["warm_iter_speedup"] = _iters_per_solve(cold) / _iters_per_solve(shipped)

    errors: list[str] = []
    if abs(shipped["objective"] - cold["objective"]) > 1e-9 * max(
        abs(cold["objective"]), 1.0
    ):
        errors.append("gsd_200g_500it: shipped objective outside the 1e-9 contract")
    speedup = gsd_case["cold_solve_speedup"]
    if speedup < GSD_COLD_SPEEDUP_FLOOR:
        errors.append(
            f"gsd_200g_500it: cold-solve speedup {speedup:.2f}x below the "
            f"{GSD_COLD_SPEEDUP_FLOOR:g}x floor"
        )
    return {
        "benchmark": "solver_fastpath",
        "repeats": repeats,
        "modes": {name: list(modes) for name, modes in CASE_MODES.items()},
        "gsd_cold_speedup_floor": GSD_COLD_SPEEDUP_FLOOR,
        "gsd_warm_iter_floor": GSD_WARM_ITER_FLOOR,
        "regression_tolerance": REGRESSION_TOLERANCE,
        "cases": cases,
        "contract_errors": errors,
    }


def check_against(report: dict, reference: dict) -> list[str]:
    """The CI gates: counter regressions vs the committed reference, plus
    the warm-start floor on the GSD case."""
    failures = []
    for name, ref_case in reference.get("cases", {}).items():
        case = report["cases"].get(name)
        if case is None:
            failures.append(f"{name}: missing from this run")
            continue
        for mode in CASE_MODES.get(name, ()):
            ref_mode, cur_mode = ref_case.get(mode, {}), case.get(mode, {})
            for counter in GATED_COUNTERS:
                ref_n = ref_mode.get(counter)
                if ref_n is None:
                    continue
                cur_n = cur_mode.get(counter)
                if cur_n is None or cur_n > ref_n * (1.0 + REGRESSION_TOLERANCE):
                    failures.append(
                        f"{name}/{mode}: {counter} {cur_n} vs reference "
                        f"{ref_n} (tolerance {REGRESSION_TOLERANCE:.0%})"
                    )
    warm = report["cases"]["gsd_200g_500it"]["warm_iter_speedup"]
    if warm < GSD_WARM_ITER_FLOOR:
        failures.append(
            f"gsd_200g_500it: warm inner solves take {warm:.2f}x fewer "
            f"bisection steps than cold ones, below the {GSD_WARM_ITER_FLOOR:g}x floor"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="two wall-time repetitions per mode (counters are unaffected)",
    )
    parser.add_argument("--repeats", type=int, default=None, help="timed runs per mode")
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
        help="reference JSON; exit 1 on a >20%% fast-path counter regression "
        "or GSD warm starts saving less than the floor in bisection steps",
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
        line = ", ".join(
            f"{mode}: {case[mode]['inner_solves']} solves / "
            f"{1e3 * case[mode]['wall_s_min']:.0f} ms"
            for mode in CASE_MODES[name]
        )
        if "warm_iter_speedup" in case:
            line += (
                f" (warm: {case['wall_speedup_warm']:.1f}x wall, "
                f"{case['warm_iter_speedup']:.1f}x fewer bisection steps; "
                f"{case['cold_solve_speedup']:.0f}x fewer cold solves than "
                "candidates)"
            )
        print(f"{name}: {line}")
    print(f"report -> {out}")

    failed = list(report["contract_errors"])
    if reference is not None:
        failed += check_against(report, reference)
    for message in failed:
        print(f"bench_solver_fastpath: FAIL {message}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
