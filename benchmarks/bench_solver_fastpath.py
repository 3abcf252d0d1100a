"""Solver fast-path benchmark (standalone, no pytest needed).

Measures what the per-solve evaluation cache and the warm-started inner
solves buy on the two hot configurations the harness leans on:

- ``gsd_200g_500it``: the paper's Fig. 4 timing claim -- a 500-iteration
  GSD chain over the 200-group paper fleet (slot 1500, no queue);
- ``cd_hetero``: coordinate descent on a 20-group heterogeneous fleet
  (the engine every mixed-profile experiment uses).

Each case runs in the three modes both solvers have -- ``nofast`` (cache
off), ``cache`` and ``cache_warm`` -- with fixed seeds, so the fast-path
counters (``cold_solves``, ``warm_solves``, ``cache_hits``, ...)
are exactly reproducible; only the wall times vary run to run.  The script
verifies the fast path's correctness contracts on every invocation:

- the ``cache`` objective is **bit-identical** to ``nofast`` (the memo
  cache changes what is computed, never how);
- the ``cache_warm`` objective matches within the documented 1e-9
  relative error (warm starts stop short of fp bracket collapse);
- GSD reaches the bar of >= 3x fewer cold inner solves.

``--check REF`` adds the CI gates: the >20% regression tolerance on the
deterministic ``inner_solves`` counters against the committed reference,
plus the **warm-start floor** on the shipped GSD path -- its warm inner
solves (``cache_warm``) must take ``GSD_WARM_ITER_FLOOR`` (3x) fewer
bisection steps each than the cold solves of the same chain (``cache``).
Both step counts are fixed by the seeds, so the gate is exact on any
runner.  Wall times and their ratios are reported, never gated.

The report lands in ``benchmarks/results/BENCH_solver_fastpath.json`` and
one flattened row per run is appended to the trend ledger by
``repro bench`` (see ``repro.profile.ledger``).  ``--quick`` only reduces
the wall-time repetitions (counters are configuration-determined, so
quick and full runs agree on them).

Run it directly (CI does)::

    PYTHONPATH=src python benchmarks/bench_solver_fastpath.py --quick \
        --check benchmarks/results/BENCH_solver_fastpath.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: ``--check`` fails when a mode's deterministic ``inner_solves`` count
#: grew by more than this fraction over the committed reference.
REGRESSION_TOLERANCE = 0.20

#: Acceptance bar: cache + warm starts must cut GSD's cold inner solves by
#: at least this factor on the 200-group/500-iter case.
GSD_COLD_SPEEDUP_FLOOR = 3.0

#: Hard floor under ``--check`` on the shipped GSD path: bisection steps
#: per inner solve of the cold ``cache`` mode over those of ``cache_warm``
#: (the ``repro run --solver gsd`` configuration).  Wall ratios against
#: ``nofast`` are not gated: a cold class-compressed solve is cheap, so
#: they mix what the fast path saves with what the inner solve costs.
GSD_WARM_ITER_FLOOR = 3.0

MODES = ("nofast", "cache", "cache_warm")

#: Modes whose objective must be bit-identical to ``nofast`` (same scalar
#: cold arithmetic).
COLD_MODES = ("cache",)
#: Modes bound by the 1e-9 relative objective contract (warm starts).
WARM_MODES = ("cache_warm",)


def _mode_kwargs(mode: str) -> dict:
    return {"use_cache": mode != "nofast", "warm_start": "warm" in mode}


def _gsd_case():
    from repro.scenarios import paper_scenario
    from repro.solvers import GSDSolver

    sc = paper_scenario()
    obs = sc.environment.observation(1500)
    problem = sc.model.slot_problem(
        arrival_rate=obs.arrival_rate, onsite=obs.onsite, price=obs.price, q=0.0
    )

    def solve(mode: str):
        return GSDSolver(
            iterations=500,
            rng=np.random.default_rng(0),
            **_mode_kwargs(mode),
        ).solve(problem)

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
        return CoordinateDescentSolver(
            restarts=4,
            rng=np.random.default_rng(0),
            **_mode_kwargs(mode),
        ).solve(problem)

    return "cd_hetero", solve


def _run_case(solve, *, repeats: int) -> dict:
    out: dict[str, dict] = {}
    for mode in MODES:
        best = np.inf
        sol = None
        for _ in range(repeats):
            started = time.perf_counter()
            sol = solve(mode)
            best = min(best, time.perf_counter() - started)
        stats = sol.info.get("fastpath")
        if stats is None:  # nofast GSD reports plain counters; CD reports none
            stats = {"cold_solves": sol.info.get("inner_solves")}
        out[mode] = {
            "objective": sol.objective,
            "wall_s_min": best,
            **{k: v for k, v in stats.items() if v is not None},
        }
    return out


def _iters_per_solve(mode: dict) -> float:
    return mode["inner_iters"] / mode["inner_solves"]


def _verify_contracts(name: str, case: dict) -> list[str]:
    """The fast path's correctness guarantees, re-checked on every run."""
    errors = []
    cold_obj = case["nofast"]["objective"]
    for mode in COLD_MODES:
        if case[mode]["objective"] != cold_obj:
            errors.append(f"{name}: {mode} objective not bit-identical to nofast")
    for mode in WARM_MODES:
        warm_obj = case[mode]["objective"]
        if abs(warm_obj - cold_obj) > 1e-9 * max(abs(cold_obj), 1.0):
            errors.append(f"{name}: {mode} objective outside the 1e-9 contract")
    return errors


def measure(*, repeats: int) -> dict:
    cases = {}
    errors: list[str] = []
    for name, solve in (_gsd_case(), _cd_case()):
        case = _run_case(solve, repeats=repeats)
        nofast_cold = case["nofast"].get("cold_solves")
        warm_cold = case["cache_warm"].get("cold_solves")
        if nofast_cold and warm_cold:
            case["cold_solve_speedup"] = nofast_cold / warm_cold
        case["wall_speedup_warm"] = (
            case["nofast"]["wall_s_min"] / case["cache_warm"]["wall_s_min"]
        )
        case["warm_iter_speedup"] = _iters_per_solve(case["cache"]) / _iters_per_solve(
            case["cache_warm"]
        )
        cases[name] = case
        errors += _verify_contracts(name, case)

    speedup = cases["gsd_200g_500it"].get("cold_solve_speedup", 0.0)
    if speedup < GSD_COLD_SPEEDUP_FLOOR:
        errors.append(
            f"gsd_200g_500it: cold-solve speedup {speedup:.2f}x below the "
            f"{GSD_COLD_SPEEDUP_FLOOR:g}x floor"
        )
    return {
        "benchmark": "solver_fastpath",
        "repeats": repeats,
        "modes": list(MODES),
        "gsd_cold_speedup_floor": GSD_COLD_SPEEDUP_FLOOR,
        "gsd_warm_iter_floor": GSD_WARM_ITER_FLOOR,
        "regression_tolerance": REGRESSION_TOLERANCE,
        "cases": cases,
        "contract_errors": errors,
    }


def check_against(report: dict, reference_path: pathlib.Path) -> list[str]:
    """The CI gates: counter regressions vs the committed reference, plus
    the warm-start floor on the GSD case."""
    reference = json.loads(reference_path.read_text())
    failures = []
    for name, ref_case in reference.get("cases", {}).items():
        case = report["cases"].get(name)
        if case is None:
            failures.append(f"{name}: missing from this run")
            continue
        for mode in MODES:
            ref_n = ref_case.get(mode, {}).get("inner_solves")
            if ref_n is None:
                continue
            cur_n = case.get(mode, {}).get("inner_solves")
            if cur_n is None or cur_n > ref_n * (1.0 + REGRESSION_TOLERANCE):
                failures.append(
                    f"{name}/{mode}: inner_solves {cur_n} vs reference "
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
        help="reference JSON; exit 1 on >20%% inner-solve regression or GSD "
        "warm starts saving less than the floor in bisection steps",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats if args.repeats is not None else (2 if args.quick else 3)

    report = measure(repeats=repeats)
    out = pathlib.Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")

    for name, case in report["cases"].items():
        line = ", ".join(
            f"{mode}: {case[mode].get('inner_solves', case[mode].get('cold_solves'))}"
            f" solves / {1e3 * case[mode]['wall_s_min']:.0f} ms"
            for mode in MODES
        )
        print(
            f"{name}: {line} (warm: {case['wall_speedup_warm']:.1f}x wall, "
            f"{case['warm_iter_speedup']:.1f}x fewer bisection steps)"
        )
    print(f"report -> {out}")

    failed = list(report["contract_errors"])
    if args.check:
        failed += check_against(report, pathlib.Path(args.check))
    for message in failed:
        print(f"bench_solver_fastpath: FAIL {message}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
