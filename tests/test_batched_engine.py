"""The shipped inner solve over batches of candidate level vectors.

Coordinate sweeps and brute-force chunks score many level vectors per slot
problem, each through :func:`distribute_load`, cold or warm-started from a
neighbor's solution.  These tests replay that traffic: batches of
neighbor flips, random vectors, duplicates and all-off rows on random
heterogeneous fleets.  Every row must meet the shipped-solver contract
against the cold group-level oracle (:mod:`tests.waterfill_oracle`):

- the same feasibility (``InfeasibleError`` on both or on neither);
- the same regime (billed / free / boundary);
- a P3 objective within 1e-9 relative error of the oracle's.

The batches cover the degenerate cases as well as the fast regimes:
``Wd == 0``, a non-linear tariff, zero-count groups, all-off rows and
boundary-regime-targeted instances.
"""

from dataclasses import replace

import numpy as np

from repro.cluster.power import TieredTariff
from repro.solvers import distribute_load
from repro.solvers.problem import InfeasibleError
from tests.billing_oracle import evaluate, solve_action
from tests.test_fastpath import boundary_problem
from tests.test_solver_consistency import random_model, random_problem
from tests.waterfill_oracle import OracleDistribution, oracle_distribute

#: Relative P3-objective tolerance between the shipped solver and the oracle.
OBJ_RTOL = 1e-9


def scalar_solve(problem, levels, hint=None):
    """The shipped solve: ``None`` where it raises InfeasibleError."""
    try:
        return distribute_load(problem, levels, hint=hint)
    except InfeasibleError:
        return None


def oracle_solve(problem, levels):
    """The group-level cold oracle, same ``None`` convention."""
    try:
        return oracle_distribute(problem, levels)
    except InfeasibleError:
        return None


def objective(problem, levels, dist):
    """P3 objective of a shipped solve (billed over its class rows) or of
    an oracle solve (summed over the groups)."""
    if isinstance(dist, OracleDistribution):
        return evaluate(problem, levels, dist.per_server_load).objective
    return problem.evaluate(solve_action(problem.fleet, levels, dist)).objective


def contract_mismatches(tag, problem, levels, got, want, k):
    """Shipped row vs oracle row: feasibility, regime, objective."""
    if (got is None) != (want is None):
        return [f"{tag} row {k}: feasibility {got is None} vs {want is None}"]
    if got is None:
        return []
    bad = []
    if got.regime != want.regime:
        bad.append(f"{tag} row {k}: regime {got.regime} vs {want.regime}")
    a = objective(problem, levels, got)
    b = objective(problem, levels, want)
    if abs(a - b) > OBJ_RTOL * max(abs(b), 1e-300):
        bad.append(f"{tag} row {k}: objective {a!r} vs {b!r}")
    return bad


def random_levels(rng, model):
    G = model.fleet.num_groups
    return np.array(
        [int(rng.integers(-1, model.fleet.num_levels[g])) for g in range(G)],
        dtype=np.int64,
    )


def random_batch(rng, model, base):
    """Neighbor flips + random vectors + duplicates + all-off rows: the mix
    coordinate sweeps and brute-force chunks actually produce."""
    G = model.fleet.num_groups
    K = int(rng.integers(3, 12))
    rows = []
    for _ in range(K):
        kind = rng.random()
        if kind < 0.5:
            lv = base.copy()
            g = int(rng.integers(0, G))
            lv[g] = int(rng.integers(-1, model.fleet.num_levels[g]))
            rows.append(lv)
        elif kind < 0.8:
            rows.append(random_levels(rng, model))
        elif kind < 0.9 and rows:
            rows.append(rows[int(rng.integers(0, len(rows)))].copy())
        else:
            rows.append(np.full(G, -1, dtype=np.int64))
    return np.stack(rows)


def check_batch(problem, batch, hint=None):
    """Solve every row of ``batch`` with the shipped solver (warm from
    ``hint`` when given) and check it against the cold oracle.

    Returns ``(mismatches, shipped rows)``.
    """
    bad, got_rows = [], []
    tag = "warm" if hint is not None else "cold"
    for k in range(batch.shape[0]):
        got = scalar_solve(problem, batch[k], hint=hint)
        got_rows.append(got)
        want = oracle_solve(problem, batch[k])
        bad += contract_mismatches(tag, problem, batch[k], got, want, k)
    return bad, got_rows


class TestRandomizedParity:
    """Randomized stress harness: the objective contract with the oracle
    over neighbor-flip batches on random heterogeneous fleets, cold and
    warm-started from the batch's base vector."""

    def test_cold_and_warm_rows_match_scalar(self):
        rng = np.random.default_rng(0)
        regimes = {"billed": 0, "free": 0, "boundary": 0}
        n_rows = n_warm = 0
        for _ in range(25):
            model = random_model(rng)
            problem = random_problem(model, rng)
            base = random_levels(rng, model)
            batch = random_batch(rng, model, base)

            bad, cold_rows = check_batch(problem, batch)
            assert not bad, "\n".join(bad)
            n_rows += batch.shape[0]
            for got in cold_rows:
                if got is not None:
                    regimes[got.regime] += 1

            hint = scalar_solve(problem, base)
            if hint is None:
                continue
            bad_w, warm_rows = check_batch(problem, batch, hint=hint)
            assert not bad_w, "\n".join(bad_w)
            n_warm += sum(
                1 for w in warm_rows if w is not None and w.warm_started
            )

            # Warm objectives stay within the 1e-9 contract vs cold.
            for k, (w, c) in enumerate(zip(warm_rows, cold_rows)):
                assert (w is None) == (c is None)
                if c is None:
                    continue
                a = objective(problem, batch[k], w)
                b = objective(problem, batch[k], c)
                assert abs(a - b) <= OBJ_RTOL * max(abs(b), 1e-300)

        # The random mix must actually exercise the fast regimes and the
        # warm path, or the parity checks above prove nothing.
        assert n_rows > 100
        assert n_warm > 10
        assert regimes["billed"] > 0 and regimes["free"] > 0

    def test_wd_zero_rows_match_scalar(self):
        """``Wd == 0`` (beta = 0) routes through the greedy delay-free fill;
        rows must meet the oracle's contract."""
        rng = np.random.default_rng(1)
        checked = 0
        for _ in range(6):
            model = random_model(rng)
            problem = replace(random_problem(model, rng), beta=0.0)
            base = random_levels(rng, model)
            batch = random_batch(rng, model, base)
            bad, got_rows = check_batch(problem, batch)
            assert not bad, "\n".join(bad)
            checked += sum(1 for w in got_rows if w is not None)
        assert checked > 0

    def test_nonlinear_tariff_rows_match_scalar(self):
        """Non-linear tariffs need a fixed point on the marginal price;
        every row must still agree with the oracle."""
        rng = np.random.default_rng(2)
        tariff = TieredTariff(thresholds=(1e-4,), multipliers=(1.0, 3.0))
        checked = 0
        for _ in range(4):
            model = random_model(rng)
            problem = replace(random_problem(model, rng), tariff=tariff)
            batch = random_batch(rng, model, random_levels(rng, model))
            bad, got_rows = check_batch(problem, batch)
            assert not bad, "\n".join(bad)
            checked += sum(1 for w in got_rows if w is not None)
        assert checked > 0

    def test_zero_count_group_rows_match_scalar(self):
        """Groups emptied by failures (count 0) must neither poison the
        solve with NaNs nor diverge from the oracle, cold or warm."""
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(8):
            model = random_model(rng)
            g0 = int(rng.integers(0, model.fleet.num_groups))
            counts = model.fleet.counts.copy()
            counts[g0] = 0.0
            counts.setflags(write=False)
            model.fleet.counts = counts
            problem = random_problem(model, rng)
            base = random_levels(rng, model)
            base[g0] = int(rng.integers(0, model.fleet.num_levels[g0]))
            batch = random_batch(rng, model, base)
            bad, got_rows = check_batch(problem, batch)
            assert not bad, "\n".join(bad)
            checked += sum(1 for w in got_rows if w is not None)
            hint = scalar_solve(problem, base)
            if hint is not None:
                bad_w, _ = check_batch(problem, batch, hint=hint)
                assert not bad_w, "\n".join(bad_w)
        assert checked > 0

    def test_all_off_rows_are_infeasible(self):
        rng = np.random.default_rng(4)
        model = random_model(rng)
        problem = random_problem(model, rng)
        batch = np.full((3, model.fleet.num_groups), -1, dtype=np.int64)
        hint = scalar_solve(problem, random_levels(rng, model))
        for levels in batch:
            assert scalar_solve(problem, levels) is None
            assert scalar_solve(problem, levels, hint=hint) is None
            assert oracle_solve(problem, levels) is None


class TestBoundaryRegime:
    """Regime-targeted stress: calibrate problems whose optimum pins the
    facility power at the renewable supply, then check every row."""

    def test_boundary_rows_bit_identical(self):
        rng = np.random.default_rng(7)
        n_boundary_cold = n_boundary_warm = 0
        for _ in range(20):
            model = random_model(rng)
            G = model.fleet.num_groups
            levels = np.array(
                [int(rng.integers(0, model.fleet.num_levels[g])) for g in range(G)],
                dtype=np.int64,
            )
            try:
                p = boundary_problem(
                    model,
                    levels,
                    lam_frac=float(rng.uniform(0.2, 0.7)),
                    q=float(rng.choice([0.0, 5.0])),
                )
            except (InfeasibleError, ValueError, AssertionError):
                continue
            rows = [levels]
            for _ in range(6):
                lv = levels.copy()
                g = int(rng.integers(0, G))
                lv[g] = int(rng.integers(-1, model.fleet.num_levels[g]))
                rows.append(lv)
            batch = np.stack(rows)

            bad, got_rows = check_batch(p, batch)
            assert not bad, "\n".join(bad)
            n_boundary_cold += sum(
                1 for w in got_rows if w is not None and w.regime == "boundary"
            )
            hint = scalar_solve(p, levels)
            if hint is not None:
                bad_w, warm_rows = check_batch(p, batch, hint=hint)
                assert not bad_w, "\n".join(bad_w)
                n_boundary_warm += sum(
                    1
                    for w in warm_rows
                    if w is not None and w.regime == "boundary"
                )
        assert n_boundary_cold > 0
        assert n_boundary_warm > 0
