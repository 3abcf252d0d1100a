"""Batched water-filling engine vs the scalar solvers.

The ``(K, G)`` batched inner solve (:mod:`repro.solvers.batched`) solves
per group; the shipped scalar :func:`distribute_load` solves per (profile,
level) class.  Two contracts are pinned per row:

- **cold**: bit-identical to the group-level cold oracle
  (:mod:`tests.waterfill_oracle`), whose arithmetic the batched engine
  replicates -- loads bytes, dual variable, regime, electricity weight,
  iteration count, feasibility;
- **shipped** (cold or with a shared warm hint): the same feasibility and
  regime as the scalar :func:`distribute_load`, and a P3 objective within
  1e-9 relative error of it.

These tests pin both over randomized problems, boundary-regime-targeted
instances, the degenerate scalar fallbacks (``Wd == 0``, non-linear
tariffs, zero-count groups, all-off rows) and the batched objective
scoring.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import FleetAction
from repro.cluster.power import TieredTariff
from repro.solvers import (
    distribute_load,
    distribute_load_batch,
    objective_batch,
)
from repro.solvers.problem import InfeasibleError
from tests.test_fastpath import boundary_problem
from tests.test_solver_consistency import random_model, random_problem
from tests.waterfill_oracle import oracle_distribute

#: Relative P3-objective tolerance between the batched and scalar engines.
OBJ_RTOL = 1e-9


def scalar_solve(problem, levels, hint=None):
    """The shipped scalar solve: ``None`` where it raises InfeasibleError,
    mirroring the batched API's per-row convention."""
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
    return problem.evaluate(FleetAction(levels, dist.per_server_load)).objective


def row_mismatches(tag, got, want, k, strict=True):
    """Collect every field where a batched row differs from the oracle."""
    if (got is None) != (want is None):
        return [f"{tag} row {k}: feasibility {got is None} vs {want is None}"]
    if got is None:
        return []
    bad = []
    if got.per_server_load.tobytes() != want.per_server_load.tobytes():
        bad.append(f"{tag} row {k}: loads differ")
    if got.nu != want.nu:
        bad.append(f"{tag} row {k}: nu {got.nu} vs {want.nu}")
    if got.regime != want.regime:
        bad.append(f"{tag} row {k}: regime {got.regime} vs {want.regime}")
    if got.electricity_weight != want.electricity_weight:
        bad.append(f"{tag} row {k}: electricity_weight differs")
    if strict and got.inner_iters != want.inner_iters:
        bad.append(f"{tag} row {k}: iters {got.inner_iters} vs {want.inner_iters}")
    return bad


def contract_mismatches(tag, problem, levels, got, want, k):
    """Batched row vs shipped scalar solve: feasibility, regime, objective."""
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


def check_batch(problem, batch, hint=None, bitwise=True):
    """Run one batch through the batched engine and both scalar references.

    Every row must meet the shipped-solver contract; cold rows must also
    match the group-level oracle bit for bit unless ``bitwise`` is off (the
    degenerate cases the batched engine hands to the shipped solver).
    Returns ``(mismatches, shipped rows)``.
    """
    got = distribute_load_batch(problem, batch, hint=hint)
    bad, want_rows = [], []
    tag = "warm" if hint is not None else "cold"
    for k in range(batch.shape[0]):
        want = scalar_solve(problem, batch[k], hint=hint)
        want_rows.append(want)
        bad += contract_mismatches(tag, problem, batch[k], got[k], want, k)
        if hint is None and bitwise:
            oracle = oracle_solve(problem, batch[k])
            bad += row_mismatches("oracle", got[k], oracle, k)
    return bad, want_rows


class TestRandomizedParity:
    """Port of the randomized stress harness: cold bit-identity with the
    oracle and the objective contract with the shipped solver over
    neighbor-flip batches on random heterogeneous fleets."""

    def test_cold_and_warm_rows_match_scalar(self):
        rng = np.random.default_rng(0)
        regimes = {"billed": 0, "free": 0, "boundary": 0}
        n_rows = n_warm = 0
        for _ in range(25):
            model = random_model(rng)
            problem = random_problem(model, rng)
            base = random_levels(rng, model)
            batch = random_batch(rng, model, base)

            bad, want_rows = check_batch(problem, batch)
            assert not bad, "\n".join(bad)
            n_rows += batch.shape[0]
            for want in want_rows:
                if want is not None:
                    regimes[want.regime] += 1

            hint = scalar_solve(problem, base)
            if hint is None:
                continue
            bad_w, want_w = check_batch(problem, batch, hint=hint)
            assert not bad_w, "\n".join(bad_w)
            n_warm += sum(
                1 for w in want_w if w is not None and w.warm_started
            )

            # Warm objectives stay within the 1e-9 contract vs cold.
            objs_w, _ = objective_batch(problem, batch, hint=hint)
            objs_c, _ = objective_batch(problem, batch)
            finite = np.isfinite(objs_c)
            rel = np.abs(objs_w[finite] - objs_c[finite]) / np.maximum(
                np.abs(objs_c[finite]), 1e-300
            )
            assert np.all(rel <= 1e-9)

        # The random mix must actually exercise the fast regimes and the
        # warm path, or the parity checks above prove nothing.
        assert n_rows > 100
        assert n_warm > 10
        assert regimes["billed"] > 0 and regimes["free"] > 0

    def test_wd_zero_rows_match_scalar(self):
        """``Wd == 0`` (beta = 0) routes through the greedy delay-free fill
        via the shipped scalar fallback; rows must meet its contract."""
        rng = np.random.default_rng(1)
        checked = 0
        for _ in range(6):
            model = random_model(rng)
            problem = replace(random_problem(model, rng), beta=0.0)
            base = random_levels(rng, model)
            batch = random_batch(rng, model, base)
            bad, want_rows = check_batch(problem, batch, bitwise=False)
            assert not bad, "\n".join(bad)
            checked += sum(1 for w in want_rows if w is not None)
        assert checked > 0

    def test_nonlinear_tariff_rows_match_scalar(self):
        """Non-linear tariffs need a per-row fixed point on the marginal;
        the batch API falls back to the scalar solver and must agree."""
        rng = np.random.default_rng(2)
        tariff = TieredTariff(thresholds=(1e-4,), multipliers=(1.0, 3.0))
        checked = 0
        for _ in range(4):
            model = random_model(rng)
            problem = replace(random_problem(model, rng), tariff=tariff)
            batch = random_batch(rng, model, random_levels(rng, model))
            bad, want_rows = check_batch(problem, batch, bitwise=False)
            assert not bad, "\n".join(bad)
            checked += sum(1 for w in want_rows if w is not None)
        assert checked > 0

    def test_zero_count_group_rows_match_scalar(self):
        """Groups emptied by failures (count 0) must neither poison the
        batched solve with NaNs nor diverge from the scalar path."""
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
            bad, want_rows = check_batch(problem, batch)
            assert not bad, "\n".join(bad)
            checked += sum(1 for w in want_rows if w is not None)
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
        assert distribute_load_batch(problem, batch) == [None, None, None]


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

            bad, want_rows = check_batch(p, batch)
            assert not bad, "\n".join(bad)
            n_boundary_cold += sum(
                1 for w in want_rows if w is not None and w.regime == "boundary"
            )
            hint = scalar_solve(p, levels)
            if hint is not None:
                bad_w, want_w = check_batch(p, batch, hint=hint)
                assert not bad_w, "\n".join(bad_w)
                n_boundary_warm += sum(
                    1 for w in want_w if w is not None and w.regime == "boundary"
                )
        assert n_boundary_cold > 0
        assert n_boundary_warm > 0


class TestObjectiveBatch:
    def test_matches_scalar_scoring_pipeline(self):
        """``objective_batch`` must reproduce the scoring pipeline (inner
        solve -> evaluate -> cap check -> inf on violation): bit for bit on
        the oracle's loads, within 1e-9 on the shipped solver's."""
        rng = np.random.default_rng(9)
        finite_rows = 0
        for _ in range(10):
            model = random_model(rng)
            problem = random_problem(model, rng)
            batch = random_batch(rng, model, random_levels(rng, model))
            objs, dists = objective_batch(problem, batch)
            for k in range(batch.shape[0]):
                want = oracle_solve(problem, batch[k])
                shipped = scalar_solve(problem, batch[k])
                assert (want is None) == (shipped is None)
                if want is None:
                    assert dists[k] is None and objs[k] == np.inf
                    continue
                ev = problem.evaluate(
                    FleetAction(batch[k], want.per_server_load)
                )
                expect = (
                    np.inf
                    if problem.violates_caps(ev)
                    else float(ev.objective)
                )
                assert objs[k] == expect
                if np.isfinite(expect):
                    finite_rows += 1
                    assert objective(
                        problem, batch[k], shipped
                    ) == pytest.approx(expect, rel=OBJ_RTOL)
        assert finite_rows > 0
