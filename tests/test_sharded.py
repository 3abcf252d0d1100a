"""Differential property suite for the process-sharded GSD solver.

The headline contract (docs/SCALING.md): :class:`ShardedGSDSolver` is
**bit-identical** to the cold single-process chain,
``GSDSolver(batched=True, warm_start=False)`` -- same levels,
same per-server loads, same objective, same evaluation count, same
speculation accounting, same trace -- for *any* shard count, including
counts that do not divide the group count.  The suite sweeps randomized
heterogeneous fleets (sizes up to the thousands), failures, caps, and
both draw modes, plus unit coverage of the :mod:`repro.ipc` transport and
worker pool the solver rides on.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing

import numpy as np
import pytest

from repro.cluster import Fleet, ServerGroup, cubic_dvfs_profile, opteron_2380
from repro.core import DataCenterModel
from repro.ipc import Channel, ChannelClosedError, ShardWorkerPool, channel_pair
from repro.ipc.pool import worker_loop
from repro.solvers import (
    GSDSolver,
    ShardedGSDSolver,
    ShardPlan,
    distribute_load,
    problem_fingerprint,
)
from tests.conftest import make_problem

SHARD_COUNTS = [1, 2, 4, 7]  # 7 does not divide the 9-group fleet below


# ---------------------------------------------------------------------------
# Fixtures and helpers
# ---------------------------------------------------------------------------
def _mixed_fleet(num_groups: int, seed: int = 0) -> Fleet:
    """A heterogeneous fleet alternating profiles with varied group sizes."""
    rng = np.random.default_rng(seed)
    profiles = (opteron_2380, cubic_dvfs_profile)
    return Fleet(
        [
            ServerGroup(profiles[g % 2](), int(rng.integers(2, 15)))
            for g in range(num_groups)
        ]
    )


@pytest.fixture(scope="module")
def model9() -> DataCenterModel:
    """9 heterogeneous groups -- small enough for exact differentials,
    awkward enough (odd, prime-adjacent) to exercise uneven shard plans."""
    return DataCenterModel(fleet=_mixed_fleet(9, seed=3), beta=10.0)


def run_sharded(problem, *, shards, seed=7, iterations=60, **kw):
    with ShardedGSDSolver(
        shards=shards,
        iterations=iterations,
        rng=np.random.default_rng(seed),
        **kw,
    ) as solver:
        return solver.solve(problem)


def run_gsd(problem, *, seed=7, iterations=60, batched=True, **kw):
    # batched=True so the speculation accounting is comparable, and cold
    # (warm_start=False) like the shard workers: the two chains then share
    # every arithmetic step.  The shipped scalar chain solves per class and
    # warm-starts; test_matches_scalar_chain_too pins it within 1e-9.
    kw.setdefault("warm_start", False)
    return GSDSolver(
        iterations=iterations,
        rng=np.random.default_rng(seed),
        batched=batched,
        **kw,
    ).solve(problem)


def assert_bit_identical(sharded, reference):
    """The full differential: decision, loads, objective, counters, trace."""
    np.testing.assert_array_equal(sharded.action.levels, reference.action.levels)
    np.testing.assert_array_equal(
        sharded.action.per_server_load, reference.action.per_server_load
    )
    assert sharded.info["final_objective"] == reference.info["final_objective"]
    assert sharded.info["evaluations"] == reference.info["evaluations"]
    assert sharded.evaluation.objective == reference.evaluation.objective
    assert sharded.evaluation.cost == reference.evaluation.cost
    spec_s = sharded.info["speculation"]
    spec_r = reference.info["speculation"]
    for key in ("blocks", "full_blocks", "resyncs", "wasted_evaluations"):
        assert spec_s[key] == spec_r[key], key
    if "trace" in sharded.info and "trace" in reference.info:
        ts, tr = sharded.info["trace"], reference.info["trace"]
        np.testing.assert_array_equal(ts.chain_objective, tr.chain_objective)
        np.testing.assert_array_equal(ts.best_objective, tr.best_objective)
        np.testing.assert_array_equal(ts.accepted, tr.accepted)


# ---------------------------------------------------------------------------
# Shard plan
# ---------------------------------------------------------------------------
class TestShardPlan:
    @pytest.mark.parametrize("num_groups", [1, 2, 5, 9, 10, 1000])
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_partition_is_total_and_contiguous(self, num_groups, num_shards):
        if num_shards > num_groups:
            pytest.skip("more shards than groups is rejected by the plan")
        plan = ShardPlan(num_groups, num_shards)
        covered = []
        for s in range(num_shards):
            groups = plan.groups(s)
            covered.extend(groups)
            for g in groups:
                assert plan.owner(g) == s
        assert covered == list(range(num_groups))

    def test_non_divisor_split_matches_array_split(self):
        plan = ShardPlan(10, 4)
        sizes = [len(plan.groups(s)) for s in range(4)]
        assert sizes == [len(c) for c in np.array_split(np.arange(10), 4)]
        assert sizes == [3, 3, 2, 2]

    def test_first_shards_absorb_the_remainder(self):
        plan = ShardPlan(9, 7)
        assert [len(plan.groups(s)) for s in range(7)] == [2, 2, 1, 1, 1, 1, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardPlan(5, 0)
        with pytest.raises(ValueError):
            ShardPlan(5, 6)


# ---------------------------------------------------------------------------
# IPC transport and worker pool
# ---------------------------------------------------------------------------
def _echo_worker(channel: Channel, index: int) -> None:
    worker_loop(
        channel,
        {
            "echo": lambda frame: {"value": frame["value"], "worker": index},
            "boom": lambda frame: 1 / 0,
        },
    )


class TestTransport:
    def test_roundtrip_and_timeout(self):
        ctx = multiprocessing.get_context("fork")
        a, b = channel_pair(ctx)
        a.send({"seq": 1, "op": "x", "blob": np.arange(4)})
        frame = b.recv(timeout=5.0)
        assert frame["op"] == "x"
        np.testing.assert_array_equal(frame["blob"], np.arange(4))
        assert b.recv(timeout=0.01) is None  # nothing pending -> timeout
        a.close()
        with pytest.raises(ChannelClosedError):
            b.recv(timeout=5.0)
        b.close()

    def test_recv_seq_drops_stale_and_rejects_future(self):
        ctx = multiprocessing.get_context("fork")
        a, b = channel_pair(ctx)
        a.send({"seq": 1})
        a.send({"seq": 2})
        a.send({"seq": 3})
        # Awaiting 2: the late reply to round 1 is silently discarded.
        assert b.recv_seq(2, timeout=5.0)["seq"] == 2
        assert b.stale_drops == 1
        # A frame from the future is a protocol bug, not a late ack.
        with pytest.raises(RuntimeError, match="out-of-order"):
            b.recv_seq(2, timeout=5.0)
        a.close()
        b.close()

    def test_malformed_frame_rejected(self):
        ctx = multiprocessing.get_context("fork")
        a, b = channel_pair(ctx)
        a.send({"op": "x"})  # no seq field
        with pytest.raises(ValueError, match="malformed"):
            b.recv(timeout=5.0)
        a.close()
        b.close()


class TestWorkerPool:
    def test_request_posts_and_collects(self):
        with ShardWorkerPool(2, _echo_worker) as pool:
            reply = pool.request(0, "echo", value=41, timeout=30.0)
            assert reply["value"] == 41 and reply["worker"] == 0
            # post-all-then-collect-all: replies route by seq, per worker.
            s0 = pool.post(0, "echo", value="a")
            s1 = pool.post(1, "echo", value="b")
            assert pool.collect(1, s1, timeout=30.0)["value"] == "b"
            assert pool.collect(0, s0, timeout=30.0)["value"] == "a"
            assert pool.spawned == 2

    def test_handler_error_and_unknown_op_reply_not_kill(self):
        with ShardWorkerPool(1, _echo_worker) as pool:
            reply = pool.request(0, "boom", timeout=30.0)
            assert "ZeroDivisionError" in reply["error"]
            reply = pool.request(0, "frobnicate", timeout=30.0)
            assert "unknown op" in reply["error"]
            # Both faults were survivable: the worker still answers.
            assert pool.request(0, "echo", value=1, timeout=30.0)["value"] == 1

    def test_respawn_replaces_process_and_clears_cache(self):
        with ShardWorkerPool(1, _echo_worker) as pool:
            handle = pool.worker(0)
            handle.mark_known("fp-1")
            old_pid = handle.pid
            fresh = pool.respawn(0)
            assert fresh.pid != old_pid
            assert fresh.generation == handle.generation + 1
            assert not fresh.knows("fp-1")
            assert pool.respawns == 1
            assert pool.request(0, "echo", value=2, timeout=30.0)["value"] == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardWorkerPool(0, _echo_worker)
        with ShardWorkerPool(1, _echo_worker) as pool:
            with pytest.raises(IndexError):
                pool.worker(1)


# ---------------------------------------------------------------------------
# Differential: sharded == single-process, bit for bit
# ---------------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_matches_gsd_bitwise(self, model9, shards):
        p = make_problem(model9, lam_frac=0.55, q=8.0, onsite=0.2, V=200.0)
        ref = run_gsd(p, record_history=True)
        sol = run_sharded(p, shards=shards, record_history=True)
        assert_bit_identical(sol, ref)
        assert sol.info["sharding"]["shards"] == min(shards, 9)
        assert sum(sol.info["sharding"]["plan"]) == 9

    def test_matches_scalar_chain_too(self, model9):
        """The speculative block machinery must not leak into decisions:
        the shipped scalar GSD chain (class-compressed, warm-started) lands
        on the same configuration, within the 1e-9 objective contract."""
        p = make_problem(model9, lam_frac=0.55, q=8.0)
        ref = run_gsd(p, batched=False, warm_start=None)
        sol = run_sharded(p, shards=4)
        np.testing.assert_array_equal(sol.action.levels, ref.action.levels)
        np.testing.assert_allclose(
            sol.action.per_server_load, ref.action.per_server_load, rtol=1e-9
        )
        assert sol.info["final_objective"] == pytest.approx(
            ref.info["final_objective"], rel=1e-9
        )
        assert sol.info["evaluations"] == ref.info["evaluations"]

    @pytest.mark.parametrize("shards", [2, 4])
    def test_nu_matches_centralized_waterfilling(self, model9, shards):
        p = make_problem(model9, lam_frac=0.4, q=12.0)
        sol = run_sharded(p, shards=shards)
        ld = distribute_load(p, sol.action.levels)
        assert sol.info["load_distribution"]["nu"] == ld.nu
        assert sol.info["load_distribution"]["regime"] == ld.regime
        np.testing.assert_array_equal(sol.action.per_server_load, ld.per_server_load)

    @pytest.mark.parametrize("shards", [3, 7])
    def test_failed_groups_match(self, model9, shards):
        failed = [1, 4]
        p = make_problem(model9, lam_frac=0.3, q=5.0)
        ref = run_gsd(p, failed_groups=failed)
        sol = run_sharded(p, shards=shards, failed_groups=failed)
        assert_bit_identical(sol, ref)
        assert np.all(sol.action.levels[failed] == -1)

    def test_initial_levels_match(self, model9):
        init = [0, 1, 2, 0, 1, 2, 0, 1, 2]
        p = make_problem(model9, lam_frac=0.25, q=4.0)
        ref = run_gsd(p, initial_levels=init)
        sol = run_sharded(p, shards=4, initial_levels=init)
        assert_bit_identical(sol, ref)

    def test_power_capped_problem_matches(self, model9):
        # Cap the facility just above what a mid-load slot needs so the
        # chain actually trips the screening path.
        probe = make_problem(model9, lam_frac=0.5, q=6.0)
        baseline = run_gsd(probe, iterations=20)
        cap = 1.12 * baseline.evaluation.facility_power
        p = dataclasses.replace(probe, peak_power_cap=cap)
        ref = run_gsd(p)
        sol = run_sharded(p, shards=4)
        assert_bit_identical(sol, ref)
        assert sol.info["fastpath"]["screened_infeasible"] >= 0

    def test_more_shards_than_groups_clamps(self, tiny_model):
        # A 1-group fleet under shards=4: plan clamps to one shard.
        fleet = Fleet([ServerGroup(opteron_2380(), 6)])
        model = DataCenterModel(fleet=fleet, beta=10.0)
        p = make_problem(model, lam_frac=0.5)
        ref = run_gsd(p, iterations=30)
        sol = run_sharded(p, shards=4, iterations=30)
        assert_bit_identical(sol, ref)
        assert sol.info["sharding"]["shards"] == 1

    @pytest.mark.parametrize("case", range(6))
    def test_randomized_fleets_property(self, case):
        """Random heterogeneous fleets, sizes, failures, and shard counts:
        sharded must track the single-process chain bit for bit."""
        rng = np.random.default_rng(1000 + case)
        G = int(rng.integers(2, 28))
        fleet = _mixed_fleet(G, seed=int(rng.integers(0, 2**31)))
        model = DataCenterModel(fleet=fleet, beta=float(rng.uniform(5.0, 20.0)))
        failed = None
        if G > 3 and rng.random() < 0.5:
            failed = rng.choice(G, size=int(rng.integers(1, G // 2)), replace=False)
        kw = dict(
            lam_frac=float(rng.uniform(0.15, 0.6)),
            q=float(rng.uniform(0.0, 15.0)),
            onsite=float(rng.uniform(0.0, 0.5)),
            price=float(rng.uniform(20.0, 80.0)),
        )
        p = make_problem(model, **kw)
        shards = int(rng.integers(1, min(7, G) + 1))
        seed = int(rng.integers(0, 2**31))
        ref = run_gsd(p, seed=seed, iterations=40, failed_groups=failed)
        sol = run_sharded(
            p, shards=shards, seed=seed, iterations=40, failed_groups=failed
        )
        assert_bit_identical(sol, ref)

    def test_thousand_group_fleet_matches(self):
        fleet = _mixed_fleet(1000, seed=42)
        model = DataCenterModel(fleet=fleet, beta=10.0)
        p = make_problem(model, lam_frac=0.45, q=6.0)
        ref = run_gsd(p, iterations=12)
        sol = run_sharded(p, shards=7, iterations=12)
        assert_bit_identical(sol, ref)

    @pytest.mark.slow
    def test_ten_thousand_group_fleet_matches(self):
        fleet = _mixed_fleet(10_000, seed=42)
        model = DataCenterModel(fleet=fleet, beta=10.0)
        p = make_problem(model, lam_frac=0.45, q=6.0)
        ref = run_gsd(p, iterations=8)
        sol = run_sharded(p, shards=7, iterations=8)
        assert_bit_identical(sol, ref)


# ---------------------------------------------------------------------------
# Local draw mode: shard-count invariance
# ---------------------------------------------------------------------------
class TestLocalDrawMode:
    def test_shard_count_invariant(self, model9):
        p = make_problem(model9, lam_frac=0.5, q=8.0)
        results = [
            run_sharded(p, shards=s, draw_mode="local", draw_seed=5)
            for s in (1, 3, 7)
        ]
        for other in results[1:]:
            np.testing.assert_array_equal(
                results[0].action.levels, other.action.levels
            )
            np.testing.assert_array_equal(
                results[0].action.per_server_load, other.action.per_server_load
            )
            assert results[0].info["final_objective"] == other.info["final_objective"]
            assert results[0].info["evaluations"] == other.info["evaluations"]

    def test_state_dict_resume_is_bit_identical(self, model9):
        """Checkpoint the worker substream positions mid-sequence, thaw in
        a *fresh* solver with a different shard count, and require the
        second solve to land exactly where an uninterrupted pair did."""
        p = make_problem(model9, lam_frac=0.5, q=8.0)
        with ShardedGSDSolver(
            shards=3, iterations=40, rng=np.random.default_rng(9),
            draw_mode="local", draw_seed=5,
        ) as golden:
            golden.solve(p)
            want = golden.solve(p)

        with ShardedGSDSolver(
            shards=3, iterations=40, rng=np.random.default_rng(9),
            draw_mode="local", draw_seed=5,
        ) as first:
            first.solve(p)
            state = json.loads(json.dumps(first.state_dict()))

        with ShardedGSDSolver(
            shards=5, iterations=40, rng=np.random.default_rng(0),
            draw_mode="local", draw_seed=5,
        ) as resumed:
            resumed.load_state_dict(state)
            got = resumed.solve(p)

        np.testing.assert_array_equal(got.action.levels, want.action.levels)
        np.testing.assert_array_equal(
            got.action.per_server_load, want.action.per_server_load
        )
        assert got.info["final_objective"] == want.info["final_objective"]


# ---------------------------------------------------------------------------
# Warm pool reuse and fingerprinting
# ---------------------------------------------------------------------------
class TestWarmPool:
    def test_workers_persist_across_solves(self, model9):
        p = make_problem(model9, lam_frac=0.5, q=8.0)
        with ShardedGSDSolver(
            shards=3, iterations=20, rng=np.random.default_rng(2)
        ) as solver:
            solver.solve(p)
            pids = [solver.pool.worker(i).pid for i in range(3)]
            solver.solve(p)
            assert [solver.pool.worker(i).pid for i in range(3)] == pids
            assert solver.pool.respawns == 0

    def test_fingerprint_ignores_slot_fields(self, model9, tiny_model):
        a = make_problem(model9, lam_frac=0.5, price=40.0)
        b = make_problem(model9, lam_frac=0.2, price=90.0, q=7.0, onsite=0.3)
        fp_a, _ = problem_fingerprint(a)
        fp_b, _ = problem_fingerprint(b)
        # Slot-varying inputs ride the per-solve "begin" frame; only the
        # structural problem (fleet, delay model, ...) keys the warm cache.
        assert fp_a == fp_b
        fp_c, _ = problem_fingerprint(make_problem(tiny_model, lam_frac=0.5))
        assert fp_c != fp_a

    def test_bulk_state_ships_once_per_fingerprint(self, model9):
        with ShardedGSDSolver(
            shards=2, iterations=15, rng=np.random.default_rng(4)
        ) as solver:
            solver.solve(make_problem(model9, lam_frac=0.5))
            fp, _ = problem_fingerprint(make_problem(model9, lam_frac=0.3))
            assert all(solver.pool.worker(i).knows(fp) for i in range(2))
            n_load = solver.solve(make_problem(model9, lam_frac=0.3)).info[
                "messages_by_kind"
            ]
            # load_problem travels out-of-band, so bus traffic never grows
            # with problem size -- and the second solve re-ships nothing.
            assert "load_problem" not in n_load


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------
class TestValidation:
    def test_constructor_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            ShardedGSDSolver(shards=0)
        with pytest.raises(ValueError):
            ShardedGSDSolver(shards=2, iterations=0)
        with pytest.raises(ValueError):
            ShardedGSDSolver(shards=2, draw_mode="psychic")
        with pytest.raises(ValueError):
            ShardedGSDSolver(shards=2, retries=-1)
        with pytest.raises(ValueError):
            ShardedGSDSolver(shards=2, io_timeout_s=0.0)
        with pytest.raises(ValueError):
            ShardedGSDSolver(shards=2, delta=-1.0)

    def test_failed_group_out_of_range(self, model9):
        p = make_problem(model9, lam_frac=0.4)
        with ShardedGSDSolver(
            shards=2, iterations=5, failed_groups=[99]
        ) as solver:
            with pytest.raises(ValueError, match="out of range"):
                solver.solve(p)
