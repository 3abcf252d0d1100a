"""Crash-safe state: the checkpoint log's format, fold, recovery, resume.

Four contracts anchor ``repro.state`` (docs/OPERATIONS.md):

1. **Byte-identity** — save -> load -> save of a record is byte-identical
   for arbitrary JSON-safe run state (hypothesis-pinned), and the fold of
   a log equals the run's state with every per-slot series re-encoded
   whole (the oracle in ``tests/state_oracle.py``).
2. **Corruption detection** — truncating a log at any byte or flipping any
   single bit folds it back to exactly the last intact record; a damaged
   first record gives no checkpoint, never a different state.
3. **Recovery** — a corrupt newest record falls back to the previous one
   with a ``state.checkpoint_rejected`` event, and a resume cuts a torn
   tail off and appends the bytes the uninterrupted run wrote.
4. **Resume replay** — kill-at-slot-k plus resume reproduces the
   remaining slots bit-identically, including under chaos schedules
   with a lossy distributed bus.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coca import COCA
from repro.faults import DegradationPolicy, FaultInjector, FaultSchedule
from repro.scenarios import small_scenario
from repro.serve import LiveEnvironment, StalenessResolver, SyntheticSignalSource
from repro.sim import simulate
from repro.sim.engine import RECORD_COLUMNS, SlotRunner
from repro.solvers import DistributedGSD, GSDSolver
from repro.state import (
    LOG_NAME,
    Checkpoint,
    CheckpointError,
    CheckpointWriter,
    atomic_write_bytes,
    atomic_write_text,
    canonical_dumps,
    commit_file,
    decode_array,
    decode_rng,
    dumps_checkpoint,
    encode_array,
    encode_rng,
    environment_fingerprint,
    latest_valid_checkpoint,
    load_checkpoint,
    load_record,
    loads_checkpoint,
    record_mismatches,
    save_record,
)
from repro.state import serialize
from repro.telemetry import InMemoryTracer, Telemetry
from tests.state_oracle import checkpoint_at, full_capture, record_spans


def _record_fields_equal(a, b) -> list[str]:
    return record_mismatches(a, b)


# ------------------------------------------------------------- strategies
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=16),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=24,
)
#: Arbitrary mid-run state payloads: what a checkpoint must round-trip.
states = st.dictionaries(st.text(max_size=8), json_values, max_size=6)
slots = st.integers(min_value=0, max_value=10**7)


# --------------------------------------------------------------- atomic IO
class TestAtomic:
    def test_write_bytes_replaces_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(str(path), b"one")
        atomic_write_bytes(str(path), b"two")
        assert path.read_bytes() == b"two"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_write_text(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(str(path), "héllo\n")
        assert path.read_text() == "héllo\n"

    def test_commit_file(self, tmp_path):
        final = tmp_path / "trace.jsonl"
        fh = open(str(final) + ".part", "w")
        fh.write("line\n")
        commit_file(fh, str(final))
        assert final.read_text() == "line\n"
        assert not os.path.exists(str(final) + ".part")


# ------------------------------------------------------------- serializers
class TestSerialize:
    @given(states)
    @settings(max_examples=100, deadline=None)
    def test_canonical_dumps_round_trip_is_byte_identical(self, state):
        first = canonical_dumps(state)
        second = canonical_dumps(json.loads(first))
        assert first == second

    @given(json_values)
    @settings(max_examples=150, deadline=None)
    def test_canonical_dumps_matches_the_single_call_encoder(self, value):
        assert canonical_dumps(value) == json.dumps(
            value, sort_keys=True, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_raise(self, bad):
        with pytest.raises(ValueError):
            canonical_dumps({"cost": [1.0, bad]})

    @pytest.mark.parametrize("dtype", ["float64", "int64", "float32"])
    def test_array_round_trip_preserves_dtype(self, dtype):
        arr = np.array([1, 2, 3], dtype=dtype)
        back = decode_array(encode_array(arr))
        assert back.dtype == arr.dtype
        assert np.array_equal(back, arr)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_array_with_non_finite_values_raises(self, dtype, bad):
        with pytest.raises(ValueError):
            encode_array(np.array([1.0, bad, 3.0], dtype=dtype))

    def test_array_form_is_one_string_per_array(self):
        arr = np.full(200, 1080.0)
        encoded = encode_array(arr)
        assert sorted(encoded) == ["dtype", "shape", "zlib"]
        assert _floats(encoded) == 0
        assert len(canonical_dumps(encoded)) < len(canonical_dumps(arr.tolist())) // 10

    def test_array_none_passes_through(self):
        assert encode_array(None) is None
        assert decode_array(None) is None

    def test_rng_round_trip_continues_identically(self):
        rng = np.random.default_rng(42)
        rng.random(17)  # advance mid-stream
        clone = decode_rng(json.loads(canonical_dumps(encode_rng(rng)).decode()))
        assert np.array_equal(rng.random(32), clone.random(32))

    def test_environment_fingerprint_distinguishes_worlds(self):
        a = small_scenario(horizon=48, seed=3).environment
        b = small_scenario(horizon=48, seed=4).environment
        assert environment_fingerprint(a) == environment_fingerprint(a)
        assert environment_fingerprint(a) != environment_fingerprint(b)


# -------------------------------------------------------- checkpoint format
class TestCheckpointFormat:
    @given(slots, states)
    @settings(max_examples=100, deadline=None)
    def test_save_load_save_is_byte_identical(self, slot, state):
        data = dumps_checkpoint(slot, state)
        ckpt = loads_checkpoint(data)
        assert ckpt.slot == slot
        assert dumps_checkpoint(ckpt.slot, ckpt.state) == data

    @given(slots, states, st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncation_always_rejected(self, slot, state, data):
        # The closing newline is part of the record: losing it is truncation.
        blob = dumps_checkpoint(slot, state)
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        with pytest.raises(CheckpointError):
            loads_checkpoint(blob[:cut])

    @given(slots, states, st.data())
    @settings(max_examples=60, deadline=None)
    def test_single_bit_flip_always_rejected(self, slot, state, data):
        blob = bytearray(dumps_checkpoint(slot, state))
        idx = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        blob[idx] ^= 1 << bit
        with pytest.raises(CheckpointError):
            loads_checkpoint(bytes(blob))

    def test_negative_slot_rejected(self):
        with pytest.raises(CheckpointError):
            dumps_checkpoint(-1, {})

    def test_future_version_rejected(self):
        blob = dumps_checkpoint(3, {"q": 1.5})
        header, payload = blob.split(b"\n", 1)
        for version in (1, 99):
            doc = json.loads(header)
            doc["version"] = version
            forged = canonical_dumps(doc) + b"\n" + payload
            with pytest.raises(CheckpointError, match="version"):
                loads_checkpoint(forged)

    def test_non_checkpoint_file_rejected(self):
        with pytest.raises(CheckpointError):
            loads_checkpoint(b'{"hello": "world"}\n{}\n')

    def test_file_round_trip(self, tmp_path):
        path = CheckpointWriter(tmp_path, sync=False).write(7, {"queue": 1.25})
        ckpt = load_checkpoint(path)
        assert ckpt.slot == 7
        assert ckpt.state == {"queue": 1.25, "series": {}}
        assert ckpt.path == path == str(tmp_path / LOG_NAME)
        assert ckpt.end == os.path.getsize(path)


# ------------------------------------------------------------ log + recovery
def _series(**named) -> dict:
    """A record's ``series`` part: one group ``g`` of ``(start, rows)``."""
    return {"g": {n: {"from": start, "rows": rows} for n, (start, rows) in named.items()}}


class TestRotationAndRecovery:
    """Cadence, the fold, corrupt-record recovery and the fresh-log rule of
    the checkpoint log."""

    def test_cadence(self, tmp_path):
        writer = CheckpointWriter(tmp_path, every=4, sync=False)
        for slot in range(1, 13):
            writer.maybe_write(slot, lambda: {"slot": slot})
        spans = record_spans(tmp_path / LOG_NAME)
        assert [slot for slot, _, _ in spans] == [4, 8, 12]

    def test_build_state_not_called_off_cadence(self, tmp_path):
        writer = CheckpointWriter(tmp_path, every=100, sync=False)
        writer.maybe_write(3, lambda: pytest.fail("capture ran off-cadence"))

    def test_fold_concatenates_series_and_keeps_the_newest_state(self, tmp_path):
        writer = CheckpointWriter(tmp_path, sync=False)
        writer.write(1, {"q": 1.0, "series": _series(a=(0, [1.0]), b=(0, []))})
        writer.write(3, {"q": 2.0, "series": _series(a=(1, [2.0, 3.0]), b=(0, [9.0]))})
        ckpt = latest_valid_checkpoint(tmp_path)
        assert ckpt.slot == 3
        assert ckpt.state == {"q": 2.0, "series": {"g": {"a": [1.0, 2.0, 3.0], "b": [9.0]}}}

    def test_record_that_does_not_continue_the_log_is_rejected(self, tmp_path):
        writer = CheckpointWriter(tmp_path, sync=False)
        writer.write(1, {"series": _series(a=(0, [1.0]))})
        writer.write(2, {"series": _series(a=(5, [2.0]))})
        tracer = InMemoryTracer()
        ckpt = latest_valid_checkpoint(tmp_path, telemetry=Telemetry(tracer=tracer))
        assert ckpt.slot == 1 and ckpt.state["series"] == {"g": {"a": [1.0]}}
        (event,) = [e for e in tracer.events if e["kind"] == "state.checkpoint_rejected"]
        assert "does not continue" in event["error"]

    def test_corrupt_newest_falls_back_with_telemetry(self, tmp_path):
        writer = CheckpointWriter(tmp_path, every=1, sync=False)
        for slot in range(1, 4):
            writer.write(slot, {"slot": slot})
        path = tmp_path / LOG_NAME
        _, start, end = record_spans(path)[-1]
        blob = bytearray(path.read_bytes())
        blob[(start + end) // 2] ^= 0x01
        path.write_bytes(bytes(blob))

        tracer = InMemoryTracer()
        ckpt = latest_valid_checkpoint(tmp_path, telemetry=Telemetry(tracer=tracer))
        assert ckpt is not None and ckpt.slot == 2 and ckpt.end == start
        rejected = [e for e in tracer.events if e["kind"] == "state.checkpoint_rejected"]
        assert len(rejected) == 1
        assert rejected[0]["path"] == str(path)
        assert rejected[0]["offset"] == start

    def test_no_valid_checkpoint_returns_none(self, tmp_path):
        assert latest_valid_checkpoint(tmp_path) is None
        (tmp_path / LOG_NAME).write_bytes(b"garbage")
        assert latest_valid_checkpoint(tmp_path) is None

    def test_writer_validates_parameters(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointWriter(tmp_path, every=0)

    def test_writer_holds_one_descriptor_until_closed(self, tmp_path, monkeypatch):
        opened = []
        real_open = os.open
        monkeypatch.setattr(
            os, "open", lambda *a, **k: opened.append(a[0]) or real_open(*a, **k)
        )
        writer = CheckpointWriter(tmp_path, sync=False)
        for slot in range(1, 5):
            writer.write(slot, {"slot": slot})
        assert opened == [writer.path]
        writer.close()
        writer.close()  # idempotent
        writer.write(5, {"slot": 5})  # a later write reopens the log
        writer.close()
        assert opened == [writer.path] * 2
        assert [s for s, _, _ in record_spans(tmp_path / LOG_NAME)] == [1, 2, 3, 4, 5]

    def test_fresh_writer_refuses_an_existing_log(self, tmp_path):
        CheckpointWriter(tmp_path, sync=False).write(1, {})
        with pytest.raises(CheckpointError, match="already holds"):
            CheckpointWriter(tmp_path, sync=False).write(1, {})
        assert len(record_spans(tmp_path / LOG_NAME)) == 1


# ----------------------------------------------------------- record files
class TestRecordFiles:
    def test_save_load_round_trip_and_mismatch(self, tmp_path):
        scenario = small_scenario(horizon=48, seed=3)
        record = simulate(
            scenario.model,
            COCA(
                scenario.model,
                scenario.environment.portfolio,
                v_schedule=150.0,
                alpha=scenario.alpha,
            ),
            scenario.environment,
        )
        path = str(tmp_path / "record.npz")
        save_record(record, path)
        back = load_record(path)
        assert record_mismatches(record, back) == []
        tampered = dataclasses.replace(back, cost=back.cost + 1.0)
        assert "cost" in record_mismatches(record, tampered)


# ------------------------------------------------------- resume bit-replay
def _coca(scenario, solver=None):
    return COCA(
        scenario.model,
        scenario.environment.portfolio,
        v_schedule=150.0,
        alpha=scenario.alpha,
        solver=solver,
    )


class TestResumeReplay:
    @pytest.mark.parametrize("seed", [3, 5, 9])
    def test_resume_is_bit_identical(self, tmp_path, seed):
        scenario = small_scenario(horizon=48, seed=seed)
        golden = simulate(scenario.model, _coca(scenario), scenario.environment)
        checkpointed = simulate(
            scenario.model,
            _coca(scenario),
            scenario.environment,
            checkpoint=CheckpointWriter(tmp_path, every=1, sync=False),
        )
        assert record_mismatches(golden, checkpointed) == []

        kill_slot = 13 + seed
        ckpt = checkpoint_at(tmp_path, kill_slot, tmp_path / "at")
        resumed = simulate(
            scenario.model, _coca(scenario), scenario.environment, resume_from=ckpt
        )
        assert record_mismatches(golden, resumed) == []

    def test_resume_from_legacy_frame_accumulators(self, tmp_path):
        """Checkpoints of older versions carry COCA's adaptive-V frame
        accumulators (``frame_cost``, ``frame_deficit``, ``frame_slots``);
        a run resumed from one is bit-identical to an uninterrupted run."""
        scenario = small_scenario(horizon=48, seed=5)
        golden = simulate(scenario.model, _coca(scenario), scenario.environment)
        simulate(
            scenario.model,
            _coca(scenario),
            scenario.environment,
            checkpoint=CheckpointWriter(tmp_path, every=1, sync=False),
        )
        log = tmp_path / LOG_NAME
        data = log.read_bytes()
        legacy = bytearray()
        for slot, start, end in record_spans(log):
            if slot > 20:
                break
            record = loads_checkpoint(data[start:end]).state
            controller = record["controller"]["state"]
            assert "frame_cost" not in controller
            controller.update(frame_cost=1.5 * slot, frame_deficit=-0.25, frame_slots=slot)
            legacy += dumps_checkpoint(slot, record)
        (tmp_path / "legacy.log").write_bytes(bytes(legacy))
        ckpt = load_checkpoint(str(tmp_path / "legacy.log"))
        assert ckpt.slot == 20
        assert ckpt.state["controller"]["state"]["frame_slots"] == 20
        resumed = simulate(
            scenario.model, _coca(scenario), scenario.environment, resume_from=ckpt
        )
        assert record_mismatches(golden, resumed) == []

    def test_resume_from_legacy_last_realized_loads(self, tmp_path):
        """Checkpoints of older versions store a fault run's last realized
        action with its per-group loads (``last_realized`` holds
        ``levels`` and ``per_server_load``); only the levels are read, and a
        run resumed from one -- with last-action fallbacks after the
        resume slot -- is bit-identical to an uninterrupted run."""
        scenario = small_scenario(horizon=36, seed=5)
        G = scenario.model.fleet.num_groups
        schedule = FaultSchedule.generate(
            3, horizon=36, num_groups=G, failure_rate=0.1, mean_repair=4.0, loss=0.3
        )

        def run(policy, **kwargs):
            solver = DistributedGSD(iterations=6, rng=np.random.default_rng(2))
            return simulate(
                scenario.model,
                _coca(scenario, solver=solver),
                scenario.environment,
                faults=FaultInjector(schedule, num_groups=G),
                degradation=policy,
                **kwargs,
            )

        golden_policy = DegradationPolicy(retries=0)
        golden = run(golden_policy)
        run(
            DegradationPolicy(retries=0),
            checkpoint=CheckpointWriter(tmp_path, every=1, sync=False),
        )
        log = tmp_path / LOG_NAME
        data = log.read_bytes()
        legacy = bytearray()
        for slot, start, end in record_spans(log):
            if slot > 20:
                break
            record = loads_checkpoint(data[start:end]).state
            last = record["last_realized"]
            if last is not None:
                assert set(last) == {"levels"}
                levels = serialize.decode_array(last["levels"])
                loads = np.where(levels >= 0, 1.5, 0.0)
                last["per_server_load"] = serialize.encode_array(loads)
            legacy += dumps_checkpoint(slot, record)
        (tmp_path / "legacy.log").write_bytes(bytes(legacy))
        ckpt = load_checkpoint(str(tmp_path / "legacy.log"))
        assert ckpt.slot == 20
        assert "per_server_load" in ckpt.state["last_realized"]
        assert golden_policy.fallbacks > ckpt.state["degradation"]["fallbacks"]
        resumed = run(DegradationPolicy(retries=0), resume_from=ckpt)
        assert record_mismatches(golden, resumed) == []

    def test_resume_under_chaos_with_lossy_bus(self, tmp_path):
        scenario = small_scenario(horizon=36, seed=5)
        schedule = FaultSchedule.generate(
            11,
            horizon=36,
            num_groups=scenario.model.fleet.num_groups,
            failure_rate=0.05,
            mean_repair=4.0,
            signal_rate=0.02,
            loss=0.15,
            delay=0.1,
            duplicate=0.05,
        )

        def run(**kwargs):
            solver = DistributedGSD(iterations=6, rng=np.random.default_rng(11))
            injector = FaultInjector(
                schedule, num_groups=scenario.model.fleet.num_groups
            )
            return simulate(
                scenario.model,
                _coca(scenario, solver=solver),
                scenario.environment,
                faults=injector,
                degradation=DegradationPolicy(),
                **kwargs,
            )

        golden = run()
        run(checkpoint=CheckpointWriter(tmp_path, every=1, sync=False))
        ckpt = checkpoint_at(tmp_path, 17, tmp_path / "at")
        resumed = run(resume_from=ckpt)
        assert record_mismatches(golden, resumed) == []

    def test_resume_with_gsd_solver(self, tmp_path):
        scenario = small_scenario(horizon=36, seed=7)

        def run(**kwargs):
            solver = GSDSolver(iterations=40, rng=np.random.default_rng(7))
            return simulate(
                scenario.model,
                _coca(scenario, solver=solver),
                scenario.environment,
                **kwargs,
            )

        golden = run()
        run(checkpoint=CheckpointWriter(tmp_path, every=1, sync=False))
        ckpt = checkpoint_at(tmp_path, 20, tmp_path / "at")
        resumed = run(resume_from=ckpt)
        assert record_mismatches(golden, resumed) == []

    def test_resume_refuses_wrong_environment(self, tmp_path):
        scenario = small_scenario(horizon=48, seed=3)
        simulate(
            scenario.model,
            _coca(scenario),
            scenario.environment,
            checkpoint=CheckpointWriter(tmp_path, every=1, sync=False),
        )
        ckpt = checkpoint_at(tmp_path, 10, tmp_path / "at")
        other = small_scenario(horizon=48, seed=4)
        with pytest.raises(CheckpointError, match="fingerprint"):
            simulate(other.model, _coca(other), other.environment, resume_from=ckpt)

    def test_resume_refuses_wrong_controller(self, tmp_path):
        from repro.baselines import CarbonUnaware

        scenario = small_scenario(horizon=48, seed=3)
        simulate(
            scenario.model,
            _coca(scenario),
            scenario.environment,
            checkpoint=CheckpointWriter(tmp_path, every=1, sync=False),
        )
        ckpt = checkpoint_at(tmp_path, 10, tmp_path / "at")
        with pytest.raises(CheckpointError, match="controller"):
            simulate(
                scenario.model,
                CarbonUnaware(scenario.model),
                scenario.environment,
                resume_from=ckpt,
            )

    def test_resume_emits_state_resume_event(self, tmp_path):
        scenario = small_scenario(horizon=48, seed=3)
        simulate(
            scenario.model,
            _coca(scenario),
            scenario.environment,
            checkpoint=CheckpointWriter(tmp_path, every=1, sync=False),
        )
        ckpt = checkpoint_at(tmp_path, 10, tmp_path / "at")
        tracer = InMemoryTracer()
        simulate(
            scenario.model,
            _coca(scenario),
            scenario.environment,
            resume_from=ckpt,
            telemetry=Telemetry(tracer=tracer),
        )
        resumes = [e for e in tracer.events if e["kind"] == "state.resume"]
        assert len(resumes) == 1 and resumes[0]["slot"] == 10

    def test_torn_tail_resume_appends_the_uninterrupted_bytes(self, tmp_path):
        scenario = small_scenario(horizon=24, seed=3)
        golden_dir, torn_dir = tmp_path / "golden", tmp_path / "torn"
        golden = simulate(
            scenario.model, _coca(scenario), scenario.environment,
            checkpoint=CheckpointWriter(golden_dir, sync=False),
        )
        blob = (golden_dir / LOG_NAME).read_bytes()
        slot, start, end = record_spans(golden_dir / LOG_NAME)[10]
        torn_dir.mkdir()
        (torn_dir / LOG_NAME).write_bytes(blob[: (start + end) // 2])  # killed mid-append

        ckpt = latest_valid_checkpoint(torn_dir)
        assert ckpt.slot == slot - 1 and ckpt.end == start
        resumed = simulate(
            scenario.model, _coca(scenario), scenario.environment,
            checkpoint=CheckpointWriter(torn_dir, sync=False),
            resume_from=ckpt,
        )
        assert (torn_dir / LOG_NAME).read_bytes() == blob
        assert record_mismatches(golden, resumed) == []

    def test_resume_into_another_directory_starts_a_full_log(self, tmp_path):
        scenario = small_scenario(horizon=24, seed=3)
        simulate(
            scenario.model, _coca(scenario), scenario.environment,
            checkpoint=CheckpointWriter(tmp_path / "a", sync=False),
        )
        simulate(
            scenario.model, _coca(scenario), scenario.environment,
            checkpoint=CheckpointWriter(tmp_path / "b", sync=False),
            resume_from=checkpoint_at(tmp_path / "a", 10, tmp_path / "at"),
        )
        assert [s for s, _, _ in record_spans(tmp_path / "b" / LOG_NAME)] == list(
            range(11, 25)
        )
        whole, moved = (latest_valid_checkpoint(tmp_path / d) for d in "ab")
        assert canonical_dumps(moved.state) == canonical_dumps(whole.state)


# -------------------------------------------------- controller state dicts
class TestControllerStateRoundTrips:
    def _mid_run_state(self, controller, scenario, slots=9):
        simulate_slots = scenario.environment
        controller.start(simulate_slots)
        for t in range(slots):
            obs = simulate_slots.observation(t)
            solution = controller.decide(obs)
            from repro.core.controller import SlotOutcome

            controller.observe(
                SlotOutcome(
                    t=t,
                    evaluation=solution.evaluation,
                    offsite=simulate_slots.offsite(t),
                )
            )
        return controller.state_dict()

    def test_coca_state_save_load_save_byte_identical(self):
        scenario = small_scenario(horizon=48, seed=3)
        coca = _coca(scenario)
        state = self._mid_run_state(coca, scenario)
        first = canonical_dumps(state)
        fresh = _coca(scenario)
        fresh.load_state_dict(json.loads(first))
        assert canonical_dumps(fresh.state_dict()) == first
        # The per-slot histories travel as series, not in the state dict.
        series = canonical_dumps(coca.series())
        assert sorted(coca.series()) == ["queue_at_decision", "queue_lengths", "v_history"]
        assert all(len(rows) == 9 for rows in coca.series().values())
        fresh.load_series(json.loads(series))
        assert canonical_dumps(fresh.series()) == series

    def test_injector_state_round_trip_including_empty_schedule(self):
        for schedule in (
            FaultSchedule(events=(), messages=None, seed=None),
            FaultSchedule.generate(5, horizon=48, num_groups=4, signal_rate=0.05),
        ):
            injector = FaultInjector(schedule, num_groups=4)
            for t in range(12):
                injector.begin_slot(t)
            first = canonical_dumps(injector.state_dict())
            clone = FaultInjector(schedule, num_groups=4)
            clone.load_state_dict(json.loads(first))
            assert canonical_dumps(clone.state_dict()) == first



# ------------------------------------------------------- the log's fold
@pytest.fixture(scope="module")
def built_log(tmp_path_factory):
    """A 12-slot live serve's log with one record per slot, plus a second
    record at slot 6 with no new rows: ``(bytes, record ends, oracle,
    scratch)`` where ``oracle[k]`` is the slot and full re-encode after
    record ``k``.  A lossy synthetic feed resolves the frames, so the
    records carry the ``environment`` group beside the other series."""
    scratch = tmp_path_factory.mktemp("log")
    scenario = small_scenario(horizon=12, seed=3)
    environment = LiveEnvironment(scenario.horizon)
    runner = SlotRunner(
        scenario.model, _coca(scenario), environment, faults=FaultSchedule()
    )
    resolver = StalenessResolver(
        SyntheticSignalSource(scenario.environment, seed=7), injector=runner.injector
    )
    runner.start()
    writer = CheckpointWriter(scratch, sync=False)
    ends, oracle = [], []
    for t in range(scenario.horizon):
        environment.append(resolver.resolve(t))
        runner.step(t)
        for _ in range(2 if t == 5 else 1):
            record = runner.capture(t + 1)
            writer.write(t + 1, record)
            ends.append(os.path.getsize(writer.path))
            oracle.append((t + 1, full_capture(runner, record)))
    return (scratch / LOG_NAME).read_bytes(), ends, oracle, scratch


def _damage_in_a_record(built_log, data) -> tuple[int, int]:
    """A drawn record index and a byte offset inside that record."""
    _, ends, _, _ = built_log
    k = data.draw(st.integers(min_value=0, max_value=len(ends) - 1))
    start = ends[k - 1] if k else 0
    return k, data.draw(st.integers(min_value=start, max_value=ends[k] - 1))


def _assert_folds_to(built_log, blob: bytes, intact: int) -> None:
    """The log ``blob`` folds to the state after its first ``intact``
    records, or to no checkpoint when ``intact`` is 0."""
    _, ends, oracle, scratch = built_log
    probe = scratch / "probe.log"
    probe.write_bytes(blob)
    ckpt = load_checkpoint(str(probe))
    if intact == 0:
        assert ckpt is None
        return
    slot, full = oracle[intact - 1]
    assert (ckpt.slot, ckpt.end) == (slot, ends[intact - 1])
    assert canonical_dumps(ckpt.state) == full


class TestLogFold:
    def test_whole_log_folds_to_the_full_re_encode(self, built_log):
        blob, ends, _, _ = built_log
        _assert_folds_to(built_log, blob, len(ends))
        frames = load_checkpoint(str(built_log[3] / LOG_NAME)).state["series"]
        assert len(frames["environment"]["frames"]) == 12

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_truncation_folds_to_the_last_intact_record(self, built_log, data):
        blob = built_log[0]
        k, cut = _damage_in_a_record(built_log, data)
        _assert_folds_to(built_log, blob[:cut], k)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_single_bit_flip_folds_to_the_last_intact_record(self, built_log, data):
        blob = bytearray(built_log[0])
        k, idx = _damage_in_a_record(built_log, data)
        blob[idx] ^= 1 << data.draw(st.integers(min_value=0, max_value=7))
        _assert_folds_to(built_log, bytes(blob), k)

    def test_record_bytes_do_not_grow_with_the_slot(self, tmp_path):
        scenario = small_scenario(horizon=96, seed=3)
        simulate(
            scenario.model, _coca(scenario), scenario.environment,
            checkpoint=CheckpointWriter(tmp_path, every=4, sync=False),
        )
        blob = (tmp_path / LOG_NAME).read_bytes()
        spans = record_spans(tmp_path / LOG_NAME)
        assert len(spans) == 24
        floats = {_floats(blob[blob.index(b"\n", s) + 1 : e]) for _, s, e in spans}
        assert len(floats) == 1, "a record's float count grew with the slot"
        sizes = [e - s for _, s, e in spans]
        early, late = statistics.mean(sizes[:6]), statistics.mean(sizes[-6:])
        assert late <= 1.1 * early, f"records grew from {early:.0f} to {late:.0f} B"


# ------------------------------------------------ incremental capture
def _floats(payload) -> int:
    """How many floats a state (or its JSON text) holds: each one is a
    float-to-text conversion when the state is encoded."""
    count = 0

    def parse(text):
        nonlocal count
        count += 1
        return float(text)

    text = payload if isinstance(payload, bytes) else canonical_dumps(payload)
    json.loads(text, parse_float=parse)
    return count


class TestIncrementalCapture:
    def _runner(self, scenario, **kwargs):
        runner = SlotRunner(
            scenario.model, _coca(scenario), scenario.environment, **kwargs
        )
        runner.start()
        return runner

    def test_capture_converts_only_new_rows(self):
        scenario = small_scenario(horizon=24, seed=3)
        runner = self._runner(scenario)
        # The 12 record columns and the controller's three histories.
        per_slot = len(RECORD_COLUMNS) + len(runner.controller.series())
        assert per_slot == 15
        last, fixed = 0, set()
        for t, capture_after in enumerate([1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 1]):
            runner.step(t)
            if capture_after:
                floats = _floats(runner.capture(t + 1))
                idle = _floats(runner.capture(t + 1))  # nothing new since
                assert floats - idle == (t + 1 - last) * per_slot
                fixed.add(idle)
                last = t + 1
        assert len(fixed) == 1, "the O(1) part of a record grew"

    def test_no_checkpoint_writer_pays_nothing(self, monkeypatch):
        scenario = small_scenario(horizon=24, seed=3)
        monkeypatch.setattr(
            SlotRunner, "capture", lambda *a: pytest.fail("captured without a writer")
        )
        runner = self._runner(scenario)
        for t in range(scenario.horizon):
            runner.step(t)
        runner.finish()

    def test_every_capture_matches_the_plain_capture(self, tmp_path):
        scenario = small_scenario(horizon=24, seed=3)
        runner = self._runner(scenario)
        writer = CheckpointWriter(tmp_path, sync=False)
        for t in range(scenario.horizon):
            runner.step(t)
            record = runner.capture(t + 1)
            writer.write(t + 1, record)
            folded = latest_valid_checkpoint(tmp_path)
            assert canonical_dumps(folded.state) == full_capture(runner, record)

    def test_restore_rebuilds_from_restored_columns(self, tmp_path):
        scenario = small_scenario(horizon=24, seed=3)
        golden = tmp_path / "golden"
        simulate(
            scenario.model, _coca(scenario), scenario.environment,
            checkpoint=CheckpointWriter(golden, every=1, sync=False),
        )
        runner = self._runner(
            scenario, checkpoint=CheckpointWriter(tmp_path / "new", sync=False)
        )
        # Stale rows the restore must drop: three of other values, captured.
        for values in runner.cols.values():
            values.extend([-1.0, -2.0, -3.0])
        runner.capture(3)
        runner.restore(checkpoint_at(golden, 10, tmp_path / "at"))
        for t in range(10, 14):
            runner.step(t)
            record = runner.capture(t + 1)
            runner.checkpoint.write(t + 1, record)
            folded = latest_valid_checkpoint(tmp_path / "new")
            assert canonical_dumps(folded.state) == full_capture(runner, record)
            written = checkpoint_at(golden, t + 1, tmp_path / "at")
            assert canonical_dumps(folded.state) == canonical_dumps(written.state)

    def test_on_counts_are_written_once_unless_they_differ(self, tmp_path):
        """The runner's realized on-counts ride in a record only when they
        differ from the controller's planned ones; a restore rebuilds each
        copy exactly either way."""
        scenario = small_scenario(horizon=24, seed=3)
        runner = self._runner(scenario)
        for t in range(4):
            runner.step(t)
        shared = runner.capture(4)
        planned = shared["controller"]["state"]["prev_on"]
        assert "prev_on" not in shared and planned is not None
        realized = runner.prev_on.copy()
        realized[0] = 0.0  # as a masked realization leaves it
        runner.prev_on = realized
        distinct = runner.capture(4)
        assert distinct["prev_on"] == encode_array(realized)
        for record, want in ((shared, decode_array(planned)), (distinct, realized)):
            clone = self._runner(scenario)
            state = json.loads(full_capture(runner, record))
            clone.restore(Checkpoint(slot=4, state=state, path=str(tmp_path)))
            assert clone.prev_on.tobytes() == want.tobytes()
            assert clone.controller.state_dict()["prev_on"] == planned

    def test_batch_environment_fingerprint_walks_traces_once(self, monkeypatch):
        scenario = small_scenario(horizon=24, seed=3)
        environment = dataclasses.replace(scenario.environment)  # fresh cache
        calls = []
        real = serialize.trace_fingerprint

        def counting(env):
            calls.append(env)
            return real(env)

        monkeypatch.setattr(serialize, "trace_fingerprint", counting)
        runner = SlotRunner(scenario.model, _coca(scenario), environment)
        runner.start()
        for t in range(6):
            runner.step(t)
            runner.capture(t + 1)
        assert len(calls) == 1
        assert environment_fingerprint(environment) == real(environment)
