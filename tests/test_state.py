"""Crash-safe state: checkpoint format, round-trips, rotation, resume.

Four contracts anchor ``repro.state`` (docs/OPERATIONS.md):

1. **Byte-identity** — save -> load -> save of a checkpoint is
   byte-identical for arbitrary JSON-safe run state (hypothesis-pinned),
   and a capture whose record columns are encoded incrementally dumps to
   the same bytes as the plain capture (the oracle in
   ``tests/state_oracle.py``).
2. **Corruption detection** — truncation at any point and a single bit
   flip anywhere are always rejected, never silently loaded.
3. **Recovery** — a corrupt newest rotation entry falls back to the
   previous valid one, with a ``state.checkpoint_rejected`` event.
4. **Resume replay** — kill-at-slot-k plus resume reproduces the
   remaining slots bit-identically, including under chaos schedules
   with a lossy distributed bus.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coca import COCA
from repro.faults import DegradationPolicy, FaultInjector, FaultSchedule
from repro.scenarios import small_scenario
from repro.sim import simulate
from repro.sim.engine import RECORD_COLUMNS, SlotRunner
from repro.solvers import DistributedGSD, GSDSolver
from repro.state import (
    CheckpointError,
    CheckpointWriter,
    atomic_write_bytes,
    atomic_write_text,
    canonical_dumps,
    checkpoint_path,
    commit_file,
    decode_action,
    decode_array,
    decode_rng,
    dumps_checkpoint,
    encode_action,
    encode_array,
    encode_rng,
    environment_fingerprint,
    latest_valid_checkpoint,
    list_checkpoints,
    load_checkpoint,
    load_record,
    loads_checkpoint,
    record_mismatches,
    save_record,
    write_checkpoint,
)
from repro.state import serialize
from repro.state.serialize import Encoded, EncodedColumns
from repro.telemetry import InMemoryTracer, Telemetry
from tests.state_oracle import plain_capture


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

    @pytest.mark.parametrize("dtype", ["float64", "int64", "float32"])
    def test_array_round_trip_preserves_dtype(self, dtype):
        arr = np.array([1, 2, 3], dtype=dtype)
        back = decode_array(encode_array(arr))
        assert back.dtype == arr.dtype
        assert np.array_equal(back, arr)

    def test_array_none_passes_through(self):
        assert encode_array(None) is None
        assert decode_array(None) is None

    def test_action_round_trip(self):
        from repro.cluster.fleet import FleetAction

        action = FleetAction(
            levels=np.array([2, -1, 0], dtype=np.int64),
            per_server_load=np.array([0.5, 0.0, 0.25]),
        )
        back = decode_action(encode_action(action))
        assert np.array_equal(back.levels, action.levels)
        assert np.array_equal(back.per_server_load, action.per_server_load)
        assert decode_action(None) is None

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
        # The final byte is a cosmetic trailing newline the loader tolerates
        # losing; every cut that removes actual data must be rejected.
        blob = dumps_checkpoint(slot, state)
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 2))
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
        doc = json.loads(header)
        doc["version"] = 99
        forged = canonical_dumps(doc) + b"\n" + payload
        with pytest.raises(CheckpointError, match="version"):
            loads_checkpoint(forged)

    def test_non_checkpoint_file_rejected(self):
        with pytest.raises(CheckpointError):
            loads_checkpoint(b'{"hello": "world"}\n{}')

    def test_file_round_trip(self, tmp_path):
        path = write_checkpoint(tmp_path, 7, {"queue": 1.25})
        ckpt = load_checkpoint(path)
        assert ckpt.slot == 7
        assert ckpt.state == {"queue": 1.25}
        assert ckpt.path == path


# ----------------------------------------------------- rotation + recovery
class TestRotationAndRecovery:
    def test_rotation_keeps_newest_k(self, tmp_path):
        writer = CheckpointWriter(tmp_path, every=1, keep=3, sync=False)
        for slot in range(1, 11):
            writer.write(slot, {"slot": slot})
        names = [os.path.basename(p) for p in list_checkpoints(tmp_path)]
        assert names == [
            "ckpt-00000008.json",
            "ckpt-00000009.json",
            "ckpt-00000010.json",
        ]

    def test_cadence(self, tmp_path):
        writer = CheckpointWriter(tmp_path, every=4, keep=10, sync=False)
        for slot in range(1, 13):
            writer.maybe_write(slot, lambda: {"slot": slot})
        slot_nums = [
            int(os.path.basename(p)[5:13]) for p in list_checkpoints(tmp_path)
        ]
        assert slot_nums == [4, 8, 12]

    def test_build_state_not_called_off_cadence(self, tmp_path):
        writer = CheckpointWriter(tmp_path, every=100, keep=2, sync=False)
        writer.maybe_write(3, lambda: pytest.fail("capture ran off-cadence"))

    def test_corrupt_newest_falls_back_with_telemetry(self, tmp_path):
        writer = CheckpointWriter(tmp_path, every=1, keep=3, sync=False)
        for slot in range(1, 4):
            writer.write(slot, {"slot": slot})
        newest = checkpoint_path(tmp_path, 3)
        blob = bytearray(open(newest, "rb").read())
        blob[len(blob) // 2] ^= 0x01
        open(newest, "wb").write(bytes(blob))

        tracer = InMemoryTracer()
        ckpt = latest_valid_checkpoint(tmp_path, telemetry=Telemetry(tracer=tracer))
        assert ckpt is not None and ckpt.slot == 2
        rejected = [e for e in tracer.events if e["kind"] == "state.checkpoint_rejected"]
        assert len(rejected) == 1
        assert rejected[0]["path"] == newest

    def test_no_valid_checkpoint_returns_none(self, tmp_path):
        assert latest_valid_checkpoint(tmp_path) is None
        (tmp_path / "ckpt-00000001.json").write_bytes(b"garbage")
        assert latest_valid_checkpoint(tmp_path) is None

    def test_writer_validates_parameters(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointWriter(tmp_path, every=0)
        with pytest.raises(ValueError):
            CheckpointWriter(tmp_path, keep=0)


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
            checkpoint=CheckpointWriter(tmp_path, every=1, keep=100, sync=False),
        )
        assert record_mismatches(golden, checkpointed) == []

        kill_slot = 13 + seed
        ckpt = load_checkpoint(checkpoint_path(tmp_path, kill_slot))
        resumed = simulate(
            scenario.model, _coca(scenario), scenario.environment, resume_from=ckpt
        )
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
        run(checkpoint=CheckpointWriter(tmp_path, every=1, keep=100, sync=False))
        ckpt = load_checkpoint(checkpoint_path(tmp_path, 17))
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
        run(checkpoint=CheckpointWriter(tmp_path, every=1, keep=100, sync=False))
        ckpt = load_checkpoint(checkpoint_path(tmp_path, 20))
        resumed = run(resume_from=ckpt)
        assert record_mismatches(golden, resumed) == []

    def test_resume_refuses_wrong_environment(self, tmp_path):
        scenario = small_scenario(horizon=48, seed=3)
        simulate(
            scenario.model,
            _coca(scenario),
            scenario.environment,
            checkpoint=CheckpointWriter(tmp_path, every=1, keep=100, sync=False),
        )
        ckpt = load_checkpoint(checkpoint_path(tmp_path, 10))
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
            checkpoint=CheckpointWriter(tmp_path, every=1, keep=100, sync=False),
        )
        ckpt = load_checkpoint(checkpoint_path(tmp_path, 10))
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
            checkpoint=CheckpointWriter(tmp_path, every=1, keep=100, sync=False),
        )
        ckpt = load_checkpoint(checkpoint_path(tmp_path, 10))
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
        state = self._mid_run_state(_coca(scenario), scenario)
        first = canonical_dumps(state)
        fresh = _coca(scenario)
        fresh.load_state_dict(json.loads(first))
        assert canonical_dumps(fresh.state_dict()) == first

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

    def test_geo_state_save_load_save_byte_identical(self):
        from repro.geo import GeoCOCA, GeoEnvironment, Site
        from repro.traces import fiu_workload, price_trace, solar_trace

        horizon = 48
        sites = tuple(
            Site(
                name=f"dc{i}",
                model=small_scenario(horizon=horizon, seed=3).model,
                price=price_trace(horizon, seed=50 + i),
                onsite=solar_trace(horizon, seed=60 + i),
            )
            for i in range(2)
        )
        env = GeoEnvironment(
            workload=fiu_workload(horizon, peak=400.0, seed=3),
            sites=sites,
            offsite=solar_trace(horizon, seed=99),
            recs=5.0,
        )
        geo = GeoCOCA(env, v_schedule=100.0)
        for t in range(7):
            result = geo.decide(t)
            geo.observe(t, result)
        first = canonical_dumps(geo.state_dict())
        clone = GeoCOCA(env, v_schedule=100.0)
        clone.load_state_dict(json.loads(first))
        assert canonical_dumps(clone.state_dict()) == first


# ------------------------------------------------ incremental encoding
#: Floats whose text is easy to get wrong: signed zero, subnormals, the
#: top of the range, integral values (``36720.0``), tiny and huge scales.
edge_floats = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
         1.7976931348623157e308, 36720.0, 1e16, 1e-7, 0.1]
    ),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(2**53), max_value=2**53).map(float),
)
float_columns = st.dictionaries(
    st.sampled_from(RECORD_COLUMNS), st.lists(edge_floats, max_size=12), max_size=4
)


def _legacy_dumps(value) -> bytes:
    """The single ``json.dumps`` call canonical_dumps used to be."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False,
        default=serialize._plain,
    ).encode("utf-8")


def _encode_some(value, data):
    """``value`` with random dict values swapped for their Encoded text."""
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if data.draw(st.booleans()):
                out[k] = Encoded(canonical_dumps(v).decode("utf-8"))
            else:
                out[k] = _encode_some(v, data)
        return out
    return value


class TestEncodedFragments:
    @given(json_values)
    @settings(max_examples=150, deadline=None)
    def test_dumps_matches_the_single_call_encoder(self, value):
        assert canonical_dumps(value) == _legacy_dumps(value)

    @given(states, st.data())
    @settings(max_examples=100, deadline=None)
    def test_fragments_splice_to_the_same_bytes(self, state, data):
        assert canonical_dumps(_encode_some(state, data)) == canonical_dumps(state)

    @given(float_columns, st.lists(st.integers(0, 5), max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_incremental_columns_match_plain_lists(self, cols, cuts):
        # Grow the columns over several encodes, as captures do.
        encoder = EncodedColumns()
        for stop in [*sorted(cuts), None]:
            prefix = {k: v[:stop] for k, v in cols.items()}
            composed = {"slot": 1, "cols": encoder.encode(prefix), "run_id": None}
            plain = {"slot": 1, "cols": prefix, "run_id": None}
            assert canonical_dumps(composed) == _legacy_dumps(plain)

    def test_empty_columns(self):
        cols = {name: [] for name in RECORD_COLUMNS}
        assert canonical_dumps({"cols": EncodedColumns().encode(cols)}) == (
            _legacy_dumps({"cols": cols})
        )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_raise(self, bad):
        with pytest.raises(ValueError):
            _legacy_dumps({"cost": [1.0, bad]})
        with pytest.raises(ValueError):
            canonical_dumps({"cost": [1.0, bad]})
        encoder = EncodedColumns()
        encoder.encode({"cost": [1.0]})
        with pytest.raises(ValueError):
            encoder.encode({"cost": [1.0, bad]})

    def test_fragment_outside_a_dict_is_refused(self):
        with pytest.raises(TypeError):
            canonical_dumps({"a": [Encoded("1")]})
        with pytest.raises(TypeError):
            json.dumps({"a": Encoded("1")})


def _count_float_text(monkeypatch) -> list[int]:
    """Patch the float-to-text converter to record its batch sizes."""
    sizes: list[int] = []
    real = serialize.float_list_text

    def counting(values):
        sizes.append(len(values))
        return real(values)

    monkeypatch.setattr(serialize, "float_list_text", counting)
    return sizes


class TestIncrementalCapture:
    def _runner(self, scenario, **kwargs):
        runner = SlotRunner(
            scenario.model, _coca(scenario), scenario.environment, **kwargs
        )
        runner.start()
        return runner

    def test_capture_converts_only_new_rows(self, monkeypatch):
        scenario = small_scenario(horizon=24, seed=3)
        sizes = _count_float_text(monkeypatch)
        runner = self._runner(scenario)
        last = 0
        for t, capture_after in enumerate([1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 1]):
            runner.step(t)
            if capture_after:
                del sizes[:]
                runner.capture(t + 1)
                added = t + 1 - last
                assert sum(sizes) == added * len(RECORD_COLUMNS)
                last = t + 1
        del sizes[:]
        runner.capture(last)  # nothing new since the last capture
        assert sum(sizes) == 0

    def test_no_checkpoint_writer_pays_nothing(self, monkeypatch):
        scenario = small_scenario(horizon=24, seed=3)
        sizes = _count_float_text(monkeypatch)
        runner = self._runner(scenario)
        for t in range(scenario.horizon):
            runner.step(t)
        runner.finish()
        assert sizes == []

    def test_every_capture_matches_the_plain_capture(self):
        scenario = small_scenario(horizon=24, seed=3)
        runner = self._runner(scenario)
        for t in range(scenario.horizon):
            runner.step(t)
            composed = canonical_dumps(runner.capture(t + 1))
            assert composed == _legacy_dumps(plain_capture(runner, t + 1))

    def test_restore_rebuilds_from_restored_columns(self, tmp_path):
        scenario = small_scenario(horizon=24, seed=3)
        simulate(
            scenario.model, _coca(scenario), scenario.environment,
            checkpoint=CheckpointWriter(tmp_path, every=1, keep=100, sync=False),
        )
        runner = self._runner(scenario)
        # Stale fragments the restore must drop: three rows of other values.
        for values in runner.cols.values():
            values.extend([-1.0, -2.0, -3.0])
        runner.capture(3)
        runner.restore(load_checkpoint(checkpoint_path(tmp_path, 10)))
        for t in range(10, 14):
            runner.step(t)
            assert canonical_dumps(runner.capture(t + 1)) == _legacy_dumps(
                plain_capture(runner, t + 1)
            )
            written = load_checkpoint(checkpoint_path(tmp_path, t + 1))
            assert canonical_dumps(runner.capture(t + 1)) == canonical_dumps(
                written.state
            )

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
