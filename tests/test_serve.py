"""Tests for the serving subsystem (``repro.serve``).

The load-bearing contract is stated in ``docs/SERVING.md``: a replay serve
is **bit-identical** to the batch run, whether it runs uninterrupted or is
stopped at an arbitrary slot boundary and resumed -- both through the
in-process service API and through the ``repro serve`` CLI.  The rest of
this file covers the pieces individually: signal sources, the live
environment, config validation, the status endpoint.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import EXIT_BAD_INPUT, MANIFEST_NAME, main
from repro.core.coca import COCA
from repro.runspec import RunSpec
from repro.scenarios import small_scenario
from repro.serve import (
    ControlService,
    FileTailSignalSource,
    LiveEnvironment,
    ReplaySignalSource,
    ServeConfig,
    SignalFrame,
    StalenessResolver,
    StatusBoard,
    StatusServer,
    SyntheticSignalSource,
    frames_from_environment,
    write_feed,
)
from repro.sim import simulate
from repro.sim.engine import SlotRunner
from repro.state import (
    LOG_NAME,
    CheckpointWriter,
    dumps_checkpoint,
    environment_fingerprint,
    latest_valid_checkpoint,
    load_record,
    record_mismatches,
)
from repro.monitor import replay
from repro.telemetry import Telemetry, load_trace
from repro.telemetry.metrics import Histogram
from tests.state_oracle import prefix_fingerprint, record_spans, without_run_id

V = 150.0


@pytest.fixture(scope="module")
def scenario():
    """Two-day small scenario -- fast enough to simulate many times."""
    return small_scenario(horizon=48, seed=5)


def _controller(scenario):
    return COCA(
        scenario.model,
        scenario.environment.portfolio,
        v_schedule=V,
        alpha=scenario.alpha,
    )


def _batch_record(scenario):
    return simulate(scenario.model, _controller(scenario), scenario.environment)


def _replay_service(scenario, *, checkpoint_dir=None, max_slots=None):
    environment = LiveEnvironment(scenario.horizon, base=scenario.environment)
    writer = (
        CheckpointWriter(str(checkpoint_dir), every=1) if checkpoint_dir else None
    )
    runner = SlotRunner(
        scenario.model, _controller(scenario), environment, checkpoint=writer
    )
    resolver = StalenessResolver(ReplaySignalSource(scenario.environment))
    runner.start()
    return ControlService(runner, resolver, max_slots=max_slots)


# ---------------------------------------------------------------- frames
class TestSignalFrame:
    def test_round_trips_through_dict(self):
        frame = SignalFrame(
            slot=3, arrival=1.5, onsite=0.2, price=40.0,
            arrival_actual=1.6, offsite=0.1,
        )
        assert SignalFrame.from_dict(frame.to_dict()) == frame

    def test_to_dict_drops_missing_fields(self):
        frame = SignalFrame(slot=0, arrival=1.0)
        d = frame.to_dict()
        assert "price" not in d and "onsite" not in d
        assert SignalFrame.from_dict(d).missing_fields == (
            "onsite", "price", "arrival_actual", "offsite",
        )

    def test_from_dict_ignores_unknown_keys(self):
        frame = SignalFrame.from_dict({"slot": 1, "price": 2.0, "exchange": "PJM"})
        assert frame.slot == 1 and frame.price == 2.0

    def test_complete_frame_has_no_missing_fields(self, scenario):
        frame = next(frames_from_environment(scenario.environment))
        assert frame.missing_fields == ()


# ---------------------------------------------------------------- sources
class TestReplaySource:
    def test_delivers_every_slot_in_order(self, scenario):
        source = ReplaySignalSource(scenario.environment)
        slots = []
        while (frame := source.poll()) is not None:
            assert frame.missing_fields == ()
            slots.append(frame.slot)
        assert slots == list(range(scenario.horizon))
        assert source.horizon == scenario.horizon

    def test_seek_repositions(self, scenario):
        source = ReplaySignalSource(scenario.environment)
        source.seek(10)
        assert source.poll().slot == 10
        with pytest.raises(ValueError):
            source.seek(scenario.horizon + 1)


class TestFileTailSource:
    def test_reads_back_a_written_feed(self, scenario, tmp_path):
        path = tmp_path / "feed.jsonl"
        n = write_feed(scenario.environment, path)
        assert n == scenario.horizon
        source = FileTailSignalSource(path)
        frames = []
        while (frame := source.poll()) is not None:
            frames.append(frame)
        assert [f.slot for f in frames] == list(range(scenario.horizon))
        assert frames == list(frames_from_environment(scenario.environment))
        source.close()

    def test_torn_tail_is_buffered_until_complete(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text('{"slot": 0, "price": 1.0}\n{"slot": 1, "pri')
        source = FileTailSignalSource(path)
        assert source.poll().slot == 0
        assert source.poll() is None  # torn line: not parsed, not lost
        with path.open("a") as fh:
            fh.write('ce": 2.0}\n')
        frame = source.poll()
        assert frame.slot == 1 and frame.price == 2.0
        source.close()

    def test_malformed_complete_line_is_skipped_and_counted(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text('not json\n{"slot": 0}\n{"noslot": 1}\n')
        source = FileTailSignalSource(path)
        assert source.poll().slot == 0
        assert source.poll() is None
        assert source.malformed == 2 and source.delivered == 1
        source.close()

    def test_seek_skips_earlier_slots(self, scenario, tmp_path):
        path = tmp_path / "feed.jsonl"
        write_feed(scenario.environment, path)
        source = FileTailSignalSource(path)
        for _ in range(5):
            source.poll()
        source.seek(2)
        assert source.poll().slot == 2
        source.close()


class TestSyntheticSource:
    def test_same_seed_same_delivery(self, scenario):
        a = SyntheticSignalSource(scenario.environment, seed=9)
        b = SyntheticSignalSource(scenario.environment, seed=9)
        seq_a = [a.poll() for _ in range(2 * scenario.horizon)]
        seq_b = [b.poll() for _ in range(2 * scenario.horizon)]
        assert seq_a == seq_b

    def test_perfect_probabilities_reduce_to_replay(self, scenario):
        source = SyntheticSignalSource(
            scenario.environment, seed=9,
            p_drop=0.0, p_late=0.0, p_field_loss=0.0, p_swap=0.0,
        )
        frames = [source.poll() for _ in range(scenario.horizon)]
        assert frames == list(frames_from_environment(scenario.environment))
        assert source.dropped == 0

    def test_drops_never_deliver(self, scenario):
        source = SyntheticSignalSource(
            scenario.environment, seed=9, p_drop=1.0,
            p_late=0.0, p_field_loss=0.0, p_swap=0.0,
        )
        assert source.poll() is None
        assert source.dropped == scenario.horizon

    def test_rejects_bad_probability(self, scenario):
        with pytest.raises(ValueError, match="p_drop"):
            SyntheticSignalSource(scenario.environment, seed=1, p_drop=1.5)


# ---------------------------------------------------------------- live env
_finite = st.floats(allow_nan=False, allow_infinity=False)
#: Resolved frame fields: every core field present, the optional ``pue``
#: sometimes ``None``.
_frames_fields = st.fixed_dictionaries(
    {
        "arrival": _finite,
        "onsite": _finite,
        "price": _finite,
        "arrival_actual": _finite,
        "offsite": _finite,
        "network_delay": _finite,
        "pue": st.none() | st.floats(1.0, 3.0),
    }
)


class TestLiveEnvironment:
    def test_append_must_be_contiguous_and_resolved(self, scenario):
        env = LiveEnvironment(4)
        frames = list(frames_from_environment(scenario.environment))
        with pytest.raises(ValueError, match="out of order"):
            env.append(frames[1])
        env.append(frames[0])
        with pytest.raises(ValueError, match="unresolved"):
            env.append(SignalFrame(slot=1, price=1.0))

    def test_reads_past_resolved_prefix_raise(self, scenario):
        env = LiveEnvironment(scenario.horizon, base=scenario.environment)
        with pytest.raises(IndexError):
            env.observation(0)
        env.append(next(frames_from_environment(scenario.environment)))
        obs = env.observation(0)
        batch_obs = scenario.environment.observation(0)
        assert obs == batch_obs  # bit-identical floats, not approximately

    def test_base_fingerprint_matches_batch_environment(self, scenario):
        env = LiveEnvironment(scenario.horizon, base=scenario.environment)
        assert environment_fingerprint(env) == environment_fingerprint(
            scenario.environment
        )

    def test_live_fingerprint_is_prefix_function(self, scenario):
        frames = list(frames_from_environment(scenario.environment))
        a = LiveEnvironment(scenario.horizon)
        b = LiveEnvironment(scenario.horizon)
        for f in frames[:5]:
            a.append(f)
            b.append(f)
        assert a.fingerprint() == b.fingerprint()
        before = a.fingerprint()
        a.append(frames[5])
        assert a.fingerprint() != before

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_running_fingerprint_matches_prefix_fold(self, data):
        frames = data.draw(st.lists(_frames_fields, min_size=1, max_size=8))
        env = LiveEnvironment(len(frames) + data.draw(st.integers(0, 3)))
        assert env.fingerprint() == prefix_fingerprint(env.horizon, [])
        for slot, fields in enumerate(frames):
            env.append(SignalFrame(slot=slot, **fields))
            assert env.fingerprint() == prefix_fingerprint(env.horizon, env.frames)

    def test_fingerprint_costs_one_to_dict_per_frame(self, scenario, monkeypatch):
        frames = list(frames_from_environment(scenario.environment))
        calls = []
        real = SignalFrame.to_dict

        def counting(frame):
            calls.append(frame.slot)
            return real(frame)

        monkeypatch.setattr(SignalFrame, "to_dict", counting)
        env = LiveEnvironment(scenario.horizon)
        for frame in frames:
            env.append(frame)
            assert calls == [frame.slot]
            del calls[:]
            env.fingerprint()
            env.fingerprint()
            assert calls == []
        monkeypatch.undo()
        assert env.fingerprint() == prefix_fingerprint(scenario.horizon, frames)

    def test_series_refills_the_resolved_prefix(self, scenario):
        frames = list(frames_from_environment(scenario.environment))[:6]
        env = LiveEnvironment(scenario.horizon)
        for f in frames:
            env.append(f)
        rows = json.loads(json.dumps(env.series()))  # as the log carries them
        refilled = LiveEnvironment(scenario.horizon)
        refilled.load_series(rows)
        assert refilled.frames == frames
        assert refilled.fingerprint() == env.fingerprint()
        assert refilled.series() == env.series()


# ---------------------------------------------------------------- config
class TestServeConfig:
    def test_defaults_are_clean(self):
        assert ServeConfig().problems() == []

    def test_collects_every_problem_at_once(self, tmp_path):
        config = ServeConfig(
            source="file",  # no feed given
            slot_period_s=-1.0,
            status_port=70000,
            dashboard_every=5,  # no dashboard_out
            alert_rearm=0,
            max_slots=0,
            synthetic={"p_drop": 2.0},
        )
        # The cadence and retry settings belong to the run spec, which
        # `repro serve` validates together with the config.
        spec = RunSpec(checkpoint_every=0, retries=-1)
        problems = config.problems() + spec.problems()
        assert len(problems) >= 9
        joined = "\n".join(problems)
        for needle in ("--feed", "--slot-period-s", "--checkpoint-every",
                       "--status-port", "--dashboard-every", "--alert-rearm",
                       "--max-slots", "--retries", "p_drop"):
            assert needle in joined

    def test_feed_only_for_file_source(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        feed.write_text("")
        config = ServeConfig(source="replay", feed=str(feed))
        assert any("--feed only applies" in p for p in config.problems())

    def test_unwritable_checkpoint_parent(self):
        config = ServeConfig(checkpoint_dir="/nonexistent/deep/dir")
        assert any("checkpoint dir" in p for p in config.problems())

    def test_describe_mentions_source(self):
        assert "source=replay" in ServeConfig().describe()


# ---------------------------------------------------------------- status
class TestStatusEndpoint:
    def test_board_merges_and_snapshots(self):
        board = StatusBoard()
        board.update(slot=4, state="running")
        board.update(slot=5)
        snap = board.snapshot()
        assert snap["slot"] == 5 and snap["state"] == "running"
        snap["slot"] = 99  # copies are detached
        assert board.snapshot()["slot"] == 5

    def test_http_status_and_healthz(self):
        board = StatusBoard()
        board.update(state="running", slot=7, horizon=48)
        server = StatusServer(board, port=0)
        try:
            with urllib.request.urlopen(f"{server.url}/status") as resp:
                body = json.load(resp)
            assert body["slot"] == 7 and body["state"] == "running"
            with urllib.request.urlopen(f"{server.url}/healthz") as resp:
                assert resp.status == 200
            board.update(state="stopped")
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{server.url}/healthz")
            assert err.value.code == 503
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{server.url}/nope")
            assert err.value.code == 404
        finally:
            server.close()

    def test_serve_import_leaves_the_http_stack_unloaded(self):
        """Only a started :class:`StatusServer` loads ``http.server`` (and
        with it email, ssl and socket); ``repro serve`` without
        ``--status-port`` never pays for it."""
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        probe = (
            "import sys, repro.serve, repro.cli\n"
            "print(sorted(m for m in ('http.server', 'socketserver', 'ssl') "
            "if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True,
            text=True, check=True,
        ).stdout
        assert out.strip() == "[]"

    def test_latency_percentiles_only_when_read(self, scenario, monkeypatch):
        """Slots run with nobody reading ``/status`` sort nothing; a read
        builds the latency block from the reservoir then."""
        calls = []
        percentiles = Histogram.percentiles

        def counting(hist, ps):
            calls.append(hist.name)
            return percentiles(hist, ps)

        monkeypatch.setattr(Histogram, "percentiles", counting)
        environment = LiveEnvironment(scenario.horizon, base=scenario.environment)
        runner = SlotRunner(
            scenario.model, _controller(scenario), environment, telemetry=Telemetry()
        )
        runner.start()
        service = ControlService(
            runner,
            StalenessResolver(ReplaySignalSource(scenario.environment)),
            max_slots=12,
        )
        assert service.run().status == "stopped"
        assert calls == []
        latency = service.board.snapshot()["solver_latency"]
        assert calls == ["sim.solve_time_s"]
        assert latency["count"] == 12
        assert 0.0 < latency["p50_ms"] <= latency["max_ms"]


# ------------------------------------------------------------ bit-identity
class TestReplayBitIdentity:
    def test_uninterrupted_serve_matches_batch(self, scenario):
        batch = _batch_record(scenario)
        result = _replay_service(scenario).run()
        assert result.status == "completed"
        assert record_mismatches(batch, result.record) == []

    def test_stop_and_resume_matches_batch(self, scenario, tmp_path):
        batch = _batch_record(scenario)
        stopped = _replay_service(
            scenario, checkpoint_dir=tmp_path, max_slots=19
        ).run()
        assert stopped.status == "stopped" and stopped.stopped_at == 19
        assert stopped.checkpoint_path is not None

        ckpt = latest_valid_checkpoint(str(tmp_path))
        assert ckpt is not None and ckpt.slot == 19
        environment = LiveEnvironment(scenario.horizon, base=scenario.environment)
        for frame in frames_from_environment(scenario.environment):
            if frame.slot < 19:
                environment.append(frame)
        runner = SlotRunner(scenario.model, _controller(scenario), environment)
        source = ReplaySignalSource(scenario.environment)
        resolver = StalenessResolver(source)
        runner.start()
        runner.restore(ckpt)
        source.seek(19)
        resolver.restore(environment.frames[-1])
        service = ControlService(runner, resolver)
        result = service.run()
        assert result.status == "completed"
        assert record_mismatches(batch, result.record) == []
        # The board's running totals cover the restored slots too.
        carbon = service.board.snapshot()["carbon"]
        assert carbon["brown_mwh"] == pytest.approx(sum(batch.brown_energy))
        assert service.board.snapshot()["cost_dollars"] == pytest.approx(
            sum(batch.cost)
        )

    def test_replay_checkpoint_is_resumable_by_batch_engine(
        self, scenario, tmp_path
    ):
        """Serve checkpoints are interchangeable with `repro run` ones."""
        batch = _batch_record(scenario)
        _replay_service(scenario, checkpoint_dir=tmp_path, max_slots=11).run()
        ckpt = latest_valid_checkpoint(str(tmp_path))
        record = simulate(
            scenario.model,
            _controller(scenario),
            scenario.environment,  # the plain batch environment
            resume_from=ckpt,
        )
        assert record_mismatches(batch, record) == []


# ------------------------------------------------------------------- CLI
class TestServeCli:
    def test_dry_run_clean_config(self, capsys):
        assert main(["serve", "--dry-run"]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_dry_run_reports_problems(self, capsys):
        assert main(["serve", "--dry-run", "--source", "file"]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "--feed" in err and "problem(s)" in err

    def test_bad_config_refused_without_dry_run(self, capsys):
        assert main(["serve", "--source", "file"]) == EXIT_BAD_INPUT

    def test_resume_requires_checkpoint_dir(self, capsys):
        assert main(["serve", "--resume"]) == EXIT_BAD_INPUT
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_resume_without_manifest_is_bad_input(self, tmp_path, capsys):
        code = main(
            ["serve", "--resume", "--checkpoint-dir", str(tmp_path)]
        )
        assert code == EXIT_BAD_INPUT
        assert MANIFEST_NAME in capsys.readouterr().err

    def test_replay_serve_cli_matches_batch_run(self, tmp_path, capsys):
        batch_out = tmp_path / "batch.npz"
        serve_out = tmp_path / "serve.npz"
        args = ["--horizon", "36", "--seed", "4"]
        assert main(["run", *args, "--record-out", str(batch_out)]) == 0
        assert (
            main(
                [
                    "serve", "--source", "replay", *args,
                    "--checkpoint-dir", str(tmp_path / "ckpt"),
                    "--record-out", str(serve_out),
                ]
            )
            == 0
        )
        from repro.state import load_record

        assert record_mismatches(
            load_record(str(batch_out)), load_record(str(serve_out))
        ) == []

    def test_cli_stop_resume_round_trip(self, tmp_path, capsys):
        args = ["--horizon", "36", "--seed", "4"]
        ckpt_dir = str(tmp_path / "ckpt")
        batch_out = tmp_path / "batch.npz"
        serve_out = tmp_path / "serve.npz"
        assert main(["run", *args, "--record-out", str(batch_out)]) == 0
        # max-slots stops with a forced checkpoint but exits 0 (no signal).
        assert (
            main(
                ["serve", "--source", "replay", *args,
                 "--checkpoint-dir", ckpt_dir, "--max-slots", "13"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "stopped at slot 13/36" in out
        assert (
            main(
                ["serve", "--resume", "--checkpoint-dir", ckpt_dir,
                 "--record-out", str(serve_out)]
            )
            == 0
        )
        from repro.state import load_record

        assert record_mismatches(
            load_record(str(batch_out)), load_record(str(serve_out))
        ) == []


# ------------------------------------------------------ legacy feed lines
class TestLegacyForecastPayloads:
    """Feed lines written by older versions may carry a
    ``forecast`` payload (the removed advice layer's forecast window).
    The key is dropped on read: such a line resolves to the same frame as
    the same line without it."""

    _PAYLOAD = {"start": 0, "arrival": [1.0, 2.0], "price": [40.0, 41.0]}

    def _lines(self, scenario, *, legacy):
        rows = [f.to_dict() for f in frames_from_environment(scenario.environment)]
        if legacy:
            rows = [{**row, "forecast": self._PAYLOAD} for row in rows]
        return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)

    def _resolved(self, path, horizon):
        resolver = StalenessResolver(FileTailSignalSource(path))
        try:
            return [resolver.resolve(t) for t in range(horizon)]
        finally:
            resolver.source.close()

    def test_feed_line_resolves_as_without_payload(self, scenario, tmp_path):
        plain, legacy = tmp_path / "plain.jsonl", tmp_path / "legacy.jsonl"
        plain.write_text(self._lines(scenario, legacy=False))
        legacy.write_text(self._lines(scenario, legacy=True))
        assert self._resolved(legacy, scenario.horizon) == self._resolved(
            plain, scenario.horizon
        )


# ------------------------------------------------- checkpoints across resume
def _payloads(directory) -> dict[int, bytes]:
    """Slot -> the last record payload at that slot in a directory's log,
    with ``run_id`` masked."""
    path = os.path.join(directory, LOG_NAME)
    with open(path, "rb") as fh:
        data = fh.read()
    return {
        slot: without_run_id(data[data.index(b"\n", start) + 1 : end - 1])
        for slot, start, end in record_spans(path)
    }


class TestCheckpointBytesAcrossResume:
    """Records appended after a resume are byte-identical to the ones an
    uninterrupted run writes at the same slot (``run_id`` aside): each
    carries the rows added since the previous record, also across a
    restore."""

    ARGS = ["--horizon", "30", "--seed", "4", "--checkpoint-every", "1"]

    def _assert_resumed_bytes_match(self, golden_dir, resumed_dir, stop):
        golden = _payloads(golden_dir)
        resumed = _payloads(resumed_dir)
        after = sorted(slot for slot in resumed if slot > stop)
        assert after == list(range(stop + 1, 31))
        for slot in after:
            assert resumed[slot] == golden[slot], f"slot {slot}"

    def test_batch_run_and_resume(self, tmp_path, capsys):
        golden, resumed = tmp_path / "golden", tmp_path / "resumed"
        assert main(["run", *self.ARGS, "--checkpoint-dir", str(golden)]) == 0
        assert main(["run", *self.ARGS, "--checkpoint-dir", str(resumed)]) == 0
        stop = 11
        log = resumed / LOG_NAME
        end = [e for slot, _, e in record_spans(log) if slot == stop][-1]
        os.truncate(log, end)  # a crash right after slot `stop`
        assert main(["resume", str(resumed)]) == 0
        self._assert_resumed_bytes_match(golden, resumed, stop)

    SYNTHETIC = ["serve", "--source", "synthetic", "--source-seed", "7", *ARGS]

    def test_replay_serve_writes_the_batch_run_bytes(self, tmp_path, capsys):
        """A replay's frames are its scenario traces, so its records carry
        no frame group and stay interchangeable with `repro run`'s."""
        run, serve = tmp_path / "run", tmp_path / "serve"
        assert main(["run", *self.ARGS, "--checkpoint-dir", str(run)]) == 0
        assert main(["serve", "--source", "replay", *self.ARGS,
                     "--checkpoint-dir", str(serve)]) == 0
        assert sorted(os.listdir(serve)) == [LOG_NAME, MANIFEST_NAME]
        assert _payloads(serve) == _payloads(run)

    def test_synthetic_log_alone_resumes_after_a_host_crash(self, tmp_path, capsys):
        """Each fsynced record carries the frames that produced its slots,
        so a directory holding only the manifest and a log cut anywhere --
        at a record boundary or mid-record, as a host crash leaves it --
        resumes to the uninterrupted run's record and bytes."""
        golden = tmp_path / "golden"
        golden_out = tmp_path / "golden.npz"
        assert main([*self.SYNTHETIC, "--checkpoint-dir", str(golden),
                     "--record-out", str(golden_out)]) == 0
        spans = {slot: (start, end) for slot, start, end in record_spans(golden / LOG_NAME)}
        # Record boundaries after slots 1, 12 and 29; inside slot 7's header
        # and slot 21's payload (the fold keeps the record before each).
        cuts = {
            1: spans[1][1], 12: spans[12][1], 29: spans[29][1],
            6: spans[7][0] + 20, 20: spans[21][1] - 40,
        }
        for stop, cut in cuts.items():
            crashed = tmp_path / f"crashed-{stop}"
            crashed.mkdir()
            for name in (LOG_NAME, MANIFEST_NAME):  # nothing else survives
                (crashed / name).write_bytes((golden / name).read_bytes())
            os.truncate(crashed / LOG_NAME, cut)
            out = tmp_path / f"resumed-{stop}.npz"
            assert main(["serve", "--resume", "--checkpoint-dir", str(crashed),
                         "--record-out", str(out)]) == 0
            assert f"(slot {stop}/30)" in capsys.readouterr().out
            assert record_mismatches(load_record(str(golden_out)), load_record(str(out))) == []
            self._assert_resumed_bytes_match(golden, crashed, stop)

    def test_log_with_both_on_count_copies_resumes(self, tmp_path, capsys):
        """Records written before the on-counts were stored once carry the
        runner's copy beside the controller's.  Such a log resumes to the
        uninterrupted run's record, and the records appended after it are
        the ones an uninterrupted run writes."""
        golden, legacy = tmp_path / "golden", tmp_path / "legacy"
        golden_out, out = tmp_path / "golden.npz", tmp_path / "legacy.npz"
        assert main([*self.SYNTHETIC, "--checkpoint-dir", str(golden),
                     "--record-out", str(golden_out)]) == 0
        stop = 13
        blob = (golden / LOG_NAME).read_bytes()
        old = b""
        for slot, start, end in record_spans(golden / LOG_NAME):
            if slot <= stop:
                state = json.loads(blob[blob.index(b"\n", start) + 1 : end - 1])
                assert "prev_on" not in state
                state["prev_on"] = state["controller"]["state"]["prev_on"]
                old += dumps_checkpoint(slot, state)
        legacy.mkdir()
        (legacy / LOG_NAME).write_bytes(old)
        (legacy / MANIFEST_NAME).write_bytes((golden / MANIFEST_NAME).read_bytes())
        assert main(["serve", "--resume", "--checkpoint-dir", str(legacy),
                     "--record-out", str(out)]) == 0
        assert f"(slot {stop}/30)" in capsys.readouterr().out
        assert record_mismatches(load_record(str(golden_out)), load_record(str(out))) == []
        self._assert_resumed_bytes_match(golden, legacy, stop)

    def test_live_log_without_frames_is_refused(self, tmp_path, capsys):
        """A live serve's log written before frames moved into the log
        cannot rebuild the resolved prefix: resume refuses it in one line."""
        ckpt = tmp_path / "ckpt"
        assert main([*self.SYNTHETIC, "--checkpoint-dir", str(ckpt), "--max-slots", "13"]) == 0
        log = ckpt / LOG_NAME
        blob = log.read_bytes()
        legacy = b""
        for slot, start, end in record_spans(log):
            state = json.loads(blob[blob.index(b"\n", start) + 1 : end - 1])
            del state["series"]["environment"]
            legacy += dumps_checkpoint(slot, state)
        log.write_bytes(legacy)
        capsys.readouterr()
        assert main(["serve", "--resume", "--checkpoint-dir", str(ckpt)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err == (
            f"repro serve: checkpoint log {log} carries 0 resolved frame(s) but is "
            "at slot 13 (written before frames moved into the log); re-serve from "
            "the start\n"
        )

    def test_resumed_serve_gets_the_whole_run_monitor_verdicts(self, tmp_path, capsys):
        """The monitors of a resumed serve start from the totals of the
        slots before the resume: its strict exit and its budget and fault
        reports are the uninterrupted serve's."""
        whole, cut = tmp_path / "whole", tmp_path / "cut"
        assert main([*self.SYNTHETIC, "--checkpoint-dir", str(whole), "--strict",
                     "--trace-out", str(tmp_path / "whole.jsonl")]) == 0
        assert main([*self.SYNTHETIC, "--checkpoint-dir", str(cut), "--max-slots", "13",
                     "--strict"]) == 0
        assert main(["serve", "--resume", "--checkpoint-dir", str(cut), "--strict",
                     "--trace-out", str(tmp_path / "cut.jsonl")]) == 0
        assert capsys.readouterr().out.count("10/10 monitors passing") == 3

        def reports(name):
            suite = replay(load_trace(str(tmp_path / name)))
            return {r.monitor: r for r in suite.reports()}

        want, got = reports("whole.jsonl"), reports("cut.jsonl")
        assert {m: r.passed for m, r in got.items()} == {m: r.passed for m, r in want.items()}
        budget = [r["budget-trajectory"].detail.split(" (worst")[0] for r in (got, want)]
        assert budget[0] == budget[1]
        faults = got["fault-activity"].detail
        assert faults.startswith("12 injected; signal=12;")
        assert faults.split("; ")[:2] == want["fault-activity"].detail.split("; ")[:2]

    def test_synthetic_serve_stop_and_resume(self, tmp_path, capsys):
        golden, resumed = tmp_path / "golden", tmp_path / "resumed"
        assert main([*self.SYNTHETIC, "--checkpoint-dir", str(golden)]) == 0
        stop = 13
        assert (
            main([*self.SYNTHETIC, "--checkpoint-dir", str(resumed), "--max-slots", str(stop)])
            == 0
        )
        assert "stopped at slot 13/30" in capsys.readouterr().out
        assert main(["serve", "--resume", "--checkpoint-dir", str(resumed)]) == 0
        self._assert_resumed_bytes_match(golden, resumed, stop)


# ------------------------------------------------------------- cold start
class TestColdStart:
    """A feed that loses frame 0 plans slot 0 for the fleet's capacity: with
    nothing resolved yet, a zero-load plan would switch every server off and
    drop the whole slot."""

    @pytest.mark.parametrize("seed", [5, 14])  # frame 0 lost whole / its prediction lost
    def test_lost_first_frame_drops_nothing(self, tmp_path, capsys, seed):
        out = tmp_path / "record.npz"
        argv = ["serve", "--horizon", "24", "--source", "synthetic",
                "--source-seed", str(seed), "--record-out", str(out)]
        assert main(argv) == 0
        record = load_record(str(out))
        model = small_scenario(horizon=24).model
        assert record.arrival_predicted[0] == model.fleet.capacity(model.gamma)
        assert record.dropped[0] == 0.0
