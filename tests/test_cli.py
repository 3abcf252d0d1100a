"""Tests for the command-line interface."""

import json
import os
from pathlib import Path

import pytest

from repro.cli import (
    EXIT_BAD_INPUT,
    EXIT_MONITOR_CRITICAL,
    EXIT_REPLAY_MISMATCH,
    MANIFEST_NAME,
    build_parser,
    main,
)
from repro.runspec import RunSpec

MANIFEST_DIR = Path(__file__).parent / "goldens" / "manifests"
#: Manifest of a serve run under the removed ``--advice`` layer; kept only
#: as the input every resume path must refuse.
ADVICE_MANIFEST = MANIFEST_DIR / "serve_synthetic_advice.json"

#: A hand-written batch-run manifest in the format written before serve
#: runs existed (with the rotation depth ``keep`` the log replaced).
LEGACY_MANIFEST = {
    "format": "repro-run-manifest",
    "version": 1,
    "scenario": {
        "scale": "small",
        "horizon": 48,
        "workload": "fiu",
        "seed": 3,
        "budget_fraction": 0.92,
    },
    "run": {
        "v": 150.0,
        "solver": "auto",
        "iterations": 200,
        "solver_seed": 7,
        "fallback": "last_action",
        "retries": 1,
        "solve_deadline_ms": None,
    },
    "schedule": None,
    "checkpoint": {"every": 1, "keep": 3},
}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["quickstart", "--scale", "galactic"])


class TestCommands:
    def test_traces(self, capsys):
        assert main(["traces", "fiu", "--horizon", "240"]) == 0
        out = capsys.readouterr().out
        assert "fiu-workload" in out
        assert "daily profile peak" in out

    def test_traces_all_kinds(self, capsys):
        for kind in ["msr", "solar", "wind", "price", "rec-price"]:
            assert main(["traces", kind, "--horizon", "240"]) == 0

    def test_quickstart_fixed_v(self, capsys):
        assert main(["quickstart", "--horizon", "72", "--v", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "carbon-unaware vs COCA" in out
        assert "COCA" in out

    def test_sweep_v(self, capsys):
        assert main(["sweep-v", "--horizon", "72", "--values", "0.01,10"]) == 0
        out = capsys.readouterr().out
        assert "impact of constant V" in out

    def test_compare_hp(self, capsys):
        assert (
            main(["compare-hp", "--horizon", "96", "--v", "0.02", "--buckets", "4"])
            == 0
        )
        out = capsys.readouterr().out
        assert "PerfectHP" in out

    def test_budget_sweep_no_opt(self, capsys):
        assert (
            main(
                [
                    "budget-sweep",
                    "--horizon",
                    "96",
                    "--fractions",
                    "0.95",
                    "--no-opt",
                    "--v-iters",
                    "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "budget" in out

    def test_msr_workload_option(self, capsys):
        assert (
            main(["quickstart", "--horizon", "72", "--v", "0.05", "--workload", "msr"])
            == 0
        )


class TestRunResume:
    def _run(self, ckpt_dir, *extra):
        return main(
            [
                "run",
                "--horizon", "48",
                "--seed", "3",
                "--checkpoint-dir", str(ckpt_dir),
                "--checkpoint-every", "4",
                *extra,
            ]
        )

    def test_run_writes_manifest_and_log(self, tmp_path, capsys):
        from repro.state import LOG_NAME
        from tests.state_oracle import record_spans

        assert self._run(tmp_path / "ckpts") == 0
        assert sorted(os.listdir(tmp_path / "ckpts")) == [LOG_NAME, MANIFEST_NAME]
        spans = record_spans(tmp_path / "ckpts" / LOG_NAME)
        assert [slot for slot, _, _ in spans] == list(range(4, 49, 4))

    def test_checkpoint_keep_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--checkpoint-keep", "2"])

    def test_run_without_checkpoints(self, capsys):
        assert main(["run", "--horizon", "48", "--seed", "3"]) == 0
        assert "run: cost" in capsys.readouterr().out

    def test_resume_verify_replay_passes(self, tmp_path, capsys):
        ckpt_dir = tmp_path / "ckpts"
        assert self._run(ckpt_dir) == 0
        assert main(["resume", str(ckpt_dir), "--verify-replay"]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_record_out_round_trips(self, tmp_path, capsys):
        from repro.state import load_record, record_mismatches

        ckpt_dir = tmp_path / "ckpts"
        a = tmp_path / "a.npz"
        b = tmp_path / "b.npz"
        assert self._run(ckpt_dir, "--record-out", str(a)) == 0
        assert main(["resume", str(ckpt_dir), "--record-out", str(b)]) == 0
        assert record_mismatches(load_record(str(a)), load_record(str(b))) == []

    @pytest.mark.parametrize("faults", [[], ["--chaos", "--failure-rate", "0.05"]])
    def test_distributed_matches_gsd_records(self, tmp_path, capsys, faults):
        # With no message faults the distributed solver is the GSD chain:
        # same seed and iterations, bit-identical records.
        from repro.state import load_record, record_mismatches

        records = []
        for solver in ("gsd", "distributed"):
            out = tmp_path / f"{solver}.npz"
            argv = [
                "run", "--horizon", "24", "--seed", "4", "--fault-seed", "7",
                "--solver", solver, "--iterations", "20", "--record-out", str(out),
            ]
            assert main(argv + faults) == 0
            records.append(load_record(str(out)))
        assert record_mismatches(*records) == []

    def test_resume_refuses_message_bus_checkpoint(self, tmp_path, capsys):
        # The retired message-bus chain wrote solver state without a
        # ``solve_count``; its checkpoints cannot continue on the GSD chain.
        from repro.state import LOG_NAME, dumps_checkpoint, loads_checkpoint
        from tests.state_oracle import record_spans

        ckpt_dir = tmp_path / "ckpts"
        assert self._run(ckpt_dir, "--solver", "distributed", "--iterations", "4") == 0
        log = ckpt_dir / LOG_NAME
        data, rewritten = log.read_bytes(), b""
        for slot, start, end in record_spans(log):
            record = loads_checkpoint(data[start:end]).state
            del record["controller"]["state"]["solver"]["solve_count"]
            rewritten += dumps_checkpoint(slot, record)
        log.write_bytes(rewritten)
        capsys.readouterr()
        assert main(["resume", str(ckpt_dir)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err.strip()
        assert "message-bus" in err and len(err.splitlines()) == 1


class TestExitCodes:
    """The three failure classes exit with distinct codes (satellite
    contract): bad input = 1, monitor critical = 2, replay mismatch = 3."""

    def test_codes_are_distinct(self):
        assert len({EXIT_BAD_INPUT, EXIT_MONITOR_CRITICAL, EXIT_REPLAY_MISMATCH}) == 3

    def test_chaos_missing_schedule_is_bad_input(self, tmp_path, capsys):
        rc = main(
            [
                "chaos",
                "--horizon", "48",
                "--schedule", str(tmp_path / "missing.json"),
            ]
        )
        assert rc == EXIT_BAD_INPUT
        assert "cannot load fault schedule" in capsys.readouterr().err

    def test_chaos_torn_schedule_is_bad_input(self, tmp_path, capsys):
        torn = tmp_path / "torn.json"
        torn.write_text('{"events": [')
        rc = main(["chaos", "--horizon", "48", "--schedule", str(torn)])
        assert rc == EXIT_BAD_INPUT

    def test_resume_missing_manifest_is_bad_input(self, tmp_path, capsys):
        assert main(["resume", str(tmp_path)]) == EXIT_BAD_INPUT

    def test_shards_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--shards", "2"])

    @pytest.mark.parametrize("command", ["resume", "serve"])
    def test_resume_refuses_sharded_manifest(self, tmp_path, capsys, command):
        # A checkpoint written by the removed process-sharded solver must not
        # silently resume on the single-process chain.
        ckpt_dir = tmp_path / "ckpts"
        argv = ["run", "--horizon", "12", "--solver", "gsd", "--iterations", "4"]
        assert main(argv + ["--checkpoint-dir", str(ckpt_dir)]) == 0
        path = ckpt_dir / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["run"]["shards"] = 2
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        if command == "resume":
            rc = main(["resume", str(ckpt_dir)])
        else:
            rc = main(["serve", "--resume", "--checkpoint-dir", str(ckpt_dir)])
        assert rc == EXIT_BAD_INPUT
        err = capsys.readouterr().err.strip()
        assert "--shards" in err and "removed" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["resume", "serve"])
    def test_resume_refuses_advised_manifest(self, tmp_path, capsys, command):
        # The advice layer was removed: its checkpoints cannot resume as a
        # plain COCA run without silently changing the controller.
        (tmp_path / MANIFEST_NAME).write_bytes(ADVICE_MANIFEST.read_bytes())
        if command == "resume":
            rc = main(["resume", str(tmp_path)])
        else:
            rc = main(["serve", "--resume", "--checkpoint-dir", str(tmp_path)])
        assert rc == EXIT_BAD_INPUT
        err = capsys.readouterr().err.strip()
        assert "--advice" in err and "removed" in err
        assert len(err.splitlines()) == 1

    def test_resume_without_valid_checkpoint_is_bad_input(self, tmp_path, capsys):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(LEGACY_MANIFEST))
        rc = main(["resume", str(tmp_path)])
        assert rc == EXIT_BAD_INPUT
        assert "no valid checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("leftover", ["log", "v1"])
    @pytest.mark.parametrize("command", ["run", "serve"])
    def test_fresh_run_refuses_a_used_checkpoint_dir(
        self, tmp_path, capsys, command, leftover
    ):
        # A new run must neither append to another run's log nor leave
        # another run's snapshots beside its own manifest.
        ckpt_dir = tmp_path / "ckpts"
        if leftover == "log":
            argv = [command, "--horizon", "24", "--checkpoint-dir", str(ckpt_dir)]
            assert main(argv) == 0
        else:
            ckpt_dir.mkdir()
            (ckpt_dir / "ckpt-00000024.json").write_text("{}")
        before = {p.name: p.read_bytes() for p in ckpt_dir.iterdir()}
        capsys.readouterr()
        rc = main([command, "--horizon", "12", "--checkpoint-dir", str(ckpt_dir)])
        assert rc == EXIT_BAD_INPUT
        err = capsys.readouterr().err.strip()
        assert "already holds checkpoints" in err and len(err.splitlines()) == 1
        assert {p.name: p.read_bytes() for p in ckpt_dir.iterdir()} == before

    @pytest.mark.parametrize("command", ["resume", "serve"])
    def test_resume_refuses_version_1_snapshots(self, tmp_path, capsys, command):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(LEGACY_MANIFEST))
        (tmp_path / "ckpt-00000048.json").write_text(
            '{"crc32":0,"format":"repro-checkpoint","payload_bytes":2,'
            '"slot":48,"version":1}\n{}\n'
        )
        if command == "resume":
            rc = main(["resume", str(tmp_path)])
        else:
            rc = main(["serve", "--resume", "--checkpoint-dir", str(tmp_path)])
        assert rc == EXIT_BAD_INPUT
        err = capsys.readouterr().err.strip()
        assert "version-1" in err and "ckpt-*.json" in err
        assert len(err.splitlines()) == 1

    def test_resume_verify_replay_refuses_deadline_runs(self, tmp_path, capsys):
        ckpt_dir = tmp_path / "ckpts"
        assert (
            main(
                [
                    "run",
                    "--horizon", "48",
                    "--seed", "3",
                    "--checkpoint-dir", str(ckpt_dir),
                    "--solve-deadline-ms", "10000",
                ]
            )
            == 0
        )
        rc = main(["resume", str(ckpt_dir), "--verify-replay"])
        assert rc == EXIT_BAD_INPUT
        assert "solve-deadline" in capsys.readouterr().err

    def test_tampered_state_is_replay_mismatch(self, tmp_path, capsys):
        # A *validly checksummed* checkpoint whose state was rewritten is
        # exactly what --verify-replay exists to catch: the resumed record
        # carries the tampered history and must diverge from golden.
        from repro.state import LOG_NAME, dumps_checkpoint, latest_valid_checkpoint

        ckpt_dir = tmp_path / "ckpts"
        assert (
            main(
                [
                    "run",
                    "--horizon", "48",
                    "--seed", "3",
                    "--checkpoint-dir", str(ckpt_dir),
                    "--checkpoint-every", "4",
                ]
            )
            == 0
        )
        ckpt = latest_valid_checkpoint(str(ckpt_dir))
        state = json.loads(json.dumps(ckpt.state))
        state["series"]["cols"]["cost"][0] += 1.0
        # One record that carries every row: a log of its own.
        state["series"] = {
            group: {name: {"from": 0, "rows": rows} for name, rows in named.items()}
            for group, named in state["series"].items()
        }
        (ckpt_dir / LOG_NAME).write_bytes(dumps_checkpoint(ckpt.slot, state))
        rc = main(["resume", str(ckpt_dir), "--verify-replay"])
        assert rc == EXIT_REPLAY_MISMATCH
        assert "DIVERGED" in capsys.readouterr().err


class TestRunSpec:
    @pytest.mark.parametrize(
        "path",
        sorted(p for p in MANIFEST_DIR.glob("*.json") if p != ADVICE_MANIFEST),
        ids=lambda p: p.stem,
    )
    def test_golden_manifest_round_trips(self, path):
        manifest = json.loads(path.read_text())
        assert RunSpec.from_manifest(manifest).to_manifest() == manifest

    def test_legacy_manifest_round_trips(self):
        # Everything round-trips except the rotation depth, which is dropped.
        expected = {**LEGACY_MANIFEST, "checkpoint": {"every": 1}}
        assert RunSpec.from_manifest(LEGACY_MANIFEST).to_manifest() == expected

    def test_null_advice_of_older_serve_manifests_is_accepted(self):
        # Serve manifests written before the advice layer was removed carry
        # ``"advice": null``; they load as the same run and drop the key.
        manifest = json.loads((MANIFEST_DIR / "serve_replay.json").read_text())
        legacy = json.loads(json.dumps(manifest))
        legacy["run"]["advice"] = None
        assert RunSpec.from_manifest(legacy) == RunSpec.from_manifest(manifest)
        assert RunSpec.from_manifest(legacy).to_manifest() == manifest

    def test_foreign_file_is_refused(self):
        with pytest.raises(ValueError, match="not a repro-run-manifest"):
            RunSpec.from_manifest({"format": "something-else"})


#: (argv, the flag or field the one stderr line must name).
BAD_RUN_SETTINGS = [
    (["run", "--checkpoint-every", "0"], "--checkpoint-every"),
    (["run", "--chaos", "--retries", "-1"], "--retries"),
    (["run", "--solver", "gsd", "--iterations", "0"], "--iterations"),
    (["chaos", "--distributed", "--iterations", "0"], "--iterations"),
    (["run", "--chaos", "--failure-rate", "2"], "failure_rate"),
    (["run", "--solve-deadline-ms", "-5"], "--solve-deadline-ms"),
    (["serve", "--dry-run", "--solver", "gsd", "--iterations", "0"], "--iterations"),
    (["serve", "--solver", "gsd", "--iterations", "0"], "--iterations"),
]


class TestBadRunSettings:
    """Invalid run settings exit 1 with one line per problem on stderr,
    never a traceback, and before any slot runs."""

    @pytest.mark.parametrize(
        "argv, needle", BAD_RUN_SETTINGS, ids=[" ".join(a) for a, _ in BAD_RUN_SETTINGS]
    )
    def test_exits_bad_input_with_one_line(self, argv, needle, capsys):
        assert main([*argv, "--horizon", "24"]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        lines = [line for line in captured.err.splitlines() if line.startswith("repro ")]
        assert len(lines) == 1 and needle in lines[0]
        assert "Traceback" not in captured.err
        assert "run: cost" not in captured.out

    def test_schedule_out_without_a_schedule_is_refused(self, tmp_path, capsys):
        out = tmp_path / "schedule.json"
        assert main(["run", "--horizon", "24", "--schedule-out", str(out)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and "--schedule-out" in err
        assert not out.exists()
