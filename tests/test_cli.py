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
from repro.monitor import HealthMonitor
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
            build_parser().parse_args(["report", "--scale", "galactic"])


class TestCommands:
    def test_traces(self, capsys):
        assert main(["traces", "fiu", "--horizon", "240"]) == 0
        out = capsys.readouterr().out
        assert "fiu-workload" in out
        assert "daily profile peak" in out

    def test_traces_all_kinds(self, capsys):
        for kind in ["msr", "solar", "wind", "price", "rec-price"]:
            assert main(["traces", kind, "--horizon", "240"]) == 0

    def test_traces_seed_zero_is_a_seed(self, capsys):
        outputs = []
        for seed in ("0", "2012"):
            assert main(["traces", "fiu", "--horizon", "240", "--seed", seed]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] != outputs[1]

    @pytest.mark.parametrize("horizon", ["0", "-3"])
    def test_traces_refuse_a_non_positive_horizon(self, horizon, capsys):
        assert main(["traces", "fiu", "--horizon", horizon]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert err == [f"repro traces: --horizon must be >= 1, got {horizon}"]

    def test_quickstart_fixed_v(self, capsys):
        """COCA against carbon-unaware at a fixed V (the demo ``repro
        figure quickstart`` runs at V* on the paper year)."""
        assert main(["report", "--horizon", "72", "--v", "0.05", "--no-opt"]) == 0
        out = capsys.readouterr().out
        assert "| carbon-unaware |" in out
        assert "| COCA |" in out

    def test_sweep_v(self, short_paper_years, capsys):
        assert main(["figure", "fig2ab_constant_v"]) == 0
        assert "vs constant V" in capsys.readouterr().out

    def test_compare_hp(self, short_paper_years, capsys):
        assert main(["figure", "fig3_coca_vs_perfecthp"]) == 0
        assert "PerfectHP" in capsys.readouterr().out

    def test_budget_sweep_no_opt(self, short_paper_years, capsys):
        assert main(["figure", "fig5b_budget_msr"]) == 0
        assert "normalized average cost vs carbon budget" in capsys.readouterr().out

    def test_msr_workload_option(self, capsys):
        assert (
            main(["report", "--horizon", "72", "--v", "0.05", "--no-opt", "--workload", "msr"])
            == 0
        )

    def test_report_refuses_a_zero_horizon(self, capsys):
        assert main(["report", "--horizon", "0"]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["repro report: --horizon must be >= 1, got 0"]

    def test_report_infeasible_budget_is_one_line(self, capsys):
        rc = main(["report", "--horizon", "48", "--budget-fraction", "0.3"])
        assert rc == EXIT_BAD_INPUT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("repro report: even V=0.0001 violates neutrality")


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

    def test_resume_reads_a_parent_format_gsd_checkpoint(self, tmp_path, capsys):
        # Records written before the exact gap graded GSD carry a
        # ``solve_count`` beside the chain's RNG; a resume ignores it and
        # continues the chain bit for bit.
        from repro.state import (
            LOG_NAME,
            dumps_checkpoint,
            load_record,
            loads_checkpoint,
            record_mismatches,
        )
        from tests.state_oracle import record_spans

        ckpt_dir = tmp_path / "ckpts"
        whole, resumed = tmp_path / "whole.npz", tmp_path / "resumed.npz"
        gsd = ("--solver", "gsd", "--iterations", "8")
        assert self._run(ckpt_dir, *gsd, "--record-out", str(whole)) == 0
        log = ckpt_dir / LOG_NAME
        data, rewritten = log.read_bytes(), b""
        for slot, start, end in record_spans(log)[:5]:
            record = loads_checkpoint(data[start:end]).state
            solver = record["controller"]["state"]["solver"]
            assert set(solver) == {"rng"}
            solver["solve_count"] = slot
            rewritten += dumps_checkpoint(slot, record)
        log.write_bytes(rewritten)
        assert main(["resume", str(ckpt_dir), "--record-out", str(resumed)]) == 0
        assert record_mismatches(load_record(str(whole)), load_record(str(resumed))) == []

    def test_strict_tracing_moves_no_gsd_bit(self, tmp_path, capsys):
        # --strict --trace-out runs the exact shadow after every GSD solve;
        # the record and every checkpointed controller state (the chain's
        # RNG included) stay those of the plain run, byte for byte.
        from repro.state import LOG_NAME, loads_checkpoint
        from repro.telemetry import load_trace
        from tests.state_oracle import record_spans

        def run(name, *extra):
            ckpt_dir, out = tmp_path / name, tmp_path / f"{name}.npz"
            rc = self._run(ckpt_dir, "--solver", "gsd", "--iterations", "20",
                           "--record-out", str(out), *extra)
            assert rc in (0, EXIT_MONITOR_CRITICAL)
            log = ckpt_dir / LOG_NAME
            data = log.read_bytes()
            states = [
                loads_checkpoint(data[start:end]).state["controller"]["state"]
                for _, start, end in record_spans(log)
            ]
            return out.read_bytes(), states

        trace = tmp_path / "strict.jsonl"
        assert run("plain") == run("strict", "--strict", "--trace-out", str(trace))
        solves = [e for e in load_trace(str(trace)) if e["kind"] == "gsd.solve"]
        assert len(solves) == 48 and all("gap_rel" in e for e in solves)


class TestExitCodes:
    """The three failure classes exit with distinct codes (satellite
    contract): bad input = 1, monitor critical = 2, replay mismatch = 3."""

    def test_codes_are_distinct(self):
        assert len({EXIT_BAD_INPUT, EXIT_MONITOR_CRITICAL, EXIT_REPLAY_MISMATCH}) == 3

    def test_chaos_missing_schedule_is_bad_input(self, tmp_path, capsys):
        rc = main(["run", "--horizon", "48", "--schedule", str(tmp_path / "missing.json")])
        assert rc == EXIT_BAD_INPUT
        assert "cannot load fault schedule" in capsys.readouterr().err

    def test_chaos_torn_schedule_is_bad_input(self, tmp_path, capsys):
        torn = tmp_path / "torn.json"
        torn.write_text('{"events": [')
        rc = main(["run", "--horizon", "48", "--schedule", str(torn)])
        assert rc == EXIT_BAD_INPUT
        assert "cannot load fault schedule" in capsys.readouterr().err

    def test_resume_missing_manifest_is_bad_input(self, tmp_path, capsys):
        assert main(["resume", str(tmp_path)]) == EXIT_BAD_INPUT

    def test_shards_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--shards", "2"])

    @pytest.mark.parametrize(
        "argv", [["chaos"], ["run", "--distributed"]], ids=["chaos", "distributed"]
    )
    def test_chaos_command_and_distributed_flag_are_gone(self, argv):
        # A fault run is `run --chaos`; its distributed solver is
        # `--solver distributed`.
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    @pytest.mark.parametrize("command", ["resume"])
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
        rc = main([command, str(ckpt_dir)])
        assert rc == EXIT_BAD_INPUT
        err = capsys.readouterr().err.strip()
        assert "--shards" in err and "removed" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["resume"])
    def test_resume_refuses_advised_manifest(self, tmp_path, capsys, command):
        # The advice layer was removed: its checkpoints cannot resume as a
        # plain COCA run without silently changing the controller.
        (tmp_path / MANIFEST_NAME).write_bytes(ADVICE_MANIFEST.read_bytes())
        rc = main([command, str(tmp_path)])
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

    @pytest.mark.parametrize("command", ["resume"])
    def test_resume_refuses_version_1_snapshots(self, tmp_path, capsys, command):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(LEGACY_MANIFEST))
        (tmp_path / "ckpt-00000048.json").write_text(
            '{"crc32":0,"format":"repro-checkpoint","payload_bytes":2,'
            '"slot":48,"version":1}\n{}\n'
        )
        rc = main([command, str(tmp_path)])
        assert rc == EXIT_BAD_INPUT
        err = capsys.readouterr().err.strip()
        assert "version-1" in err and "ckpt-*.json" in err
        assert len(err.splitlines()) == 1

    def test_run_verify_replay_refuses_deadline_runs(self, capsys):
        argv = ["run", "--horizon", "24", "--verify-replay", "--solve-deadline-ms", "5"]
        assert main(argv) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert len(captured.err.strip().splitlines()) == 1
        assert "solve-deadline" in captured.err
        assert "run: cost" not in captured.out

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


class _AlwaysFails(HealthMonitor):
    name = "always-fails"

    def finalize(self, alerts):
        self.violations = 1


class TestFaultRun:
    """``run --chaos`` with the health monitors (``--strict``) and the
    bit-replay check (``--verify-replay``) in place."""

    #: The exact-engine fault run of the chaos-smoke CI job, on 48 slots.
    ARGV = [
        "run", "--chaos", "--horizon", "48", "--seed", "11",
        "--budget-fraction", "1.0", "--fault-seed", "7", "--failure-rate", "0.04",
    ]

    def test_strict_verified_fault_run_passes(self, capsys):
        assert main([*self.ARGV, "--strict", "--verify-replay"]) == 0
        out = capsys.readouterr().out
        assert "chaos: 28 timed events over 48 h; reliable messaging" in out
        assert "faults: 28 injected (group_fail=14, group_repair=14)" in out
        assert "8/8 monitors passing" in out
        assert "replay: bit-identical" in out

    def test_stopped_strict_run_resumes_to_the_whole_run_verdicts(self, tmp_path, capsys):
        """A strict fault run stopped at slot 13 and resumed with ``resume
        --strict`` ends with the uninterrupted run's verdicts, exit code
        and record.  At 80% of the unaware usage the budget trajectory
        fails, so a failing verdict is compared too."""
        from repro.state import load_record, record_mismatches

        argv = [*self.ARGV, "--budget-fraction", "0.8"]
        whole, cut = tmp_path / "whole", tmp_path / "cut"

        def verdicts(captured):
            fails = sorted(
                line.split(":")[0].split()[-1]
                for line in captured.err.splitlines() if line.lstrip().startswith("FAIL ")
            )
            passing = [line for line in captured.out.splitlines() if "monitors passing" in line]
            return passing, fails

        rc = main([*argv, "--strict", "--checkpoint-dir", str(whole),
                   "--record-out", str(tmp_path / "whole.npz")])
        want = verdicts(capsys.readouterr())
        assert rc == EXIT_MONITOR_CRITICAL and want[1] == ["budget-trajectory"]
        assert main([*argv, "--strict", "--checkpoint-dir", str(cut),
                     "--max-slots", "13"]) == 0
        assert "stopped at slot 13/48" in capsys.readouterr().out
        rc = main(["resume", str(cut), "--strict", "--record-out", str(tmp_path / "cut.npz")])
        assert rc == EXIT_MONITOR_CRITICAL
        assert verdicts(capsys.readouterr()) == want
        assert record_mismatches(
            load_record(str(tmp_path / "whole.npz")), load_record(str(tmp_path / "cut.npz"))
        ) == []

    def test_message_faults_note_names_the_distributed_solver(self, capsys):
        assert main([*self.ARGV, "--horizon", "4", "--loss", "0.1"]) == 0
        assert "only bite with --solver distributed" in capsys.readouterr().out

    @pytest.fixture
    def failing_suite(self, monkeypatch):
        import repro.monitor
        from repro.telemetry import Telemetry

        built = []
        real_suite, real_init = repro.monitor.default_suite, Telemetry.__init__

        def suite(**kwargs):
            built.append("suite")
            return real_suite(extra=[_AlwaysFails()], **kwargs)

        def init(self, *args, **kwargs):
            built.append("telemetry")
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(repro.monitor, "default_suite", suite)
        monkeypatch.setattr(Telemetry, "__init__", init)
        return built

    def test_strict_exits_2_on_a_failing_monitor(self, failing_suite, capsys):
        assert main([*self.ARGV, "--strict"]) == EXIT_MONITOR_CRITICAL
        captured = capsys.readouterr()
        assert "8/9 monitors passing" in captured.out
        assert "FAIL always-fails" in captured.err
        assert failing_suite == ["suite", "telemetry"]

    def test_without_strict_no_monitors_and_no_telemetry(self, failing_suite, capsys):
        assert main(self.ARGV) == 0
        assert "monitors passing" not in capsys.readouterr().out
        assert failing_suite == []


class TestGSDGap:
    """``gsd-gap`` judges a GSD run by its median gap to the exact engine."""

    ARGV = [
        "run", "--horizon", "24", "--seed", "3", "--budget-fraction", "2.0",
        "--solver", "gsd", "--strict",
    ]

    def test_live_verdict_equals_the_dashboard_verdict(self, tmp_path, capsys):
        # One chain step per slot leaves most solves far from the optimum.
        trace = tmp_path / "gsd.jsonl"
        rc = main([*self.ARGV, "--iterations", "1", "--trace-out", str(trace)])
        live = capsys.readouterr()
        assert rc == EXIT_MONITOR_CRITICAL
        assert "FAIL gsd-gap" in live.err
        rc_offline = main(
            ["dashboard", "--trace", str(trace), "-o", str(tmp_path / "d.html"), "--strict"]
        )
        offline = capsys.readouterr()
        assert rc_offline == rc
        assert offline.err == live.err

        def verdict(out):
            return [line for line in out.splitlines() if "monitors passing" in line]

        assert verdict(offline.out) == verdict(live.out) == ["7/8 monitors passing"]
        # Both trace readers print the graded gap beside the chain statistics.
        assert "gap to the exact engine median" in (tmp_path / "d.html").read_text()
        assert main(["telemetry", str(trace)]) == 0
        assert "gap p50 [%]" in capsys.readouterr().out

    def test_a_converged_chain_passes(self, capsys):
        assert main([*self.ARGV, "--iterations", "20"]) == 0
        assert "8/8 monitors passing" in capsys.readouterr().out


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
        manifest = json.loads((MANIFEST_DIR / "legacy_serve_replay.json").read_text())
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
    (["run", "--chaos", "--solver", "distributed", "--iterations", "0"], "--iterations"),
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

    def test_checkpoint_dir_under_a_file_is_refused(self, tmp_path, capsys):
        """A checkpoint directory that cannot be made (its parent is a
        regular file) is refused in one line before anything is written."""
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        argv = ["run", "--horizon", "4", "--checkpoint-dir", str(blocker / "ckpt")]
        assert main(argv) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and "checkpoint dir" in lines[0]
        assert "Traceback" not in captured.err and captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]
        assert blocker.read_text() == ""

    def test_schedule_out_without_a_schedule_is_refused(self, tmp_path, capsys):
        out = tmp_path / "schedule.json"
        assert main(["run", "--horizon", "24", "--schedule-out", str(out)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and "--schedule-out" in err
        assert not out.exists()
