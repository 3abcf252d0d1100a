"""Kill-at-slot-k crash recovery: SIGKILL a checkpointed run, resume it,
and require the result to be bit-identical to an uninterrupted run.

This is the end-to-end proof of the ``repro.state`` contract: the harness
launches ``repro run`` in a subprocess with per-slot checkpoints, paced
to one slot per 40 ms (so the kill lands mid-horizon at a
timing-dependent slot), SIGKILLs it with no chance to clean up, then
resumes in-process from whatever the checkpoint log holds and diffs the final
:class:`~repro.sim.metrics.SimulationRecord` against a golden run that was
never interrupted.  Seeds cover the plain deterministic path, the shipped
GSD chain (its RNG position rides in the checkpoint; the run is also
killed under ``--strict``, whose exact shadow solve must leave the chain
untouched), and a chaos schedule with a lossy distributed bus.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import MANIFEST_NAME
from repro.runspec import RunSpec
from repro.sim import simulate
from repro.state import LOG_NAME, latest_valid_checkpoint, record_mismatches
from tests.state_oracle import record_spans

_REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _spawn_run(args):
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = _REPO_SRC + (os.pathsep + existing if existing else "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "run", *args],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _kill_mid_run(proc, ckpt_dir, *, min_checkpoints=5, timeout_s=90.0):
    """SIGKILL ``proc`` once the log shows real mid-run progress.

    Returns the number of checkpoints on disk at kill time (the fold's
    slot, at a cadence of one slot); fails the test if the run finishes
    (or stalls) before a mid-horizon kill was possible.
    """
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            pytest.fail(
                "run finished before it could be killed mid-horizon; "
                "raise --slot-period-s or the horizon"
            )
        ckpt = latest_valid_checkpoint(ckpt_dir)
        seen = 0 if ckpt is None else ckpt.slot
        if seen >= min_checkpoints:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            return seen
        time.sleep(0.05)
    proc.kill()
    proc.wait(timeout=30)
    pytest.fail("run never produced enough checkpoints to kill mid-horizon")


def _resume_and_diff(ckpt_dir):
    """Resume from the newest valid checkpoint; diff against golden."""
    with open(os.path.join(ckpt_dir, MANIFEST_NAME)) as fh:
        manifest = json.load(fh)
    ckpt = latest_valid_checkpoint(ckpt_dir)
    assert ckpt is not None, "SIGKILL left no valid checkpoint behind"
    assert 0 < ckpt.slot < int(manifest["scenario"]["horizon"])

    spec = RunSpec.from_manifest(manifest)
    scenario, controller, injector, policy = spec.build()
    resumed = simulate(
        scenario.model,
        controller,
        scenario.environment,
        faults=injector,
        degradation=policy,
        resume_from=ckpt,
    )
    scenario, controller, injector, policy = spec.build(scenario)
    golden = simulate(
        scenario.model,
        controller,
        scenario.environment,
        faults=injector,
        degradation=policy,
    )
    assert record_mismatches(resumed, golden) == [], (
        f"resume from slot {ckpt.slot} diverged from the uninterrupted run"
    )
    return ckpt.slot


@pytest.mark.parametrize("seed", [3, 5, 9])
def test_sigkill_then_resume_is_bit_identical(tmp_path, seed):
    ckpt_dir = str(tmp_path / "ckpts")
    proc = _spawn_run(
        [
            "--horizon", "96",
            "--seed", str(seed),
            "--checkpoint-dir", ckpt_dir,
            "--checkpoint-every", "1",
            "--slot-period-s", "0.04",
        ]
    )
    _kill_mid_run(proc, ckpt_dir, min_checkpoints=3)
    slot = _resume_and_diff(ckpt_dir)
    assert slot >= 3


def test_sigkill_then_resume_gsd_chain(tmp_path):
    # --strict taps the monitors, and with them the exact shadow solve
    # after each chain; the checkpointed chain must not see it.
    for extra in ((), ("--strict",)):
        ckpt_dir = str(tmp_path / ("ckpts" + "".join(extra)))
        proc = _spawn_run(
            [
                "--horizon", "96",
                "--seed", "7",
                "--solver", "gsd",
                "--iterations", "8",
                "--checkpoint-dir", ckpt_dir,
                "--checkpoint-every", "1",
                "--slot-period-s", "0.04",
                *extra,
            ]
        )
        _kill_mid_run(proc, ckpt_dir, min_checkpoints=3)
        slot = _resume_and_diff(ckpt_dir)
        assert slot >= 3


def test_sigkill_then_resume_under_lossy_bus_chaos(tmp_path):
    ckpt_dir = str(tmp_path / "ckpts")
    proc = _spawn_run(
        [
            "--horizon", "72",
            "--seed", "5",
            "--chaos",
            "--fault-seed", "11",
            "--signal-rate", "0.02",
            "--loss", "0.15",
            "--delay", "0.1",
            "--duplicate", "0.05",
            "--solver", "distributed",
            "--iterations", "6",
            "--checkpoint-dir", ckpt_dir,
            "--checkpoint-every", "1",
            "--slot-period-s", "0.04",
        ]
    )
    _kill_mid_run(proc, ckpt_dir, min_checkpoints=3)
    _resume_and_diff(ckpt_dir)


def test_corrupt_newest_checkpoint_falls_back_on_resume(tmp_path):
    ckpt_dir = str(tmp_path / "ckpts")
    proc = _spawn_run(
        [
            "--horizon", "96",
            "--seed", "3",
            "--checkpoint-dir", ckpt_dir,
            "--checkpoint-every", "1",
            "--slot-period-s", "0.04",
        ]
    )
    _kill_mid_run(proc, ckpt_dir, min_checkpoints=3)
    log = os.path.join(ckpt_dir, LOG_NAME)
    _, start, end = record_spans(log)[-1]
    blob = bytearray(open(log, "rb").read())
    blob[(start + end) // 2] ^= 0x10
    open(log, "wb").write(bytes(blob))
    _resume_and_diff(ckpt_dir)
