"""End-to-end serve smoke: real process, real signals, real resume.

These are the tests behind CI's ``serve-smoke`` job:

- start ``repro serve`` as a subprocess on a replayed feed, poll the live
  ``/status`` endpoint, SIGTERM it mid-horizon (exit code 4), then
  ``repro resume`` to completion and require the stitched record
  to be bit-identical to a batch ``repro run`` of the same scenario;
- start it on a lossy synthetic feed, SIGKILL it once a few checkpoint
  records are on disk (no shutdown path runs), resume, and require the
  record of an uninterrupted synthetic serve.  The resolved frames,
  degraded ones included, come back from the checkpoint log alone.

Everything here crosses a process boundary on purpose -- in-process
coverage of the same flows lives in ``test_serve.py``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.state import (
    LOG_NAME,
    latest_valid_checkpoint,
    load_record,
    record_mismatches,
)

HORIZON = 48
SEED = 9
SCENARIO_ARGS = ["--horizon", str(HORIZON), "--seed", str(SEED)]


def _spawn(args, cwd):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _run(args, cwd):
    proc = _spawn(args, cwd)
    out, _ = proc.communicate(timeout=300)
    return proc.returncode, out


def _wait_for(predicate, timeout_s=60.0, interval_s=0.1, what="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval_s)
    raise AssertionError(f"timed out waiting for {what}")


def _get_status(port):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/status", timeout=5) as r:
        return json.loads(r.read())


@pytest.mark.slow
def test_sigterm_then_resume_is_bit_identical_to_batch(tmp_path):
    d = str(tmp_path)
    ckpt = os.path.join(d, "ckpt")
    port_file = os.path.join(d, "port.txt")
    serve_record = os.path.join(d, "serve.npz")
    batch_record = os.path.join(d, "batch.npz")

    # Batch reference for the same scenario and controller settings.
    code, out = _run(
        ["run", *SCENARIO_ARGS, "--record-out", batch_record], d
    )
    assert code == 0, out

    # Start the service paced slowly enough to interrupt mid-horizon.
    proc = _spawn(
        [
            "serve",
            "--source", "replay",
            *SCENARIO_ARGS,
            "--slot-period-s", "0.2",
            "--status-port", "0",
            "--status-port-file", port_file,
            "--checkpoint-dir", ckpt,
            "--checkpoint-every", "1",
        ],
        d,
    )
    try:
        port = int(
            _wait_for(
                lambda: os.path.exists(port_file)
                and open(port_file).read().strip(),
                what="status port file",
            )
        )

        # The live endpoint answers while the run is in flight.
        status = _wait_for(
            lambda: (s := _get_status(port)) and s["slot"] >= 3 and s,
            what="slot >= 3 on /status",
        )
        assert status["state"] == "running"
        assert status["horizon"] == HORIZON
        assert 3 <= status["slot"] < HORIZON
        assert "carbon" in status and "solver_latency" in status

        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=30)

    assert proc.returncode == 4, out  # EXIT_SHUTDOWN
    assert "serve: stopped at slot" in out
    assert os.path.isdir(ckpt) and LOG_NAME in os.listdir(ckpt), out

    # Resume the interrupted service run to completion, free-running.
    code, out = _run(
        ["resume", ckpt, "--record-out", serve_record],
        d,
    )
    assert code == 0, out

    mismatches = record_mismatches(
        load_record(batch_record), load_record(serve_record)
    )
    assert mismatches == []


@pytest.mark.slow
def test_sigkill_of_a_live_feed_then_resume_is_bit_identical(tmp_path):
    d = str(tmp_path)
    ckpt = os.path.join(d, "ckpt")
    golden_record = os.path.join(d, "golden.npz")
    resumed_record = os.path.join(d, "resumed.npz")
    feed = ["--source", "synthetic", "--source-seed", "7", *SCENARIO_ARGS]

    code, out = _run(["serve", *feed, "--record-out", golden_record], d)
    assert code == 0, out

    proc = _spawn(
        [
            "serve",
            *feed,
            "--slot-period-s", "0.2",
            "--checkpoint-dir", ckpt,
            "--checkpoint-every", "1",
        ],
        d,
    )
    try:
        _wait_for(
            lambda: (c := latest_valid_checkpoint(ckpt)) is not None and c.slot >= 3,
            what="three checkpoint records",
        )
        proc.kill()
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=30)

    assert proc.returncode == -signal.SIGKILL, out
    assert "serve: stopped" not in out
    stopped = latest_valid_checkpoint(ckpt).slot
    assert 3 <= stopped < HORIZON

    code, out = _run(
        ["resume", ckpt, "--record-out", resumed_record],
        d,
    )
    assert code == 0, out
    assert f"(slot {stopped}/{HORIZON})" in out

    mismatches = record_mismatches(
        load_record(golden_record), load_record(resumed_record)
    )
    assert mismatches == []
