"""One repeat of one workload, in its own process.

Calls ``repro.cli.main(argv)`` in-process with two outer hooks:
``SlotRunner.start`` marks the end of setup and ``SlotRunner.step`` times
one slot.  Outside every timed interval, around setup and between slots,
the hooks sample the kernels of :mod:`speed`, which scale each time to
the reference speed.  With ``--trace`` the layer wrappers of :mod:`layers` are
installed too.  After
``main`` returns, the results are read off the captured runner, the output
checks run, and one JSON object is printed as the last line of stdout.

Run by ``run.py``; not meant to be called by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import pathlib
import resource
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from layers import Patcher, Tracer, layer_metrics  # noqa: E402
from speed import (  # noqa: E402
    ARRAY_QUIET_S, INTERPRETER_QUIET_S, SpeedProbe, array_kernel, interpreter_kernel,
)
from workloads import argv_for  # noqa: E402

perf = time.perf_counter

#: Relative tolerances of the output checks.
BALANCE_RTOL = 1e-9
COST_RTOL = 1e-12
QUEUE_RTOL = 1e-9

#: Array-kernel samples taken just before ``main`` and just after setup,
#: which give the setup time its local speed.
SETUP_SAMPLES = 3


def import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"bench child: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    import repro.cli

    if SRC not in pathlib.Path(repro.__file__).resolve().parents:
        sys.exit(f"bench child: repro imported from {repro.__file__}, not {SRC}")
    return repro.cli


class Clock:
    """The two outer hooks, and the speed probes of setup and slots."""

    def __init__(self) -> None:
        self.runner = None
        self.probe = SpeedProbe(interpreter_kernel, INTERPRETER_QUIET_S)
        self.setup_probe = SpeedProbe(array_kernel, ARRAY_QUIET_S)
        self.entry = None
        self.setup_end = None
        self.last_end = None
        self.starts: list[float] = []
        self.steps: list[float] = []
        #: Probe time spent just before each slot's step.
        self.probed: list[float] = []

    def cycles(self) -> list[float]:
        """Start-to-start time of each slot: the step plus whatever the
        slot loop did before the next one, without the probe's samples
        (the last slot ends with its step)."""
        ends = self.starts[1:] + [self.last_end] if self.starts else []
        probed = self.probed[1:] + [0.0]
        return [end - start - p for start, end, p in zip(self.starts, ends, probed)]

    def scaled(self, starts: list[float], spans: list[float]) -> list[float]:
        """Each interval ``[start, start + span]`` at the reference speed."""
        scale = self.probe.scale
        return [span * scale(start, start + span) for start, span in zip(starts, spans)]

    def install(self, patcher: Patcher) -> None:
        probe = self.probe

        def start(fn):
            def hooked(runner, *args, **kwargs):
                result = fn(runner, *args, **kwargs)
                self.runner = runner
                self.setup_end = perf()
                self.setup_probe.sample(SETUP_SAMPLES)
                return result
            return hooked

        def step(fn):
            starts, steps, probed = self.starts, self.steps, self.probed

            def hooked(*args, **kwargs):
                probed.append(probe.sample() if probe.due() else 0.0)
                t0 = perf()
                result = fn(*args, **kwargs)
                self.last_end = t1 = perf()
                starts.append(t0)
                steps.append(t1 - t0)
                return result
            return hooked

        for target, make in (
            ("repro.sim.engine:SlotRunner.start", start),
            ("repro.sim.engine:SlotRunner.step", step),
        ):
            if not patcher.patch(target, make):
                sys.exit(f"bench child: hook target {target} is missing")


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def output_checks(runner, rc: int, slots: int) -> dict[str, str]:
    """Every check's verdict: ``"ok"`` or the first failure found."""
    cols = runner.cols
    horizon = runner.horizon
    checks: dict[str, str] = {"rc": "ok" if rc == 0 else f"exit code {rc}"}

    lengths = {len(v) for v in cols.values()}
    finite = all(math.isfinite(x) for v in cols.values() for x in v)
    if lengths != {horizon} or slots != horizon:
        checks["slots"] = f"{slots} steps, column lengths {sorted(lengths)}, horizon {horizon}"
    elif not finite:
        checks["slots"] = "non-finite value in the record"
    else:
        checks["slots"] = "ok"

    checks["load_balance"] = "ok"
    for t, (s, d, a) in enumerate(zip(cols["served"], cols["dropped"], cols["arrival_actual"])):
        if not _close(s + d, a, BALANCE_RTOL):
            checks["load_balance"] = f"slot {t}: served {s} + dropped {d} != arrival {a}"
            break

    checks["cost_sum"] = "ok"
    for t, (g, e, d) in enumerate(zip(cols["cost"], cols["electricity_cost"], cols["delay_cost"])):
        if not _close(g, e + d, COST_RTOL):
            checks["cost_sum"] = f"slot {t}: cost {g} != {e} + {d}"
            break

    ctrl = runner.controller
    queue = list(ctrl.queue_at_decision)
    frame = getattr(ctrl, "effective_frame_length", horizon)
    z = ctrl.queue.rec_per_slot
    checks["deficit_queue"] = "ok" if len(queue) == horizon else (
        f"{len(queue)} queue samples for {horizon} slots"
    )
    for t in range(min(len(queue), horizon)):
        if t % frame == 0:
            expect = 0.0
        else:
            offsite = runner.environment.offsite(t - 1)
            expect = max(
                queue[t - 1] + cols["brown_energy"][t - 1] - (ctrl.alpha * offsite + z),
                0.0,
            )
        if not _close(queue[t], expect, QUEUE_RTOL):
            checks["deficit_queue"] = f"slot {t}: q {queue[t]} != recurrence {expect}"
            break
    return checks


def summarize(clock: Clock, rc: int) -> dict:
    """The child's result: timings, quality, failure counts and checks."""
    runner = clock.runner
    cols = runner.cols
    ctrl = runner.controller
    portfolio = ctrl.portfolio
    cost = float(sum(cols["cost"]))
    brown = float(sum(cols["brown_energy"]))
    policy = runner.policy
    fallbacks = int(policy.stats()["fallbacks"]) if policy is not None else 0
    dropped_slots = sum(1 for d in cols["dropped"] if d > 0.0)
    slots = len(clock.steps)
    cost_bytes = b"".join(float(x).hex().encode() + b"," for x in cols["cost"])
    setup_s = clock.setup_end - clock.entry
    cycles = clock.cycles()
    return {
        "rc": rc,
        "horizon": runner.horizon,
        "slots": slots,
        "setup_s": setup_s,
        "step_s": clock.steps,
        "cycle_s": cycles,
        "setup_ref_s": setup_s * clock.setup_probe.scale(clock.entry, clock.setup_end),
        "step_ref_s": clock.scaled(clock.starts, clock.steps),
        "cycle_ref_s": clock.scaled(clock.starts, cycles),
        "kernel_s": statistics.median(clock.probe.durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cost_usd": cost,
        "budget_use": brown / (ctrl.alpha * (portfolio.offsite.total + portfolio.recs)),
        "fallbacks": fallbacks,
        "dropped_slots": dropped_slots,
        "ops_failed": fallbacks + dropped_slots + (runner.horizon - slots),
        "cost_sha256": hashlib.sha256(cost_bytes).hexdigest(),
        "checks": output_checks(runner, rc, slots),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    cli = import_program()
    patcher = Patcher()
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install()
    clock = Clock()
    clock.install(patcher)

    argv = argv_for(args.workload, args.seed, args.tmp, smoke=args.smoke)
    captured = io.StringIO()
    clock.setup_probe.sample(SETUP_SAMPLES)
    clock.entry = perf()
    with contextlib.redirect_stdout(captured):
        rc = cli.main(argv)
    patcher.restore()
    if tracer is not None:
        tracer.uninstall()
    if clock.runner is None:
        sys.stderr.write(captured.getvalue())
        sys.exit(f"bench child: {args.workload} never started a SlotRunner (rc {rc})")

    result = summarize(clock, rc)
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, clock.runner)
        result["absent"] = tracer.patcher.absent
        tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
