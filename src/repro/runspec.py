"""The run spec: every setting a COCA run's results depend on.

A :class:`RunSpec` holds the scenario, the controller stack (V and P3
engine), the fault schedule, the degradation policy, the signal feed and
the checkpoint cadence of one run.  ``repro run`` and ``repro resume``
build their stack through :meth:`RunSpec.build`, so a resumed run sits
on the same deterministic foundation as the run that wrote the
checkpoint.  This module is also the only reader and writer of the run
manifest (``manifest.json``), whose keys are exactly the spec's fields.

:class:`ServeConfig` holds the rest of a run's settings (the feed, the
pacing, the status port, the dashboard, the checkpoint directory), which
change how a run is watched and paced but not its results, and checks
them all at startup (``repro run --dry-run``).
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .faults import FaultSchedule

__all__ = ["MANIFEST_NAME", "RunSpec", "ServeConfig", "SOURCE_KINDS"]

#: Manifest file a checkpointed run writes next to its checkpoints.
MANIFEST_NAME = "manifest.json"
_MANIFEST_FORMAT = "repro-run-manifest"

SOLVERS = ("auto", "gsd", "distributed")
FALLBACKS = ("last_action", "proportional")
_SCENARIO_KEYS = ("scale", "horizon", "workload", "seed", "budget_fraction")
_RUN_KEYS = (
    "v", "solver", "iterations", "solver_seed", "fallback", "retries",
    "solve_deadline_ms",
)
#: Signal-source kinds ``repro run --source`` accepts.
SOURCE_KINDS = ("replay", "file", "synthetic")
_SYNTHETIC_KEYS = ("p_drop", "p_late", "p_field_loss", "p_swap")
_FEED_KEYS = ("source", "feed", "source_seed", "synthetic", "signal_timeout_s")


def feed_of(args) -> dict:
    """The feed identity a command line asks for: the keys of a manifest's
    ``serve`` block, which a resume takes from the manifest instead."""
    return {
        "source": args.source,
        "feed": args.feed,
        "source_seed": args.source_seed,
        "synthetic": {name: getattr(args, name) for name in _SYNTHETIC_KEYS},
        "signal_timeout_s": args.signal_timeout_s,
    }


@dataclass(frozen=True)
class RunSpec:
    """One run's settings; field names are the manifest's keys.

    ``schedule`` is a :class:`~repro.faults.FaultSchedule` or None
    (fault-free); ``serve`` the feed identity of a run over a live feed
    (source, feed, source_seed, synthetic, signal_timeout_s), None for a
    replay of the scenario traces.  Manifests written by the removed
    ``repro serve --source replay`` carry a replay ``serve`` block, which
    resumes as a replay.
    """

    scale: str = "small"
    horizon: int | None = None
    workload: str = "fiu"
    seed: int | None = None
    budget_fraction: float = 0.92
    v: float = 150.0
    solver: str = "auto"
    iterations: int = 200
    solver_seed: int = 7
    fallback: str = "last_action"
    retries: int = 1
    solve_deadline_ms: float | None = None
    schedule: FaultSchedule | None = None
    checkpoint_every: int = 1
    serve: dict | None = None

    # ------------------------------------------------------------ sources
    @classmethod
    def from_args(cls, args) -> "RunSpec":
        """The spec a parsed command line asks for.

        ``--fault-seed`` seeds the stochastic solvers too, so one integer
        fixes the whole run.  Flags a command lacks keep the defaults.
        """
        fields = {
            name: getattr(args, name)
            for name in _SCENARIO_KEYS + _RUN_KEYS + ("checkpoint_every",)
            if hasattr(args, name)
        }
        if hasattr(args, "fault_seed"):
            fields["solver_seed"] = args.fault_seed
        if getattr(args, "source", "replay") != "replay":
            fields["serve"] = feed_of(args)
        return cls(**fields)

    @classmethod
    def from_manifest(cls, manifest: dict) -> "RunSpec":
        """Inverse of :meth:`to_manifest`; refuses foreign files and
        manifests of the removed process-sharded solver and advice layer
        (ValueError).  Serve manifests of older versions carry
        ``"advice": null``, and older manifests a rotation depth
        (``checkpoint.keep``); both are accepted and dropped."""
        if manifest.get("format") != _MANIFEST_FORMAT:
            raise ValueError(f"not a {_MANIFEST_FORMAT} file")
        run = manifest["run"]
        if run.get("shards"):
            # Resuming on the single-process chain would silently diverge
            # from the run that wrote the checkpoint.
            raise ValueError("written with --shards, which was removed; start a new run")
        if run.get("advice") is not None:
            raise ValueError("written with --advice, which was removed; start a new run")
        schedule = manifest.get("schedule")
        if schedule is not None:
            from .faults import FaultSchedule

            schedule = FaultSchedule.from_dict(schedule)
        scenario = manifest["scenario"]
        return cls(
            **{key: scenario[key] for key in _SCENARIO_KEYS},
            **{key: run[key] for key in _RUN_KEYS if key in run},
            schedule=schedule,
            checkpoint_every=manifest["checkpoint"]["every"],
            serve=manifest.get("serve"),
        )

    @classmethod
    def load(cls, checkpoint_dir: str) -> "RunSpec":
        """The spec of the manifest in ``checkpoint_dir`` (OSError,
        ValueError, KeyError or TypeError when it cannot be read)."""
        with open(os.path.join(checkpoint_dir, MANIFEST_NAME)) as fh:
            return cls.from_manifest(json.load(fh))

    # ------------------------------------------------------------- manifest
    def to_manifest(self) -> dict:
        """The manifest dict.  A run over a live feed carries its feed
        identity under ``serve``; a replay carries no such key."""
        run = {key: getattr(self, key) for key in _RUN_KEYS}
        manifest = {
            "format": _MANIFEST_FORMAT,
            "version": 1,
            "scenario": {key: getattr(self, key) for key in _SCENARIO_KEYS},
            "run": run,
            "schedule": None if self.schedule is None else self.schedule.to_dict(),
            "checkpoint": {"every": self.checkpoint_every},
        }
        if self.serve is not None:
            manifest["serve"] = self.serve
        return manifest

    def save(self, checkpoint_dir: str) -> None:
        """Write the manifest into ``checkpoint_dir`` atomically."""
        from .state import atomic_write_text

        atomic_write_text(
            os.path.join(checkpoint_dir, MANIFEST_NAME),
            json.dumps(self.to_manifest(), indent=2, sort_keys=True) + "\n",
        )

    # ------------------------------------------------------------- validate
    def problems(self) -> list[str]:
        """Every invalid run-level setting, as printable one-liners.

        Checks the fields alone; no scenario is built.
        """
        out: list[str] = []
        if self.horizon is not None and self.horizon < 1:
            out.append(f"--horizon must be >= 1, got {self.horizon}")
        if self.solver not in SOLVERS:
            out.append(f"unknown solver {self.solver!r} (choose from {', '.join(SOLVERS)})")
        elif self.solver != "auto" and self.iterations < 1:
            out.append(
                f"--iterations must be >= 1 with the {self.solver} solver, "
                f"got {self.iterations}"
            )
        if self.fallback not in FALLBACKS:
            out.append(f"--fallback must be one of {', '.join(FALLBACKS)}, got {self.fallback!r}")
        if self.retries < 0:
            out.append(f"--retries must be >= 0, got {self.retries}")
        if self.solve_deadline_ms is not None and self.solve_deadline_ms <= 0:
            out.append(f"--solve-deadline-ms must be > 0, got {self.solve_deadline_ms}")
        if self.checkpoint_every < 1:
            out.append(f"--checkpoint-every must be >= 1, got {self.checkpoint_every}")
        return out

    # ---------------------------------------------------------------- build
    def scenario(self):
        """Build the scenario (the expensive part of setup)."""
        from .scenarios import paper_scenario, small_scenario

        kwargs: dict = {"workload": self.workload, "budget_fraction": self.budget_fraction}
        if self.seed is not None:
            kwargs["seed"] = int(self.seed)
        if self.horizon is not None:
            kwargs["horizon"] = int(self.horizon)
        builder = paper_scenario if self.scale == "paper" else small_scenario
        return builder(**kwargs)

    def build(self, scenario=None):
        """``(scenario, controller, injector, policy)`` for this run.

        ``scenario`` reuses an already built scenario.  ``injector`` and
        ``policy`` are None for fault-free runs.  The P3 engine is a GSD
        chain (``gsd``/``distributed``) of ``iterations`` steps per solve
        seeded with ``solver_seed``, or COCA's own choice for ``auto``
        (exact enumeration or coordinate descent).
        """
        import numpy as np

        from .core.coca import COCA
        from .solvers import DistributedGSD, GSDSolver

        if scenario is None:
            scenario = self.scenario()
        engine = {"gsd": GSDSolver, "distributed": DistributedGSD}.get(self.solver)
        solver = None
        if engine is not None:
            solver = engine(
                iterations=int(self.iterations),
                rng=np.random.default_rng(int(self.solver_seed)),
            )
        controller = COCA(
            scenario.model,
            scenario.environment.portfolio,
            v_schedule=float(self.v),
            alpha=scenario.alpha,
            solver=solver,
        )
        injector = policy = None
        if self.schedule is not None:
            from .faults import DegradationPolicy, FaultInjector

            injector = FaultInjector(self.schedule, num_groups=scenario.model.fleet.num_groups)
            policy = DegradationPolicy(mode=self.fallback, retries=int(self.retries))
        return scenario, controller, injector, policy


@dataclass
class ServeConfig:
    """A run's settings beyond its spec: the feed, as :func:`feed_of`
    reads it, and the operational knobs, which leave results unchanged."""

    source: str = "replay"
    feed: str | None = None  # JSONL feed path (file source)
    slot_period_s: float = 0.0  # wall-clock pacing; 0 = free-running
    signal_timeout_s: float = 0.0  # staleness budget per slot; 0 = one poll
    poll_interval_s: float = 0.05
    checkpoint_dir: str | None = None
    status_port: int | None = None  # None = endpoint disabled; 0 = ephemeral
    status_port_file: str | None = None
    dashboard_out: str | None = None
    dashboard_every: int = 0  # slots between re-renders; 0 = disabled
    alert_rearm: int | None = None  # AlertChannel dedup window, in slots
    max_slots: int | None = None  # stop early after N slots (smoke tests)
    source_seed: int = 0  # synthetic-source delivery seed
    synthetic: dict = dataclasses.field(default_factory=dict)  # p_drop/p_late/... overrides

    @classmethod
    def from_args(cls, args, feed: dict) -> "ServeConfig":
        """The config of a command line: the feed identity ``feed`` (a
        manifest's ``serve`` block, or :func:`feed_of` the flags), every
        other field from its same-named flag."""
        names = [f.name for f in dataclasses.fields(cls) if f.name not in _FEED_KEYS]
        return cls(**feed, **{name: getattr(args, name) for name in names})

    def problems(self) -> list[str]:
        """Every detectable misconfiguration, as printable one-liners, so
        a run fails at startup, completely, rather than hours in."""
        out: list[str] = []
        if self.source not in SOURCE_KINDS:
            out.append(
                f"unknown source {self.source!r} (choose from {', '.join(SOURCE_KINDS)})"
            )
        if self.source == "file":
            if not self.feed:
                out.append("--source file requires --feed FILE")
            elif not os.path.exists(self.feed):
                out.append(f"feed file not found: {self.feed}")
            elif not os.access(self.feed, os.R_OK):
                out.append(f"feed file not readable: {self.feed}")
        elif self.feed:
            out.append(f"--feed only applies to --source file (source is {self.source})")
        if self.slot_period_s < 0:
            out.append(f"--slot-period-s must be >= 0, got {self.slot_period_s}")
        if self.signal_timeout_s < 0:
            out.append(f"--signal-timeout-s must be >= 0, got {self.signal_timeout_s}")
        if self.poll_interval_s <= 0:
            out.append(f"--poll-interval-s must be > 0, got {self.poll_interval_s}")
        if self.checkpoint_dir is not None:
            parent = os.path.dirname(os.path.abspath(self.checkpoint_dir))
            if os.path.exists(self.checkpoint_dir):
                if not os.path.isdir(self.checkpoint_dir):
                    out.append(f"checkpoint dir is not a directory: {self.checkpoint_dir}")
                elif not os.access(self.checkpoint_dir, os.W_OK):
                    out.append(f"checkpoint dir not writable: {self.checkpoint_dir}")
            elif not os.path.isdir(parent) or not os.access(parent, os.W_OK):
                out.append(
                    f"cannot create checkpoint dir {self.checkpoint_dir} "
                    f"(parent {parent} missing or unwritable)"
                )
        if self.status_port is not None and not (0 <= self.status_port <= 65535):
            out.append(f"--status-port must be in [0, 65535], got {self.status_port}")
        if self.status_port_file and self.status_port is None:
            out.append("--status-port-file requires --status-port")
        if self.dashboard_every < 0:
            out.append(f"--dashboard-every must be >= 0, got {self.dashboard_every}")
        if self.dashboard_every > 0 and not self.dashboard_out:
            out.append("--dashboard-every requires --dashboard-out FILE")
        if self.alert_rearm is not None and self.alert_rearm < 1:
            out.append(f"--alert-rearm must be >= 1 slot, got {self.alert_rearm}")
        if self.max_slots is not None and self.max_slots < 1:
            out.append(f"--max-slots must be >= 1, got {self.max_slots}")
        for name, p in self.synthetic.items():
            if not 0.0 <= float(p) <= 1.0:
                out.append(f"synthetic probability {name} must be in [0, 1], got {p}")
        return out

    def describe(self) -> str:
        """One-line summary for ``--dry-run``."""
        bits = [f"source={self.source}"]
        if self.feed:
            bits.append(f"feed={self.feed}")
        bits.append(f"slot_period={self.slot_period_s:g}s")
        if self.signal_timeout_s:
            bits.append(f"signal_timeout={self.signal_timeout_s:g}s")
        if self.checkpoint_dir:
            bits.append(f"checkpoints={self.checkpoint_dir}")
        if self.status_port is not None:
            bits.append(f"status_port={self.status_port}")
        if self.dashboard_every:
            bits.append(f"dashboard={self.dashboard_out} every {self.dashboard_every}")
        if self.alert_rearm is not None:
            bits.append(f"alert_rearm={self.alert_rearm}")
        if self.max_slots is not None:
            bits.append(f"max_slots={self.max_slots}")
        return " ".join(bits)
