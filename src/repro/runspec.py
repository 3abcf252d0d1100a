"""The run spec: every setting a COCA run's results depend on.

A :class:`RunSpec` holds the scenario, the controller stack (V and P3
engine), the fault schedule, the degradation policy and the
checkpoint cadence of one run.  ``repro profile``, ``chaos``, ``run``,
``resume`` and ``serve`` all build their stack through
:meth:`RunSpec.build`, so a resumed run sits on the same deterministic
foundation as the run that wrote the checkpoint.  This module is also the
only reader and writer of the run manifest (``manifest.json``), whose keys
are exactly the spec's fields.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .faults import FaultSchedule

__all__ = ["MANIFEST_NAME", "RunSpec"]

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


@dataclass(frozen=True)
class RunSpec:
    """One run's settings; field names are the manifest's keys.

    ``schedule`` is a :class:`~repro.faults.FaultSchedule` or None
    (fault-free); ``serve`` the feed identity of a ``repro serve`` run
    (source, feed, source_seed, synthetic, signal_timeout_s), None for
    batch runs.
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

        ``run`` and ``chaos`` seed the stochastic solvers from
        ``--fault-seed`` (one integer fixes the whole run); ``serve`` and
        ``profile`` from ``--solver-seed``.  ``chaos --distributed`` means
        the distributed solver.  Flags a command lacks keep the defaults.
        """
        fields = {
            name: getattr(args, name)
            for name in _SCENARIO_KEYS + _RUN_KEYS + ("checkpoint_every",)
            if hasattr(args, name)
        }
        command = getattr(args, "command", None)
        if command in ("run", "chaos"):
            fields["solver_seed"] = args.fault_seed
        if command == "chaos":
            fields["solver"] = "distributed" if args.distributed else "auto"
        if command == "serve":
            fields["serve"] = {
                "source": args.source,
                "feed": args.feed,
                "source_seed": args.source_seed,
                "synthetic": {
                    name: getattr(args, name)
                    for name in ("p_drop", "p_late", "p_field_loss", "p_swap")
                },
                "signal_timeout_s": args.signal_timeout_s,
            }
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
        """The manifest dict.  Batch runs carry no ``serve`` key; serve
        runs always carry it, so a batch ``repro resume`` of a serve
        directory rebuilds the same stack."""
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
