"""Service configuration and its validation (``repro serve --dry-run``).

A long-running service should fail at *startup*, loudly and completely,
rather than hours in: :meth:`ServeConfig.problems` collects every
misconfiguration it can detect statically -- unknown source kind, a file
source with no readable feed, nonsensical periods and ports, an
unwritable checkpoint directory -- and returns them all at once.  The
run-level settings (solver, fallback, retries, solve deadline, checkpoint
cadence) belong to :class:`~repro.runspec.RunSpec`, whose
``problems()`` ``--dry-run`` prints alongside, before exiting 0 (clean)
or 1 (problems).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

__all__ = ["ServeConfig", "SOURCE_KINDS"]

#: Signal-source kinds ``repro serve --source`` accepts.
SOURCE_KINDS = ("replay", "file", "synthetic")


@dataclass
class ServeConfig:
    """Everything ``repro serve`` needs beyond its run spec."""

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
    synthetic: dict = field(default_factory=dict)  # p_drop/p_late/... overrides

    # ------------------------------------------------------------------
    def problems(self) -> list[str]:
        """Every detectable misconfiguration, as printable one-liners."""
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
        """One-line summary for startup logs and ``--dry-run``."""
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
