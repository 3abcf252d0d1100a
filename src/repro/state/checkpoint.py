"""An append-only, CRC-framed checkpoint log.

A run checkpoints into one file, ``D/checkpoint.log``.  Each due slot
appends one record of two UTF-8 lines, so the log stays greppable:

.. code-block:: text

    {"crc32": C, "format": "repro-checkpoint", "payload_bytes": N, "slot": K, "version": 2}
    {...canonical JSON payload, exactly N bytes...}

The CRC is computed over ``b"<slot>\\n" + payload``, so a bit flip anywhere
-- in the payload, in the header's slot field, or in the separator -- is
detected: payload flips break the CRC directly, a flipped ``slot`` digit
disagrees with the checksummed one, a flipped ``payload_bytes`` digit
misplaces the record's closing newline, and a mangled header fails to
parse.  A truncated record lacks its closing newline.

A payload holds the run's O(1) state in full.  Its ``series`` entry holds
only the rows each append-only per-slot series gained since the previous
record, as ``{group: {name: {"from": n, "rows": [...]}}}`` where ``n`` is
the number of rows the log already holds.  One write therefore costs O(1)
plus the new rows, and a run's log grows O(T) in total.

:func:`load_checkpoint` folds the records in order: the newest record's
state, with every series concatenated across all of them.  It stops at
the first record that fails validation or does not continue the fold,
reports it as a ``state.checkpoint_rejected`` event, and returns the fold
so far; a crash mid-append costs only the torn record.  A resumed
:class:`CheckpointWriter` cuts the log back to the last good record before
it appends.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass

from ..telemetry import Telemetry, coerce
from .atomic import fsync_dir
from .serialize import canonical_dumps

__all__ = [
    "CHECKPOINT_VERSION",
    "LOG_NAME",
    "Checkpoint",
    "CheckpointError",
    "CheckpointWriter",
    "checkpoint_files",
    "dumps_checkpoint",
    "latest_valid_checkpoint",
    "load_checkpoint",
    "loads_checkpoint",
]

#: Format discriminator in every record header.
CHECKPOINT_MAGIC = "repro-checkpoint"
#: Record schema revision.  Version 1 was a rotation of full snapshots
#: (``ckpt-*.json``), which this build does not read.
CHECKPOINT_VERSION = 2
#: The log's file name inside a checkpoint directory.
LOG_NAME = "checkpoint.log"

_V1_NAME = re.compile(r"^ckpt-\d{8}\.json$")


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, parsed, or validated."""


@dataclass(frozen=True)
class Checkpoint:
    """A validated checkpoint: the slot it resumes *into*, the state, the
    log it came from, and the byte length of that log's valid prefix."""

    slot: int
    state: dict
    path: str | None = None
    end: int = 0


def _crc(slot: int, payload: bytes) -> int:
    return zlib.crc32(f"{slot}\n".encode() + payload) & 0xFFFFFFFF


def dumps_checkpoint(slot: int, state: dict) -> bytes:
    """Serialize ``state`` into one two-line record."""
    if slot < 0:
        raise CheckpointError("checkpoint slot must be non-negative")
    payload = canonical_dumps(state)
    header = canonical_dumps(
        {
            "format": CHECKPOINT_MAGIC,
            "version": CHECKPOINT_VERSION,
            "slot": int(slot),
            "payload_bytes": len(payload),
            "crc32": _crc(slot, payload),
        }
    )
    return header + b"\n" + payload + b"\n"


def _read_record(data: bytes, offset: int, where: str) -> tuple[int, dict, int]:
    """Validate the record at ``offset``: ``(slot, payload, end offset)``."""
    newline = data.find(b"\n", offset)
    if newline < 0:
        raise CheckpointError(f"checkpoint has no header line{where}")
    try:
        header = json.loads(data[offset:newline])
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"checkpoint header is not valid JSON{where}: {exc}")
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_MAGIC:
        raise CheckpointError(f"not a {CHECKPOINT_MAGIC} record{where}")
    version = header.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r}{where} "
            f"(this build reads {CHECKPOINT_VERSION})"
        )
    slot = header.get("slot")
    size = header.get("payload_bytes")
    expected_crc = header.get("crc32")
    if not all(isinstance(v, int) for v in (slot, size, expected_crc)) or size < 0:
        raise CheckpointError(f"checkpoint header fields malformed{where}")
    start = newline + 1
    end = start + size
    if len(data) <= end:
        raise CheckpointError(
            f"checkpoint truncated{where}: header promises {size} "
            f"payload bytes, found {len(data) - start}"
        )
    if data[end] != 0x0A:
        raise CheckpointError(f"checkpoint payload length disagrees with its header{where}")
    payload = data[start:end]
    if _crc(slot, payload) != expected_crc:
        raise CheckpointError(f"checkpoint checksum mismatch{where}")
    try:
        state = json.loads(payload)
    except (ValueError, UnicodeDecodeError) as exc:  # pragma: no cover - CRC guards this
        raise CheckpointError(f"checkpoint payload is not valid JSON{where}: {exc}")
    if not isinstance(state, dict):
        raise CheckpointError(f"checkpoint payload must be a JSON object{where}")
    return slot, state, end + 1


def loads_checkpoint(data: bytes, *, path: str | None = None) -> Checkpoint:
    """Parse and validate exactly one record; raises :class:`CheckpointError`
    on any corruption (truncation, bit flips, wrong format, other version)."""
    where = f" ({path})" if path else ""
    slot, state, end = _read_record(data, 0, where)
    if end != len(data):
        raise CheckpointError(f"trailing bytes after the checkpoint record{where}")
    return Checkpoint(slot=slot, state=state, path=path, end=end)


def _fold(folded: dict | None, record: dict) -> dict:
    """``record`` folded onto the fold so far (None before the first)."""
    held = {} if folded is None else folded["series"]
    try:
        parts = [
            (group, name, int(part["from"]), list(part["rows"]))
            for group, named in record.get("series", {}).items()
            for name, part in named.items()
        ]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint series malformed: {exc!r}")
    for group, name, start, _ in parts:
        have = len(held.get(group, {}).get(name, ()))
        if start != have:
            raise CheckpointError(
                f"checkpoint does not continue the log: series {group}/{name} "
                f"starts at row {start}, the log holds {have}"
            )
    for group, name, _, rows in parts:
        held.setdefault(group, {}).setdefault(name, []).extend(rows)
    return {**record, "series": held}


def load_checkpoint(path: str, *, telemetry: Telemetry | None = None) -> Checkpoint | None:
    """The fold of the checkpoint log at ``path``; None when its first
    record does not validate (or there is no log)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint log {path}: {exc}")
    where = f" ({path})"
    folded, slot, offset = None, 0, 0
    while offset < len(data):
        try:
            record_slot, record, end = _read_record(data, offset, where)
            folded = _fold(folded, record)
        except CheckpointError as exc:
            tele = coerce(telemetry)
            if tele.enabled:
                tele.emit(
                    "state.checkpoint_rejected",
                    path=str(path),
                    offset=offset,
                    error=str(exc),
                )
                tele.metrics.counter("state.checkpoints_rejected").inc()
            break
        slot, offset = record_slot, end
    if folded is None:
        return None
    return Checkpoint(slot=slot, state=folded, path=str(path), end=offset)


def latest_valid_checkpoint(
    directory: str, *, telemetry: Telemetry | None = None
) -> Checkpoint | None:
    """The fold of ``directory``'s checkpoint log (see :func:`load_checkpoint`)."""
    return load_checkpoint(os.path.join(str(directory), LOG_NAME), telemetry=telemetry)


def checkpoint_files(directory: str) -> list[str]:
    """Names of the checkpoint log and any version-1 snapshots
    (``ckpt-*.json``) in ``directory``, sorted."""
    try:
        names = os.listdir(str(directory))
    except OSError:
        return []
    return sorted(n for n in names if n == LOG_NAME or _V1_NAME.match(n))


class CheckpointWriter:
    """Cadenced appends to a directory's checkpoint log.

    Parameters
    ----------
    directory:
        Where the log lives (created on first write).
    every:
        Write cadence in slots: a record lands after each slot ``t``
        with ``(t + 1) % every == 0``.
    sync:
        Fsync each record, and the directory once when the log is created
        (disable only in tests).

    A fresh writer creates the log and refuses one that already exists;
    :meth:`resume` continues an existing one instead.
    """

    def __init__(self, directory: str, *, every: int = 1, sync: bool = True):
        if every < 1:
            raise ValueError("checkpoint cadence `every` must be >= 1")
        self.directory = str(directory)
        self.path = os.path.join(self.directory, LOG_NAME)
        self.every = int(every)
        self.sync = sync
        self.written = 0
        self.telemetry: Telemetry = coerce(None)
        self._created = False

    def bind_telemetry(self, telemetry: Telemetry | None) -> None:
        """Attach the run's telemetry (``state.checkpoint`` events)."""
        self.telemetry = coerce(telemetry)

    def due(self, slot: int) -> bool:
        """Whether a checkpoint is scheduled at resume-slot ``slot``."""
        return slot > 0 and slot % self.every == 0

    def resume(self, checkpoint: Checkpoint) -> bool:
        """Continue the log ``checkpoint`` was folded from, cut back to its
        last good record.  Returns False when the checkpoint came from
        another file: this writer then starts a log of its own, whose first
        record must carry every row."""
        if not (
            checkpoint.path is not None
            and os.path.exists(checkpoint.path)
            and os.path.exists(self.path)
            and os.path.samefile(checkpoint.path, self.path)
        ):
            return False
        fd = os.open(self.path, os.O_WRONLY)
        try:
            os.ftruncate(fd, checkpoint.end)
            if self.sync:
                os.fsync(fd)
        finally:
            os.close(fd)
        self._created = True
        return True

    def write(self, slot: int, state: dict) -> str:
        """Append one record now (regardless of cadence); returns the log path."""
        data = dumps_checkpoint(slot, state)
        flags = os.O_WRONLY | os.O_APPEND
        if not self._created:
            os.makedirs(self.directory, exist_ok=True)
            flags |= os.O_CREAT | os.O_EXCL
        try:
            fd = os.open(self.path, flags, 0o644)
        except FileExistsError:
            raise CheckpointError(f"{self.path} already holds a checkpoint log")
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if self.sync:
                os.fsync(fd)
        finally:
            os.close(fd)
        if not self._created:
            self._created = True
            if self.sync:
                fsync_dir(self.directory)
        self.written += 1
        tele = self.telemetry
        if tele.enabled:
            tele.emit("state.checkpoint", slot=int(slot), path=self.path, bytes=len(data))
            tele.metrics.counter("state.checkpoints").inc()
        return self.path

    def maybe_write(self, slot: int, build_state) -> str | None:
        """Write at the cadence; ``build_state`` is only called when due, so
        off-cadence slots pay nothing for state capture."""
        if not self.due(slot):
            return None
        return self.write(slot, build_state())
