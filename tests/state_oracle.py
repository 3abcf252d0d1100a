"""Full re-encode oracles for the serve loop's incremental state, and
helpers that read checkpoint logs record by record.

:class:`repro.serve.LiveEnvironment` chains its fingerprint CRC frame by
frame, and each checkpoint record holds only the per-slot rows added since
the previous one.  The functions here are the O(t) originals both must
reproduce exactly: a CRC fold over the whole resolved prefix, and the state
a log should fold to, with every series re-encoded whole.
"""

from __future__ import annotations

import json
import os
import re
import zlib

from repro.serve import LiveEnvironment
from repro.state import LOG_NAME, canonical_dumps, decode_array, dumps_checkpoint, load_checkpoint

__all__ = [
    "checkpoint_at",
    "dumps_version_2",
    "full_capture",
    "prefix_fingerprint",
    "record_spans",
    "without_run_id",
]


def prefix_fingerprint(horizon: int, frames) -> int:
    """CRC32 of ``horizon`` and every frame's canonical JSON row, in order."""
    crc = zlib.crc32(str(horizon).encode())
    for f in frames:
        row = json.dumps(f.to_dict(), sort_keys=True, separators=(",", ":"))
        crc = zlib.crc32(row.encode(), crc)
    return crc & 0xFFFFFFFF


def full_capture(runner, record: dict) -> bytes:
    """Canonical JSON of the fold a log should give once ``record`` (a
    :meth:`SlotRunner.capture` result) is appended: its O(1) state, with
    every series re-encoded whole from ``runner`` -- a live feed's
    resolved frames included."""
    series = {
        "cols": _whole(runner.cols),
        "controller": _whole(runner.controller.series()),
    }
    environment = runner.environment
    if isinstance(environment, LiveEnvironment) and environment.base is None:
        series["environment"] = {"frames": [f.to_dict() for f in environment.frames]}
    return canonical_dumps({**record, "series": series})


def _whole(series: dict) -> dict:
    return {name: [float(x) for x in rows] for name, rows in series.items()}


def record_spans(path) -> list[tuple[int, int, int]]:
    """``(slot, start, end)`` of each complete record in a checkpoint log
    (a header line and a payload line each)."""
    with open(path, "rb") as fh:
        data = fh.read()
    spans, start = [], 0
    while True:
        header_end = data.find(b"\n", start)
        end = data.find(b"\n", header_end + 1) + 1 if header_end >= 0 else 0
        if end == 0:
            return spans
        spans.append((json.loads(data[start:header_end])["slot"], start, end))
        start = end


def checkpoint_at(directory, slot: int, scratch):
    """The fold of ``directory``'s log up to its last record at ``slot``,
    read from a copy of that prefix written under ``scratch``."""
    path = os.path.join(str(directory), LOG_NAME)
    end = max(e for s, _, e in record_spans(path) if s == slot)
    os.makedirs(str(scratch), exist_ok=True)
    copy = os.path.join(str(scratch), f"upto-{slot}.log")
    with open(path, "rb") as src, open(copy, "wb") as dst:
        dst.write(src.read(end))
    return load_checkpoint(copy)


def _version_2_arrays(value):
    """``value`` with every array in the version-2 form, one JSON number
    per element (``{"dtype", "data"}``)."""
    if isinstance(value, dict):
        if set(value) == {"dtype", "shape", "zlib"}:
            return {"dtype": value["dtype"], "data": decode_array(value).tolist()}
        return {k: _version_2_arrays(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_version_2_arrays(v) for v in value]
    return value


def dumps_version_2(slot: int, state: dict) -> bytes:
    """The record a version-2 build wrote for ``state`` (a record's state
    as this build reads it): the old array form, version 2 in the header."""
    header, payload = dumps_checkpoint(slot, _version_2_arrays(state)).split(b"\n", 1)
    doc = json.loads(header)
    doc["version"] = 2
    return canonical_dumps(doc) + b"\n" + payload


_RUN_ID = re.compile(rb'"run_id":(null|"[^"]*")')


def without_run_id(payload: bytes) -> bytes:
    """A checkpoint payload with its ``run_id`` value masked out."""
    return _RUN_ID.sub(b'"run_id":_', payload)
