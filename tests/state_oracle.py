"""Full re-encode oracles for the serve loop's incremental state.

:class:`repro.serve.LiveEnvironment` chains its fingerprint CRC frame by
frame, and :meth:`repro.sim.engine.SlotRunner.capture` encodes only the
record rows added since its previous capture.  The functions here are the
O(t) originals both must reproduce exactly: a CRC fold over the whole
resolved prefix, and a capture whose columns are plain float lists.
"""

from __future__ import annotations

import json
import re
import zlib

__all__ = ["plain_capture", "prefix_fingerprint", "without_run_id"]


def prefix_fingerprint(horizon: int, frames) -> int:
    """CRC32 of ``horizon`` and every frame's canonical JSON row, in order."""
    crc = zlib.crc32(str(horizon).encode())
    for f in frames:
        row = json.dumps(f.to_dict(), sort_keys=True, separators=(",", ":"))
        crc = zlib.crc32(row.encode(), crc)
    return crc & 0xFFFFFFFF


def plain_capture(runner, slot: int) -> dict:
    """``runner.capture(slot)`` with the record columns as float lists."""
    state = runner.capture(slot)
    state["cols"] = {k: [float(x) for x in v] for k, v in runner.cols.items()}
    return state


_RUN_ID = re.compile(rb'"run_id":(null|"[^"]*")')


def without_run_id(payload: bytes) -> bytes:
    """A checkpoint payload with its ``run_id`` value masked out."""
    return _RUN_ID.sub(b'"run_id":_', payload)
