"""Atomic, durable file writes (write temp + fsync + rename).

POSIX ``rename(2)`` within one filesystem is atomic: readers observe either
the old file or the complete new one, never a prefix.  Combined with an
``fsync`` of the data before the rename (so the content is on disk when the
name flips) and an ``fsync`` of the containing directory after (so the
rename itself survives a power cut), this is the standard recipe for files
that must never be seen torn -- run manifests, fault schedules, metrics
snapshots, finished traces.

Two shapes are provided:

- :func:`atomic_write_bytes` / :func:`atomic_write_text` -- one-shot
  replacement of a whole file (run manifests, ``--schedule-out``);
- :func:`commit_file` -- finalize a file handle that *streamed* into a
  temporary path (the JSONL tracer writes ``<path>.part`` during the run
  and commits it into place on close, so a crash leaves the readable
  ``.part`` prefix for forensics and never a torn final file).
"""

from __future__ import annotations

import os
import tempfile
from typing import IO

__all__ = ["atomic_write_bytes", "atomic_write_text", "commit_file", "fsync_dir"]


def fsync_dir(path: str) -> None:
    """Best-effort fsync of the directory containing ``path``.

    Durability of a rename requires syncing the directory entry; some
    filesystems (and most CI containers) refuse ``open(dir)`` or
    ``fsync`` on directories, which is fine -- atomicity does not depend
    on it, only power-cut durability does.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def commit_file(fh: IO, final_path: str, *, sync: bool = True) -> None:
    """Flush, fsync, close ``fh`` and atomically rename it to ``final_path``.

    ``fh`` must be an open handle whose ``name`` is a real path on the same
    filesystem as ``final_path`` (a sibling temp file).  After this returns
    the target exists with the complete content; the temp name is gone.
    """
    fh.flush()
    if sync:
        os.fsync(fh.fileno())
    fh.close()
    os.replace(fh.name, final_path)
    if sync:
        fsync_dir(final_path)


def atomic_write_bytes(path: str, data: bytes, *, sync: bool = True) -> None:
    """Atomically replace ``path`` with ``data``.

    The temp file lives in the target's directory (same filesystem, so the
    rename is atomic) with a unique name (safe under concurrent writers,
    e.g. parallel sweeps checkpointing side by side).  On any error the
    temp file is removed and the original ``path`` is left untouched.
    """
    path = str(path)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix="." + os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            if sync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if sync:
        fsync_dir(path)


def atomic_write_text(path: str, text: str, *, sync: bool = True) -> None:
    """Atomically replace ``path`` with UTF-8 encoded ``text``."""
    atomic_write_bytes(path, text.encode("utf-8"), sync=sync)
