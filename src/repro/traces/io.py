"""Trace I/O: the JSONL row writer behind a live signal feed file."""

from __future__ import annotations

import json
import pathlib

__all__ = ["append_jsonl_rows"]


def append_jsonl_rows(
    path: str | pathlib.Path, rows: list[dict], *, truncate: bool = False
) -> None:
    """Append ``rows`` to a JSONL file, one object per line, flushed.

    The producer side of a live signal feed (``repro run --source
    file``): each row lands as one complete line, so a tailing consumer
    never parses a torn record.  ``truncate`` starts the file over.
    """
    path = pathlib.Path(path)
    with path.open("w" if truncate else "a") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True))
            fh.write("\n")
        fh.flush()
