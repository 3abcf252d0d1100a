"""Trace persistence: NPZ bundles and CSV interchange.

Experiments that take minutes to calibrate (paper-scale scenarios) want
their traces saved once and reloaded; users with *real* trace data (their
own workload logs, utility price feeds) need a way in.  NPZ bundles keep
name/unit metadata and round-trip exactly; CSV is the lowest-common-
denominator import/export (one header line ``name,unit`` comment, one value
per row).
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from .base import Trace

__all__ = [
    "save_traces",
    "load_traces",
    "trace_to_csv",
    "trace_from_csv",
    "append_jsonl_rows",
]


def save_traces(path: str | pathlib.Path, **traces: Trace) -> None:
    """Save named traces to one ``.npz`` bundle (values + metadata)."""
    if not traces:
        raise ValueError("nothing to save")
    payload: dict[str, np.ndarray] = {}
    for key, trace in traces.items():
        payload[f"{key}__values"] = trace.values
        payload[f"{key}__meta"] = np.array([trace.name, trace.unit])
    np.savez_compressed(path, **payload)


def load_traces(path: str | pathlib.Path) -> dict[str, Trace]:
    """Load a bundle written by :func:`save_traces`."""
    with np.load(path, allow_pickle=False) as data:
        keys = sorted(
            k[: -len("__values")] for k in data.files if k.endswith("__values")
        )
        if not keys:
            raise ValueError(f"{path} contains no traces")
        out = {}
        for key in keys:
            meta = data[f"{key}__meta"]
            out[key] = Trace(
                data[f"{key}__values"], name=str(meta[0]), unit=str(meta[1])
            )
        return out


def append_jsonl_rows(
    path: str | pathlib.Path, rows: list[dict], *, truncate: bool = False
) -> None:
    """Append ``rows`` to a JSONL file, one object per line, flushed.

    The producer side of a live signal feed (``repro serve --source
    file``): each row lands as one complete line, so a tailing consumer
    never parses a torn record.  ``truncate`` starts the file over.
    """
    path = pathlib.Path(path)
    with path.open("w" if truncate else "a") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True))
            fh.write("\n")
        fh.flush()


def trace_to_csv(trace: Trace, path: str | pathlib.Path) -> None:
    """Write one trace as CSV: a ``# name,unit`` comment then one value per
    line with its slot index."""
    path = pathlib.Path(path)
    with path.open("w") as fh:
        fh.write(f"# {trace.name},{trace.unit}\n")
        fh.write("slot,value\n")
        for t, v in enumerate(trace.values):
            fh.write(f"{t},{float(v)!r}\n")


def trace_from_csv(path: str | pathlib.Path) -> Trace:
    """Read a trace written by :func:`trace_to_csv` (or any two-column
    ``slot,value`` CSV; a leading ``# name,unit`` comment is honored)."""
    path = pathlib.Path(path)
    name, unit = path.stem, ""
    values: list[float] = []
    with path.open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].strip().split(",", 1)
                name = parts[0].strip() or name
                if len(parts) > 1:
                    unit = parts[1].strip()
                continue
            if line.lower().startswith("slot"):
                continue
            _, value = line.split(",", 1)
            values.append(float(value))
    if not values:
        raise ValueError(f"{path} contains no data rows")
    return Trace(np.asarray(values), name=name, unit=unit)
