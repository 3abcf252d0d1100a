"""Exact JSON round-trips for checkpointed run state.

A checkpoint must restore a run *bit-identically*, so every encoder here is
lossless:

- floats survive because ``json.dumps`` emits ``repr(float)``, the shortest
  decimal that parses back to the same IEEE-754 double;
- numpy arrays carry their dtype string so ``float64``/``int64`` content
  reconstructs exactly;
- RNG state is the bit generator's own state dict (plain ints and strings;
  Python's JSON handles the 128-bit PCG64 words natively).

:func:`canonical_dumps` is the byte-level normal form the checkpoint CRC is
computed over: sorted keys, no whitespace, ``allow_nan=False`` (a NaN in
run state is a bug upstream, not something to round-trip -- telemetry
sanitizes non-finite values to ``null`` at its own boundary).  Because the
form is canonical, save -> load -> save is byte-identical, which is what
the hypothesis suite in ``tests/test_state.py`` pins.

A run's record columns grow by one row per slot, so re-encoding them at
every checkpoint would make snapshots O(t).  :class:`EncodedColumns` keeps
their canonical text and converts only the rows appended since the last
snapshot; it hands the text to :func:`canonical_dumps` as :class:`Encoded`
fragments, which are spliced in verbatim.  The bytes are the same as
encoding the plain lists.
"""

from __future__ import annotations

import json
import zlib
from typing import Any

import numpy as np

from ..cluster.fleet import FleetAction

__all__ = [
    "Encoded",
    "EncodedColumns",
    "canonical_dumps",
    "decode_action",
    "decode_array",
    "decode_rng",
    "encode_action",
    "encode_array",
    "encode_rng",
    "environment_fingerprint",
    "float_list_text",
    "trace_fingerprint",
]


def _plain(value: Any):
    """Normalize numpy scalars/arrays to native JSON types (exactly)."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(
        f"state value of type {type(value).__name__} is not JSON-serializable"
    )


_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False, default=_plain
)


class Encoded:
    """Canonical JSON text that :func:`canonical_dumps` splices in verbatim.

    Valid as the whole value or as a dict value at any depth; anywhere
    else (inside a list, or in any other encoder) it is not serializable.
    The producer guarantees the text is canonical.
    """

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


def canonical_dumps(value: Any) -> bytes:
    """The canonical (sorted, compact, strict) JSON bytes of ``value``;
    :class:`Encoded` values are spliced in as they are."""
    return _canonical(value).encode("utf-8")


def _canonical(value: Any) -> str:
    # Only dicts that hold Encoded values are walked here; every other
    # value goes to the C encoder whole, which emits the same text for a
    # string-keyed dict as this sorted join does.
    if isinstance(value, Encoded):
        return value.text
    if _holds_encoded(value) and all(isinstance(k, str) for k in value):
        return "{%s}" % ",".join(
            f"{_ENCODER.encode(k)}:{_canonical(v)}"
            for k, v in sorted(value.items(), key=lambda kv: kv[0])
        )
    return _ENCODER.encode(value)


def _holds_encoded(value: Any) -> bool:
    return isinstance(value, dict) and any(
        isinstance(v, Encoded) or _holds_encoded(v) for v in value.values()
    )


def float_list_text(values) -> str:
    """Canonical JSON of ``values`` as floats, comma-joined, no brackets.

    Raises ``ValueError`` on NaN or infinity, as ``allow_nan=False`` does.
    """
    text = ",".join(map(float.__repr__, map(float, values)))
    # A finite float's repr never holds an "n"; nan, inf and -inf do.
    if "n" in text:
        raise ValueError("Out of range float values are not JSON compliant")
    return text


class EncodedColumns:
    """Canonical JSON of append-only float columns, encoded incrementally.

    :meth:`encode` converts only the rows appended to each column since
    the previous call, so snapshotting a growing record costs O(new rows)
    of float-to-text work however long the record already is.
    """

    def __init__(self) -> None:
        self._text: dict[str, str] = {}
        self._rows: dict[str, int] = {}

    def reset(self) -> None:
        """Forget all encoded rows; the next :meth:`encode` starts over
        (call it whenever the columns are replaced rather than appended to)."""
        self._text.clear()
        self._rows.clear()

    def encode(self, cols) -> dict[str, Encoded]:
        """``{name: Encoded}`` for a mapping of column name to float list."""
        out = {}
        for name, values in cols.items():
            done = self._rows.get(name, 0)
            text = self._text.get(name, "")
            if len(values) > done:
                new = float_list_text(values[done:])
                text = f"{text},{new}" if text else new
                self._text[name] = text
                self._rows[name] = len(values)
            out[name] = Encoded(f"[{text}]")
        return out


# ---------------------------------------------------------------- arrays
def encode_array(arr: np.ndarray | None) -> dict | None:
    """Lossless JSON form of an array (``None`` passes through)."""
    if arr is None:
        return None
    arr = np.asarray(arr)
    return {"dtype": arr.dtype.str, "data": arr.tolist()}


def decode_array(obj: dict | None) -> np.ndarray | None:
    """Inverse of :func:`encode_array`."""
    if obj is None:
        return None
    return np.asarray(obj["data"], dtype=np.dtype(obj["dtype"]))


def encode_action(action: FleetAction | None) -> dict | None:
    """Lossless JSON form of a fleet action (levels + per-server loads)."""
    if action is None:
        return None
    return {
        "levels": encode_array(action.levels),
        "per_server_load": encode_array(action.per_server_load),
    }


def decode_action(obj: dict | None) -> FleetAction | None:
    """Inverse of :func:`encode_action`."""
    if obj is None:
        return None
    return FleetAction(
        levels=decode_array(obj["levels"]),
        per_server_load=decode_array(obj["per_server_load"]),
    )


# ---------------------------------------------------------------- RNG state
def encode_rng(rng: np.random.Generator) -> dict:
    """The generator's full bit-generator state (JSON-safe as-is)."""
    return rng.bit_generator.state


def decode_rng(state: dict) -> np.random.Generator:
    """A fresh generator positioned exactly at ``state``."""
    cls = getattr(np.random, str(state["bit_generator"]))
    bit_generator = cls()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


# ---------------------------------------------------------------- fingerprint
def environment_fingerprint(environment) -> int:
    """CRC32 over the environment's input traces.

    A checkpoint is only meaningful against the exact environment that
    produced it (same workload, prices, renewables, horizon); resuming
    against anything else would *silently* break the bit-identity contract.
    The fingerprint is cheap (one pass over four float64 arrays) and
    rebuilt deterministically from the scenario arguments, so a resume can
    refuse a mismatched world up front.

    Environments that know their own identity better than their trace
    arrays do -- e.g. :class:`repro.serve.LiveEnvironment`, whose "traces"
    are a growing prefix of resolved feed frames -- expose a
    ``fingerprint()`` method, which wins over the generic trace walk.  The
    batch :class:`~repro.sim.environment.Environment` has one too: its
    trace arrays are read-only, so it walks them once per instance.
    """
    fingerprint = getattr(environment, "fingerprint", None)
    if callable(fingerprint):
        return int(fingerprint())
    return trace_fingerprint(environment)


def trace_fingerprint(environment) -> int:
    """The generic trace walk behind :func:`environment_fingerprint`."""
    crc = zlib.crc32(str(environment.horizon).encode())
    for values in (
        environment.workload.values,
        environment.price.values,
        environment.portfolio.onsite.values,
        environment.portfolio.offsite.values,
    ):
        crc = zlib.crc32(np.ascontiguousarray(values, dtype=np.float64).tobytes(), crc)
    return crc & 0xFFFFFFFF
