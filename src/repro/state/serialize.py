"""Exact JSON round-trips for checkpointed run state.

A checkpoint must restore a run *bit-identically*, so every encoder here is
lossless:

- floats survive because ``json.dumps`` emits ``repr(float)``, the shortest
  decimal that parses back to the same IEEE-754 double;
- numpy arrays carry their dtype string (byte order included) and shape
  beside the base64 of their zlib-compressed raw bytes, so ``float64`` /
  ``int64`` content reconstructs bit for bit, and an array costs one short
  string instead of one float-to-text conversion per element;
- RNG state is the bit generator's own state dict (plain ints and strings;
  Python's JSON handles the 128-bit PCG64 words natively).

:func:`canonical_dumps` is the byte-level normal form the checkpoint CRC is
computed over: sorted keys, no whitespace, ``allow_nan=False`` (a NaN in
run state is a bug upstream, not something to round-trip -- telemetry
sanitizes non-finite values to ``null`` at its own boundary).  Because the
form is canonical, save -> load -> save is byte-identical, which is what
the hypothesis suite in ``tests/test_state.py`` pins.
"""

from __future__ import annotations

import binascii
import functools
import json
import zlib
from typing import Any

import numpy as np

__all__ = [
    "canonical_dumps",
    "decode_array",
    "decode_rng",
    "encode_array",
    "encode_rng",
    "environment_fingerprint",
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


# No circular-reference bookkeeping: run state is a tree, and a cycle would
# still fail loudly (RecursionError) instead of writing a record.
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False, default=_plain,
    check_circular=False,
)


def canonical_dumps(value: Any) -> bytes:
    """The canonical (sorted, compact, strict) JSON bytes of ``value``."""
    return _ENCODER.encode(value).encode("utf-8")


# ---------------------------------------------------------------- arrays
#: zlib level of the array form.  Fixed, so one array always encodes to the
#: same bytes (a record's CRC and a capture's "did it change" compare both
#: rest on that); 1 is the fastest level, and run state (on-counts, speed
#: levels) repeats enough that it compresses about as well as any.
ARRAY_ZLIB_LEVEL = 1


@functools.lru_cache(maxsize=8)
def _packed(raw: bytes) -> str:
    """base64 of ``raw`` zlib-compressed.  Cached: a capture packs the same
    on-set twice (the controller's copy and the runner's), and run state
    often repeats from one slot to the next."""
    packed = zlib.compress(raw, ARRAY_ZLIB_LEVEL)
    return binascii.b2a_base64(packed, newline=False).decode("ascii")


def encode_array(arr: np.ndarray | None) -> dict | None:
    """Lossless JSON form of an array (``None`` passes through):
    ``{"dtype", "shape", "zlib"}``, the last the base64 of the
    zlib-compressed raw bytes.

    Like :func:`canonical_dumps`, it refuses NaN and +/-inf (``ValueError``)
    and objects (``TypeError``).
    """
    if arr is None:
        return None
    arr = np.asarray(arr)
    if arr.dtype.hasobject:
        raise TypeError("state arrays of dtype object are not serializable")
    if arr.dtype.kind in "fc" and not np.isfinite(arr).all():
        raise ValueError("Out of range float values are not JSON compliant")
    return {"dtype": arr.dtype.str, "shape": list(arr.shape), "zlib": _packed(arr.tobytes())}


def decode_array(obj: dict | None) -> np.ndarray | None:
    """Inverse of :func:`encode_array`; also reads the form of version-2
    checkpoint records, ``{"dtype", "data"}`` with one JSON number per
    element."""
    if obj is None:
        return None
    dtype = np.dtype(obj["dtype"])
    if "data" in obj:
        return np.asarray(obj["data"], dtype=dtype)
    raw = zlib.decompress(binascii.a2b_base64(obj["zlib"]))
    return np.frombuffer(raw, dtype=dtype).reshape(obj["shape"]).copy()


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
