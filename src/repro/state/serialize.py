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
"""

from __future__ import annotations

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


_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False, default=_plain
)


def canonical_dumps(value: Any) -> bytes:
    """The canonical (sorted, compact, strict) JSON bytes of ``value``."""
    return _ENCODER.encode(value).encode("utf-8")


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
