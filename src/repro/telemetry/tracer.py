"""Structured event tracing: the per-slot audit trail of a run.

Every instrumented component (the slot simulator, COCA's deficit queue,
GSD's Markov chain, the fault injector) reports what it did as *events* --
flat dicts with a ``kind`` discriminator plus arbitrary scalar fields --
through a :class:`Tracer`.  The paper's claims live in exactly this state
(the queue ``q(t)``, the weight ``V w(t) + q(t)``, GSD's acceptance rate),
so the trace is what lets a run be audited after the fact.

Three sinks are provided:

=================  ======================================================
:class:`NullTracer`     the default: ``enabled`` is False and ``emit`` is
                        a no-op, so uninstrumented runs pay nothing
:class:`InMemoryTracer` appends events to a list (tests, process workers)
:class:`JsonlTracer`    streams one JSON object per line to a file
=================  ======================================================

Hot paths guard event *construction* with ``if telemetry.enabled:`` so the
no-op default never even builds the field dict.

Every recorded event is stamped with ``schema_version`` (the trace format
revision, :data:`SCHEMA_VERSION`) and ``run_id`` (a short identifier fixed
per tracer instance), so consumers -- the monitors, the dashboard, the
summarizer -- can validate a trace and join or separate multi-run files.
A caller that passes either field explicitly (worker-event absorption,
round-tripping an existing trace) wins over the stamp.
"""

from __future__ import annotations

import json
import uuid
from typing import Any

import numpy as np

__all__ = [
    "SCHEMA_VERSION",
    "Tracer",
    "NullTracer",
    "InMemoryTracer",
    "JsonlTracer",
    "RingBufferTracer",
    "NULL_TRACER",
    "new_run_id",
    "sanitize_json_value",
]

#: Trace-format revision stamped on every event.  Bump when the event
#: schema changes incompatibly; readers reject traces from the future.
#: v3 added parent-linked ``span`` events (purely additive: v2 readers of
#: this codebase never existed, and v3 readers accept v1/v2 traces, which
#: simply contain no spans).
SCHEMA_VERSION = 3


def new_run_id() -> str:
    """A short random identifier naming one tracer's stream of events."""
    return uuid.uuid4().hex[:12]


def _jsonable(value: Any):
    """Fallback JSON encoder for numpy scalars and arrays."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"event field of type {type(value).__name__} is not JSON-serializable")


def sanitize_json_value(value: Any):
    """Make ``value`` strict-JSON safe: non-finite floats become ``None``.

    ``json.dumps`` happily writes ``Infinity``/``NaN`` tokens, which are
    *not* JSON -- strict parsers (browsers, ``jq``, other languages) reject
    the whole line.  Events hit this for real: a GSD chain that starts from
    an infeasible configuration reports ``chain_objective = inf`` until the
    first feasible acceptance.  Sinks that write JSON to disk run every
    event through this walk, mapping non-finite floats to ``null`` (the
    reader-side convention for "no finite value") and normalizing numpy
    scalars/arrays along the way.
    """
    if isinstance(value, bool | np.bool_):
        return bool(value)
    if isinstance(value, float | np.floating):
        f = float(value)
        return f if np.isfinite(f) else None
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, dict):
        return {k: sanitize_json_value(v) for k, v in value.items()}
    if isinstance(value, list | tuple):
        return [sanitize_json_value(v) for v in value]
    if isinstance(value, np.ndarray):
        return sanitize_json_value(value.tolist())
    return value


class Tracer:
    """Event sink interface.

    ``enabled`` is the hot-path guard: when False, callers skip building
    event payloads entirely.  Subclasses override :meth:`emit`; sinks that
    hold resources also override :meth:`close` (tracers are context
    managers).
    """

    enabled: bool = True

    def emit(self, kind: str, /, **fields) -> None:
        """Record one event of ``kind`` with scalar ``fields``."""
        raise NotImplementedError

    def emit_event(self, event: dict) -> None:
        """Record one pre-built event dict (must carry ``kind``).

        The fast path for taps that already assembled the full event --
        equivalent to ``emit(event["kind"], **rest)`` but without unpacking
        and rebuilding; sinks override it to consume the dict directly.
        """
        fields = dict(event)
        kind = fields.pop("kind")
        self.emit(kind, **fields)

    def close(self) -> None:
        """Release any underlying resource; idempotent."""

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class NullTracer(Tracer):
    """The zero-overhead default sink: drops everything."""

    enabled = False

    def emit(self, kind: str, /, **fields) -> None:
        pass

    def emit_event(self, event: dict) -> None:
        pass


#: Shared no-op instance; safe because a NullTracer has no state.
NULL_TRACER = NullTracer()


class InMemoryTracer(Tracer):
    """Appends events (as plain dicts) to :attr:`events`.

    The workhorse of tests and of process-pool workers, whose event lists
    are pickled back to the parent and absorbed into its telemetry.
    """

    def __init__(self, *, run_id: str | None = None) -> None:
        self.run_id = run_id if run_id is not None else new_run_id()
        self.events: list[dict] = []

    def emit(self, kind: str, /, **fields) -> None:
        event = {"kind": kind, "schema_version": SCHEMA_VERSION, "run_id": self.run_id}
        event.update(fields)
        self.events.append(event)

    def emit_event(self, event: dict) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)


class RingBufferTracer(Tracer):
    """Keeps the newest ``maxlen`` events, optionally forwarding everything.

    A forever-running service cannot hold its whole event stream in memory
    the way :class:`InMemoryTracer` does, but live dashboard renders still
    need a window of recent events.  This tracer keeps a bounded deque and
    forwards every event (unbounded, to disk) to an optional ``inner``
    sink, so the ring can sit in the middle of a tracer chain.
    """

    def __init__(self, maxlen: int = 4096, *, inner: Tracer | None = None,
                 run_id: str | None = None) -> None:
        from collections import deque

        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        self.run_id = run_id if run_id is not None else new_run_id()
        self.events: "deque[dict]" = deque(maxlen=maxlen)
        self.inner = inner if inner is not None else NULL_TRACER
        self.count = 0

    def emit(self, kind: str, /, **fields) -> None:
        event = {"kind": kind, "schema_version": SCHEMA_VERSION, "run_id": self.run_id}
        event.update(fields)
        self.emit_event(event)

    def emit_event(self, event: dict) -> None:
        self.events.append(event)
        self.count += 1
        if self.inner.enabled:
            self.inner.emit_event(event)

    def close(self) -> None:
        self.inner.close()


class JsonlTracer(Tracer):
    """Streams events to ``path`` as JSON Lines (one object per line).

    Events stream into a ``<path>.part`` sibling which is atomically
    committed (flush + fsync + rename) to ``path`` on :meth:`close`, so a
    reader never sees a torn final trace.  A *crashed* run leaves the
    readable ``.part`` prefix behind for forensics -- every line already
    written is a complete JSON object -- while the committed ``path`` from
    any previous run stays intact; read either back with
    :func:`repro.telemetry.exporters.read_jsonl_events`.
    """

    def __init__(self, path: str, *, run_id: str | None = None) -> None:
        self.path = str(path)
        self.run_id = run_id if run_id is not None else new_run_id()
        self._fh = open(self.path + ".part", "w")
        self.count = 0

    def emit(self, kind: str, /, **fields) -> None:
        event = {"kind": kind, "schema_version": SCHEMA_VERSION, "run_id": self.run_id}
        event.update(fields)
        self.emit_event(event)

    def emit_event(self, event: dict) -> None:
        # allow_nan=False backstops the sanitizer: a non-finite float
        # slipping through is a loud TypeError here, never an invalid line.
        self._fh.write(
            json.dumps(
                sanitize_json_value(event), default=_jsonable, allow_nan=False
            )
        )
        self._fh.write("\n")
        self.count += 1

    def close(self) -> None:
        if not self._fh.closed:
            from ..state.atomic import commit_file

            commit_file(self._fh, self.path)
