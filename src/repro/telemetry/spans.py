"""Hierarchical spans: parent-linked wall-clock attribution (schema v3).

Flat histograms answer "how long did P3 solves take overall"; spans answer
"where inside one solve did the time go".  ``with telemetry.span("gsd.solve")
as sp:`` opens a node on the per-telemetry :class:`SpanStack`; on exit one
``span`` event is emitted carrying the span's name, its id, its parent's id,
and both inclusive (``elapsed_s``) and exclusive (``exclusive_s``) wall time,
so a reader can rebuild the tree slot -> solve -> inner bisection without any
side channel.  Each interval is booked once: a span's exclusive time is its
inclusive time less its buckets and its child spans, which all lie inside it.

Two design points keep the hot path honest:

* **Aggregated child buckets.**  The GSD inner loop evaluates thousands of
  candidate configurations per solve; emitting one event each would blow the
  PR 2 <=5% overhead budget.  :meth:`Span.add` instead accumulates
  ``(count, seconds)`` per child name, and the parent's single ``span``
  event carries them embedded as a ``children`` field
  (``{name: [count, seconds]}``) -- readers synthesize the child rows.
  Attribution stays exact; event volume stays O(spans), not O(buckets),
  which is what keeps span instrumentation inside the overhead budget.
* **Null variants.**  Disabled telemetry (and enabled telemetry with a null
  tracer) hands out the shared :data:`NULL_SPAN`, whose enter/exit/add do
  nothing -- no clock reads, no allocation, so uninstrumented runs remain
  bit-identical.

Span ids are small integers assigned in entry order by the owning
:class:`SpanStack` -- deterministic for a deterministic workload, and unique
within a trace when combined with the ``run_id`` stamped by the tracer
(process-pool workers each run their own stack and run_id).
"""

from __future__ import annotations

from time import perf_counter

from .tracer import SCHEMA_VERSION, Tracer

__all__ = ["Span", "SpanStack", "NULL_SPAN"]


class Span:
    """One node of the attribution tree; a reentrant-free context manager.

    The span takes its id when it is entered and emits its ``span`` event
    when it exits; its parent is the span below it on the stack then.
    """

    __slots__ = (
        "name",
        "fields",
        "elapsed",
        "span_id",
        "_stack",
        "_start",
        "_child_s",
        "_buckets",
    )

    def __init__(self, stack: "SpanStack", name: str, fields: dict) -> None:
        self._stack = stack
        self.name = name
        self.fields = fields
        self.elapsed = 0.0
        self._child_s = 0.0
        self._buckets: dict[str, list[float]] | None = None

    def __enter__(self) -> "Span":
        stack = self._stack
        self.span_id = stack._next_id
        stack._next_id += 1
        stack._open.append(self)
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed = elapsed = perf_counter() - self._start
        stack = self._stack
        # Tolerate exceptions unwinding through nested spans: pop everything
        # above this span (those blocks exited abnormally without __exit__).
        open_spans = stack._open
        top = open_spans.pop()
        while top is not self and open_spans:
            top = open_spans.pop()
        exclusive = elapsed - self._child_s
        buckets = self._buckets
        if buckets:
            for count_seconds in buckets.values():
                exclusive -= count_seconds[1]
        if exclusive < 0.0:
            exclusive = 0.0
        parent = open_spans[-1] if open_spans else None
        event = {
            "kind": "span",
            "schema_version": SCHEMA_VERSION,
            "run_id": stack._run_id,
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": None if parent is None else parent.span_id,
            "depth": len(open_spans),
            "elapsed_s": elapsed,
            "exclusive_s": exclusive,
        }
        if buckets:
            # One embedded dict instead of one event per bucket: at ~6
            # buckets/slot the difference is the whole overhead budget.
            # The span is closed, so handing the live dict to the tracer
            # is safe -- nothing mutates it afterwards.
            event["children"] = buckets
        if self.fields:
            event.update(self.fields)
        stack._emit(event)
        if parent is not None:
            parent._child_s += elapsed
        return False

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        """Accumulate ``seconds`` into the aggregated child bucket ``name``.

        Cheap enough for per-iteration hot loops: one dict update, no event
        until the parent closes.
        """
        buckets = self._buckets
        if buckets is None:
            self._buckets = {name: [count, seconds]}
            return
        slot = buckets.get(name)
        if slot is None:
            buckets[name] = [count, seconds]
        else:
            slot[0] += count
            slot[1] += seconds


class _NullSpan:
    """Do-nothing span handed out when no tracer is listening."""

    __slots__ = ()
    name = ""
    span_id = 0
    elapsed = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        pass

    def __bool__(self) -> bool:
        return False


#: Shared stateless instance; ``bool(NULL_SPAN)`` is False so callers can
#: write ``sp = telemetry.span(...)`` and guard bucket bookkeeping with
#: ``if sp:`` at zero cost on uninstrumented runs.
NULL_SPAN = _NullSpan()


class SpanStack:
    """Per-telemetry stack of open spans and the sink of their events."""

    __slots__ = ("_open", "_next_id", "_run_id", "_emit")

    def __init__(self, tracer: Tracer) -> None:
        self._open: list[Span] = []
        self._next_id = 1
        # Each span event is built whole and handed to the tracer's
        # pre-built-event path, stamped as the tracer would stamp it.
        self._run_id = getattr(tracer, "run_id", None)
        self._emit = tracer.emit_event

    @property
    def active(self) -> Span | None:
        """Innermost open span, or None outside any span."""
        return self._open[-1] if self._open else None
