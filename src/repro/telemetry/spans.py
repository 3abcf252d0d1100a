"""Hierarchical spans: parent-linked wall-clock attribution (schema v3).

Flat histograms answer "how long did P3 solves take overall"; spans answer
"where inside one solve did the time go".  ``with telemetry.span("gsd.solve")
as sp:`` opens a node on the per-telemetry :class:`SpanStack`; on exit one
``span`` event is emitted carrying the span's name, its id, its parent's id,
and both inclusive (``elapsed_s``) and exclusive (``exclusive_s``) wall time,
so a reader can rebuild the tree slot -> solve -> inner bisection without any
side channel.

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

Span ids are small integers assigned in open order by the owning
:class:`SpanStack` -- deterministic for a deterministic workload, and unique
within a trace when combined with the ``run_id`` stamped by the tracer
(process-pool workers each run their own stack and run_id).
"""

from __future__ import annotations

import time

from .tracer import Tracer

__all__ = ["Span", "SpanStack", "NULL_SPAN"]


class Span:
    """One node of the attribution tree; a reentrant-free context manager."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "depth",
        "fields",
        "elapsed",
        "_stack",
        "_start",
        "_child_s",
        "_buckets",
    )

    def __init__(
        self,
        stack: "SpanStack",
        name: str,
        span_id: int,
        parent_id: int | None,
        depth: int,
        fields: dict,
    ) -> None:
        self._stack = stack
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.fields = fields
        self.elapsed = 0.0
        self._start = 0.0
        self._child_s = 0.0
        self._buckets: dict[str, list[float]] | None = None

    def __enter__(self) -> "Span":
        self._stack._push(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.elapsed = time.perf_counter() - self._start
        self._stack._pop(self)
        return False

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        """Accumulate ``seconds`` into the aggregated child bucket ``name``.

        Cheap enough for per-iteration hot loops: one dict update, no event
        until the parent closes.
        """
        buckets = self._buckets
        if buckets is None:
            buckets = self._buckets = {}
        slot = buckets.get(name)
        if slot is None:
            buckets[name] = [count, seconds]
        else:
            slot[0] += count
            slot[1] += seconds

    @property
    def exclusive(self) -> float:
        """Self time: inclusive minus time attributed to children."""
        return max(self.elapsed - self._child_s, 0.0)

    def __bool__(self) -> bool:
        return True


class _NullSpan:
    """Do-nothing span handed out when no tracer is listening."""

    __slots__ = ()
    name = ""
    span_id = 0
    parent_id = None
    depth = 0
    elapsed = 0.0
    exclusive = 0.0

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
    """Per-telemetry stack of open spans; emits ``span`` events on close."""

    __slots__ = ("tracer", "_stack", "_next_id")

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._stack: list[Span] = []
        self._next_id = 1

    @property
    def active(self) -> Span | None:
        """Innermost open span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    def path(self) -> tuple[str, ...]:
        """Names of the open spans, outermost first."""
        return tuple(span.name for span in self._stack)

    def open(self, name: str, fields: dict | None = None) -> Span:
        """Build a span parented to the current innermost open span."""
        parent = self._stack[-1] if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        return Span(
            self,
            name,
            span_id,
            parent.span_id if parent is not None else None,
            parent.depth + 1 if parent is not None else 0,
            fields or {},
        )

    # ------------------------------------------------------------ internals
    def _push(self, span: Span) -> None:
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # Tolerate exceptions unwinding through nested spans: pop everything
        # above ``span`` (those blocks exited abnormally without __exit__).
        stack = self._stack
        while stack:
            top = stack.pop()
            if top is span:
                break
        parent = stack[-1] if stack else None
        buckets = span._buckets
        if buckets:
            # One embedded dict instead of one event per bucket: at ~6
            # buckets/slot the difference is the whole overhead budget.
            # The span is closed, so handing the live dict to the tracer
            # is safe -- nothing mutates it afterwards.
            for count_seconds in buckets.values():
                span._child_s += count_seconds[1]
            self.tracer.emit(
                "span",
                name=span.name,
                span_id=span.span_id,
                parent_id=span.parent_id,
                depth=span.depth,
                elapsed_s=span.elapsed,
                exclusive_s=span.exclusive,
                children=buckets,
                **span.fields,
            )
        else:
            self.tracer.emit(
                "span",
                name=span.name,
                span_id=span.span_id,
                parent_id=span.parent_id,
                depth=span.depth,
                elapsed_s=span.elapsed,
                exclusive_s=span.exclusive,
                **span.fields,
            )
        if parent is not None:
            parent._child_s += span.elapsed
