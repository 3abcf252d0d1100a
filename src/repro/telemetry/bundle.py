"""The ``Telemetry`` bundle threaded through the pipeline.

One object carries both halves of the observability story -- the event
:class:`~repro.telemetry.tracer.Tracer` and the
:class:`~repro.telemetry.metrics.MetricsRegistry` -- so instrumented code
takes a single optional ``telemetry=`` parameter.  ``None`` resolves to the
shared :data:`NULL_TELEMETRY`, whose ``enabled`` flag is False: hot paths
guard with ``if telemetry.enabled:`` and uninstrumented runs execute the
exact same arithmetic (and RNG draws) as before the subsystem existed.

Process-pool workers use :meth:`Telemetry.recording` +
:meth:`Telemetry.drain` to ship their events and metric state back to the
parent, which folds them in with :meth:`Telemetry.absorb` -- event order
then matches serial execution because the parent absorbs in task order.
"""

from __future__ import annotations

from .metrics import MetricsRegistry
from .spans import NULL_SPAN, Span, SpanStack, _NullSpan
from .timing import NULL_TIMER, ScopedTimer
from .tracer import NULL_TRACER, InMemoryTracer, Tracer

__all__ = ["Telemetry", "NULL_TELEMETRY", "coerce"]


class Telemetry:
    """A tracer plus a metrics registry, passed as one handle."""

    enabled: bool = True

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        *,
        spans: bool = True,
    ) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans = SpanStack(self.tracer)
        # ``spans=False`` keeps event tracing while suppressing span
        # attribution -- the knob bench_span_overhead uses to price spans
        # alone, available to any caller that wants leaner traces.
        self._spans_enabled = bool(spans)

    @classmethod
    def recording(cls) -> "Telemetry":
        """A telemetry whose events accumulate in memory (tests, workers)."""
        return cls(tracer=InMemoryTracer())

    # ----------------------------------------------------- conveniences
    def emit(self, kind: str, /, **fields) -> None:
        """Forward one event to the tracer."""
        self.tracer.emit(kind, **fields)

    def timer(self, name: str) -> ScopedTimer:
        """A scoped timer recording into histogram ``name``.

        When a span is already open (and the tracer is listening), the timer
        additionally closes the loop on attribution: the same clock pair
        feeds the histogram *and* the enclosing span's aggregated child
        bucket, so existing timer call sites nest under slot/solve spans
        for free.
        """
        stack = self.spans._stack
        parent = (
            stack[-1] if self._spans_enabled and self.tracer.enabled and stack else None
        )
        return ScopedTimer(self.metrics.histogram(name), parent)

    def span(self, name: str, /, **fields) -> Span | _NullSpan:
        """Open an attribution span (use as ``with telemetry.span(...)``).

        Returns the shared no-op :data:`NULL_SPAN` when no tracer is
        listening, so spans cost nothing on metrics-only or disabled runs.
        """
        if not self._spans_enabled or not self.tracer.enabled:
            return NULL_SPAN
        return self.spans.open(name, fields or None)

    @property
    def events(self) -> list[dict]:
        """Recorded events, when the tracer keeps them; else empty."""
        return getattr(self.tracer, "events", [])

    # ----------------------------------------------------- pool transport
    def drain(self) -> tuple[list[dict], dict]:
        """Picklable payload ``(events, metrics_state)`` for the parent."""
        return list(self.events), self.metrics.state()

    def absorb(self, events: list[dict], metrics_state: dict) -> None:
        """Fold a worker's drained payload into this telemetry."""
        for event in events:
            fields = dict(event)
            kind = fields.pop("kind")
            self.tracer.emit(kind, **fields)
        self.metrics.merge_state(metrics_state)


class _NullTelemetry(Telemetry):
    """Disabled bundle: no events, no metrics, no clock reads."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(tracer=NULL_TRACER)

    def emit(self, kind: str, /, **fields) -> None:
        pass

    def timer(self, name: str):
        return NULL_TIMER

    def span(self, name: str, /, **fields):
        return NULL_SPAN


#: Shared disabled instance; ``coerce(None)`` returns it.
NULL_TELEMETRY = _NullTelemetry()


def coerce(telemetry: Telemetry | None) -> Telemetry:
    """Resolve an optional parameter to a usable bundle."""
    return telemetry if telemetry is not None else NULL_TELEMETRY
