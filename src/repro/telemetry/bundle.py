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
        # alone, available to any caller that wants leaner traces.  Spans
        # are live only when a tracer is listening too.
        self._live_spans = self.spans if spans and self.tracer.enabled else None

    @classmethod
    def recording(cls) -> "Telemetry":
        """A telemetry whose events accumulate in memory (tests, workers)."""
        return cls(tracer=InMemoryTracer())

    # ----------------------------------------------------- conveniences
    def emit(self, kind: str, /, **fields) -> None:
        """Forward one event to the tracer."""
        self.tracer.emit(kind, **fields)

    def timer(self, name: str) -> ScopedTimer:
        """A scoped timer recording into histogram ``name``."""
        return ScopedTimer(self.metrics.histogram(name))

    def span(self, name: str, /, **fields) -> Span | _NullSpan:
        """Open an attribution span (use as ``with telemetry.span(...)``).

        Returns the shared no-op :data:`NULL_SPAN` when no tracer is
        listening, so spans cost nothing on metrics-only or disabled runs.
        """
        stack = self._live_spans
        if stack is None:
            return NULL_SPAN
        return Span(stack, name, fields)

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
