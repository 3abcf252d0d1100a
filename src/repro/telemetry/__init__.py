"""Telemetry: structured tracing, metrics, and spans for the pipeline.

The subsystem has three layers, bundled by :class:`Telemetry`:

- **Tracing** (:mod:`~repro.telemetry.tracer`): structured per-slot events
  -- controller decisions, deficit-queue updates, realized outcomes,
  dropped load, GSD solve summaries -- streamed to memory or JSONL.
- **Metrics** (:mod:`~repro.telemetry.metrics`): counters, gauges, and
  exact-percentile histograms in a name-keyed registry, renderable as
  Prometheus text
  exposition (:mod:`~repro.telemetry.prometheus`).
- **Timing** (:mod:`~repro.telemetry.timing`,
  :mod:`~repro.telemetry.spans`): scoped wall-clock timers feeding
  histograms, and parent-linked attribution spans over the slot loop and
  the P3 solves, written to the trace as one ``span`` event each.

Everything is opt-in: ``simulate()``, the solvers, and the sweep drivers
take ``telemetry=None``, and the disabled default (:data:`NULL_TELEMETRY`)
is a true no-op, so uninstrumented runs are bit-identical to a build
without this package.  See ``docs/OBSERVABILITY.md`` for the event schema
and metric names.
"""

from .bundle import NULL_TELEMETRY, Telemetry, coerce
from .exporters import (
    TraceError,
    load_trace,
    metrics_to_markdown,
    read_jsonl_events,
    write_jsonl_events,
    write_metrics,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .prometheus import render_prometheus
from .spans import NULL_SPAN, Span, SpanStack
from .summary import render_trace_summary, span_hotspots, trace_summary_tables
from .timing import NULL_TIMER, ScopedTimer
from .tracer import (
    NULL_TRACER,
    SCHEMA_VERSION,
    InMemoryTracer,
    JsonlTracer,
    NullTracer,
    RingBufferTracer,
    Tracer,
    new_run_id,
)

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "coerce",
    "SCHEMA_VERSION",
    "new_run_id",
    "TraceError",
    "load_trace",
    "Tracer",
    "NullTracer",
    "InMemoryTracer",
    "JsonlTracer",
    "RingBufferTracer",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ScopedTimer",
    "NULL_TIMER",
    "Span",
    "SpanStack",
    "NULL_SPAN",
    "render_prometheus",
    "span_hotspots",
    "read_jsonl_events",
    "write_jsonl_events",
    "metrics_to_markdown",
    "write_metrics",
    "trace_summary_tables",
    "render_trace_summary",
]
