"""Prometheus text exposition for the :class:`MetricsRegistry`.

Renders the registry in the Prometheus text format (version 0.0.4) so a
standard scraper pointed at the serve loop's ``/metrics`` endpoint ingests
the controller's cost/carbon/latency series with zero glue:

- :class:`~repro.telemetry.metrics.Counter` -> ``counter`` with the
  conventional ``_total`` suffix,
- :class:`~repro.telemetry.metrics.Gauge` -> ``gauge``,
- :class:`~repro.telemetry.metrics.Histogram` -> ``summary`` with
  ``{quantile="..."}`` sample lines plus exact ``_sum``/``_count``
  (quantiles come from the histogram's retained observations -- exact in
  batch mode, reservoir-sampled under ``repro serve``).

Metric names are sanitized to the Prometheus grammar
(``[a-zA-Z_:][a-zA-Z0-9_:]*``): the registry's dotted names map dots to
underscores under a ``repro_`` namespace prefix, e.g.
``sim.solve_time_s`` -> ``repro_sim_solve_time_s``.
"""

from __future__ import annotations

import math
import re

from .metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = ["render_prometheus", "PROMETHEUS_CONTENT_TYPE"]

#: Content-Type an HTTP endpoint should serve the rendered text under.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Summary quantiles exposed per histogram.
_QUANTILES = (0.5, 0.9, 0.99)

_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(name: str, prefix: str) -> str:
    sanitized = _INVALID.sub("_", name)
    if prefix:
        sanitized = f"{prefix}_{sanitized}"
    if not re.match(r"[a-zA-Z_:]", sanitized):
        sanitized = f"_{sanitized}"
    return sanitized


def _fmt(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry, *, prefix: str = "repro") -> str:
    """Render every instrument as Prometheus text exposition (0.0.4).

    Output is sorted by metric name, so identical registries render
    identical text (golden-testable).
    """
    lines: list[str] = []
    instruments = registry._instruments
    for name in sorted(instruments):
        inst = instruments[name]
        pname = _metric_name(name, prefix)
        if isinstance(inst, Counter):
            lines.append(f"# HELP {pname}_total Counter {name!r}.")
            lines.append(f"# TYPE {pname}_total counter")
            lines.append(f"{pname}_total {_fmt(inst.value)}")
        elif isinstance(inst, Gauge):
            lines.append(f"# HELP {pname} Gauge {name!r}.")
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname} {_fmt(inst.value)}")
        elif isinstance(inst, Histogram):
            lines.append(f"# HELP {pname} Summary of histogram {name!r}.")
            lines.append(f"# TYPE {pname} summary")
            values = inst.percentiles([q * 100.0 for q in _QUANTILES])
            for q, value in zip(_QUANTILES, values):
                lines.append(f'{pname}{{quantile="{q}"}} {_fmt(value)}')
            lines.append(f"{pname}_sum {_fmt(inst.total)}")
            lines.append(f"{pname}_count {inst.count}")
    return "\n".join(lines) + "\n" if lines else ""
