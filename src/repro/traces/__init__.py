"""Trace substrate: hourly workload, renewable, and price series.

The generators here substitute for the paper's proprietary inputs (FIU and
MSR workload logs, CAISO renewable and price feeds) with seeded synthetic
equivalents documented module-by-module; see DESIGN.md section 2.
"""

from .base import HOURS_PER_DAY, HOURS_PER_WEEK, HOURS_PER_YEAR, Trace
from .io import (
    append_jsonl_rows,
    load_traces,
    save_traces,
    trace_from_csv,
    trace_to_csv,
)
from .noise import PredictionModel, overestimate
from .price import DEFAULT_MEAN_PRICE, price_trace
from .solar import solar_trace
from .wind import wind_trace
from .workload_fiu import DEFAULT_PEAK_REQ_PER_S, fiu_workload
from .workload_msr import msr_week, msr_workload

__all__ = [
    "Trace",
    "append_jsonl_rows",
    "HOURS_PER_DAY",
    "HOURS_PER_WEEK",
    "HOURS_PER_YEAR",
    "fiu_workload",
    "msr_week",
    "msr_workload",
    "solar_trace",
    "wind_trace",
    "price_trace",
    "DEFAULT_MEAN_PRICE",
    "DEFAULT_PEAK_REQ_PER_S",
    "PredictionModel",
    "overestimate",
    "save_traces",
    "load_traces",
    "trace_to_csv",
    "trace_from_csv",
]
