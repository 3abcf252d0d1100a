"""Analysis: experiment sweeps, run comparisons, table rendering."""

from .report import scenario_report
from .stats import (
    TraceSummary,
    autocorrelation,
    exceedance_hours,
    load_duration_curve,
    peak_to_mean,
    summarize_trace,
)
from .summary import compare_records, cost_saving, time_bucket_rows
from .sweep import (
    budget_sweep,
    compare_with_perfecthp,
    find_neutral_v,
    overestimation_sweep,
    portfolio_sweep,
    run_coca,
    run_varying_v,
    sweep_constant_v,
    switching_sweep,
)
from .tables import format_value, render_table

__all__ = [
    "run_coca",
    "sweep_constant_v",
    "find_neutral_v",
    "run_varying_v",
    "compare_with_perfecthp",
    "budget_sweep",
    "overestimation_sweep",
    "switching_sweep",
    "portfolio_sweep",
    "compare_records",
    "cost_saving",
    "time_bucket_rows",
    "render_table",
    "format_value",
    "scenario_report",
    "summarize_trace",
    "TraceSummary",
    "load_duration_curve",
    "autocorrelation",
    "peak_to_mean",
    "exceedance_hours",
]
