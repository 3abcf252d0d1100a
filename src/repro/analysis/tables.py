"""Plain-text table rendering for the figure registry.

The paper's figures are line plots; ``repro figure`` reports the same
series as aligned text tables (one row per sweep point / time bucket) so
the shapes -- who wins, by what factor, where crossovers fall -- are
directly readable in ``benchmarks/results/`` and EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

__all__ = ["render_table", "format_value"]


def format_value(value: Any, *, precision: int = 4) -> str:
    """Human formatting: floats to significant digits, bools as yes/no."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.{precision}g}"
        return f"{value:,.{precision}g}"
    return str(value)


def render_table(
    rows: Sequence[Mapping[str, Any]],
    *,
    columns: Sequence[str] | None = None,
    title: str | None = None,
    precision: int = 4,
) -> str:
    """Render mapping rows as an aligned text table.

    Parameters
    ----------
    rows:
        Sequence of dict-like rows; missing keys render blank.
    columns:
        Column order; defaults to first-appearance order over all rows.
    title:
        Optional heading line.
    precision:
        Significant digits for floats.
    """
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)

    cells = [
        [format_value(row.get(col, ""), precision=precision) for col in columns]
        for row in rows
    ]
    widths = [
        max(len(str(col)), *(len(r[i]) for r in cells))
        for i, col in enumerate(columns)
    ]
    header = "  ".join(str(c).rjust(w) for c, w in zip(columns, widths))
    rule = "-" * len(header)
    body = "\n".join("  ".join(r[i].rjust(widths[i]) for i in range(len(columns))) for r in cells)
    parts = [title, header, rule, body] if title else [header, rule, body]
    return "\n".join(p for p in parts if p is not None)
