"""Trace summarization: turn a JSONL event stream back into tables.

``python -m repro telemetry run.jsonl`` lands here.  The summarizer only
relies on the shared event schema (see ``docs/OBSERVABILITY.md``): slot
events carry ``t``, timing fields end in ``_s``, and solver events are
namespaced (``gsd.*``).  Unknown kinds still appear in the
event-count table, so traces from future instrumentation degrade
gracefully.
"""

from __future__ import annotations

from collections import Counter as TallyCounter

import numpy as np

__all__ = ["trace_summary_tables", "render_trace_summary", "span_hotspots"]


def span_hotspots(events: list[dict], *, top: int = 20) -> list[dict]:
    """Aggregate v3 ``span`` events into a tree-rendered hotspot table.

    Spans are grouped by their *name path* (root -> ... -> name, resolved
    through ``parent_id`` links within each ``run_id``), so the thousands of
    per-slot ``slot -> gsd.solve -> gsd.inner_bisection`` instances collapse
    into one row each.  Rows come back in depth-first tree order, children
    sorted by inclusive time; the ``top`` highest-inclusive paths are kept
    (plus any ancestors needed to render the tree).  Traces without span
    events -- schema v1/v2, or uninstrumented runs -- yield an empty list.
    """
    # span_id -> (name, parent_id), per run so worker ids never collide.
    index: dict[tuple, tuple[str, object]] = {}
    span_events: list[dict] = []
    for event in events:
        if event.get("kind") != "span":
            continue
        span_events.append(event)
        key = (event.get("run_id"), event.get("span_id"))
        index[key] = (str(event.get("name", "?")), event.get("parent_id"))

    if not span_events:
        return []

    path_cache: dict[tuple, tuple[str, ...]] = {}

    def resolve_path(run: object, span_id: object) -> tuple[str, ...]:
        key = (run, span_id)
        cached = path_cache.get(key)
        if cached is not None:
            return cached
        entry = index.get(key)
        if entry is None:
            path: tuple[str, ...] = ("?",)
        else:
            name, parent_id = entry
            if parent_id is None:
                path = (name,)
            else:
                path = resolve_path(run, parent_id) + (name,)
        path_cache[key] = path
        return path

    aggregates: dict[tuple[str, ...], dict] = {}
    for event in span_events:
        path = resolve_path(event.get("run_id"), event.get("span_id"))
        agg = aggregates.setdefault(path, {"count": 0, "incl": 0.0, "excl": 0.0})
        agg["count"] += int(event.get("count", 1))
        agg["incl"] += float(event.get("elapsed_s", 0.0))
        agg["excl"] += float(event.get("exclusive_s", event.get("elapsed_s", 0.0)))
        # Aggregated child buckets ride the parent's event as a
        # ``children`` field ({name: [count, seconds]}); synthesize their
        # rows so the tree shows slot -> solve -> inner-bisection even
        # though the hot loop never paid for child events.
        for child_name, payload in (event.get("children") or {}).items():
            child_path = path + (str(child_name),)
            child = aggregates.setdefault(
                child_path, {"count": 0, "incl": 0.0, "excl": 0.0}
            )
            child["count"] += int(payload[0])
            child["incl"] += float(payload[1])
            child["excl"] += float(payload[1])

    root_total = sum(a["incl"] for p, a in aggregates.items() if len(p) == 1)
    ranked = sorted(aggregates, key=lambda p: aggregates[p]["incl"], reverse=True)
    keep: set[tuple[str, ...]] = set()
    for path in ranked[: max(top, 1)]:
        for depth in range(1, len(path) + 1):
            keep.add(path[:depth])

    rows: list[dict] = []

    def walk(prefix: tuple[str, ...]) -> None:
        children = [
            p for p in aggregates if len(p) == len(prefix) + 1 and p[: len(prefix)] == prefix
        ]
        for path in sorted(children, key=lambda p: aggregates[p]["incl"], reverse=True):
            if path not in keep:
                continue
            agg = aggregates[path]
            rows.append(
                {
                    "span": "  " * (len(path) - 1) + path[-1],
                    "count": agg["count"],
                    "incl [ms]": agg["incl"] * 1e3,
                    "excl [ms]": agg["excl"] * 1e3,
                    "% total": (100.0 * agg["incl"] / root_total) if root_total else 0.0,
                }
            )
            walk(path)

    walk(())
    return rows


def _percentile_row(label: str, values: list[float]) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    return {
        "timer": label,
        "count": int(arr.size),
        "mean [ms]": float(arr.mean()) * 1e3,
        "p50 [ms]": float(np.percentile(arr, 50)) * 1e3,
        "p90 [ms]": float(np.percentile(arr, 90)) * 1e3,
        "p99 [ms]": float(np.percentile(arr, 99)) * 1e3,
        "max [ms]": float(arr.max()) * 1e3,
    }


def trace_summary_tables(events: list[dict]) -> dict[str, list[dict]]:
    """Digest events into named row tables.

    Returns a dict with (possibly empty) entries:

    ``events``
        One row per event kind with its count and ``t`` coverage.
    ``run``
        Aggregates over ``slot.outcome`` / ``queue.update`` events (cost,
        brown energy, dropped load, queue depth).
    ``timings``
        Wall-time percentiles per timing source (``slot.decision`` solve
        times, ``gsd.solve`` solve times).
    ``gsd``
        Chain statistics from ``gsd.solve`` events, with the median and p90
        of ``gap_rel`` (the gap to the exact engine) over the graded solves.
    ``spans``
        Tree-rendered hotspot table from v3 ``span`` events (empty for
        v1/v2 traces; see :func:`span_hotspots`).
    """
    kinds: TallyCounter = TallyCounter()
    t_range: dict[str, tuple[float, float]] = {}
    timings: dict[str, list[float]] = {}
    outcome = {"cost": 0.0, "brown": 0.0, "dropped": 0.0, "slots": 0}
    queue_depths: list[float] = []
    gsd = {"solves": 0, "iterations": 0.0, "accept": [], "converged_at": [], "gap": []}

    for event in events:
        kind = event["kind"]
        kinds[kind] += 1
        t = event.get("t")
        if t is not None:
            lo, hi = t_range.get(kind, (t, t))
            t_range[kind] = (min(lo, t), max(hi, t))

        if kind == "slot.decision" and "solve_time_s" in event:
            timings.setdefault("slot.decision/solve_time_s", []).append(
                float(event["solve_time_s"])
            )
        elif kind == "slot.outcome":
            outcome["cost"] += float(event.get("cost", 0.0))
            outcome["brown"] += float(event.get("brown_energy", 0.0))
            outcome["dropped"] += float(event.get("dropped", 0.0))
            outcome["slots"] += 1
        elif kind == "queue.update":
            queue_depths.append(float(event.get("after", 0.0)))
        elif kind == "gsd.solve":
            gsd["solves"] += 1
            gsd["iterations"] += float(event.get("iterations", 0.0))
            if "acceptance_rate" in event:
                gsd["accept"].append(float(event["acceptance_rate"]))
            if "iterations_to_convergence" in event:
                gsd["converged_at"].append(float(event["iterations_to_convergence"]))
            if event.get("gap_rel") is not None:
                gsd["gap"].append(float(event["gap_rel"]))
            if "solve_time_s" in event:
                timings.setdefault("gsd.solve/solve_time_s", []).append(
                    float(event["solve_time_s"])
                )

    tables: dict[str, list[dict]] = {
        "events": [],
        "run": [],
        "timings": [],
        "gsd": [],
        "spans": span_hotspots(events),
    }
    for kind in sorted(kinds):
        row = {"event": kind, "count": kinds[kind]}
        if kind in t_range:
            row["first t"] = t_range[kind][0]
            row["last t"] = t_range[kind][1]
        tables["events"].append(row)

    if outcome["slots"]:
        tables["run"].append(
            {
                "slots": outcome["slots"],
                "total cost [$]": outcome["cost"],
                "avg cost [$/h]": outcome["cost"] / outcome["slots"],
                "brown [MWh]": outcome["brown"],
                "dropped [req/s]": outcome["dropped"],
                "queue max [MWh]": max(queue_depths) if queue_depths else 0.0,
                "queue final [MWh]": queue_depths[-1] if queue_depths else 0.0,
            }
        )

    for label in sorted(timings):
        tables["timings"].append(_percentile_row(label, timings[label]))

    if gsd["solves"]:
        row = {
            "solves": gsd["solves"],
            "avg iterations": gsd["iterations"] / gsd["solves"],
            "avg acceptance": float(np.mean(gsd["accept"])) if gsd["accept"] else 0.0,
            "avg iters-to-best": (
                float(np.mean(gsd["converged_at"])) if gsd["converged_at"] else 0.0
            ),
        }
        if gsd["gap"]:
            p50, p90 = np.percentile(gsd["gap"], [50, 90])
            row.update(
                {"graded": len(gsd["gap"]), "gap p50 [%]": 100 * p50, "gap p90 [%]": 100 * p90}
            )
        tables["gsd"].append(row)
    return tables


def render_trace_summary(
    events: list[dict], *, title: str | None = None, spans: bool = False
) -> str:
    """Human-readable digest of a trace (the ``repro telemetry`` output).

    With ``spans=True`` (the CLI's ``--spans`` flag) the digest appends the
    hierarchical hotspot table; v2 traces carry no span events and render a
    one-line note instead.
    """
    # Imported lazily: analysis pulls in the sweep drivers, which import
    # telemetry -- a module-level import here would cycle.
    from ..analysis.tables import render_table

    tables = trace_summary_tables(events)
    sections: list[str] = []
    head = f"{len(events)} events"
    if title:
        head = f"{title}: {head}"
    sections.append(head)
    if tables["events"]:
        sections.append(render_table(tables["events"], title="event counts"))
    if tables["run"]:
        sections.append(render_table(tables["run"], title="run aggregates"))
    if tables["timings"]:
        sections.append(render_table(tables["timings"], title="solve-time percentiles"))
    if tables["gsd"]:
        sections.append(render_table(tables["gsd"], title="GSD chain statistics"))
    if spans:
        if tables["spans"]:
            # Pad the names to one width so the right-aligned column keeps
            # each row's leading indentation, which is the tree's depth.
            width = max(len(row["span"]) for row in tables["spans"])
            rows = [{**row, "span": row["span"].ljust(width)} for row in tables["spans"]]
            sections.append(render_table(rows, title="span hotspots (inclusive time)"))
        else:
            sections.append(
                "(no span events: pre-v3 trace or span-uninstrumented run)"
            )
    if len(sections) == 1:
        sections.append("(empty trace)")
    return "\n\n".join(sections)
