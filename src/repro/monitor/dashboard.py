"""The offline HTML dashboard: one self-contained report per trace.

``repro dashboard --trace run.jsonl -o report.html`` lands here.  The
renderer consumes a recorded event stream (schema in
``docs/OBSERVABILITY.md``), replays it through a
:class:`~repro.monitor.suite.MonitorSuite` (the caller may pass one
already fed live), and emits a single HTML file with **no external
resources**: styles are embedded, charts are inline SVG sparklines, and
hover values use native SVG ``<title>`` tooltips, so the report opens from
disk, in CI artifacts, or attached to an email.

Sections (each with a stable anchor the tests pin):

=====================  ==============================================
``#run``               header stat tiles (cost, brown, queue, alerts)
``#invariants``        monitor pass/fail table
``#alerts``            deduplicated alert log
``#faults``            injected-fault / degradation event log (chaos runs)
``#deficit-queue``     q(t) sparkline
``#energy-mix``        brown vs. renewable energy per slot
``#cost``              realized cost per slot
``#v-weighted-price``  V * electricity price per slot
``#gsd``               GSD solve times and chain acceptance
=====================  ==============================================

When one trace holds several simulations (e.g. ``repro quickstart``
records the carbon-unaware baseline *and* COCA), per-slot charts show the
most recent value recorded for each slot index.
"""

from __future__ import annotations

import html as _html
from typing import Sequence

import numpy as np

from .suite import MonitorSuite, replay

__all__ = ["render_dashboard", "write_dashboard", "DASHBOARD_SECTIONS"]

#: Anchor ids of every section the report renders, in page order.
DASHBOARD_SECTIONS = (
    "run",
    "invariants",
    "alerts",
    "faults",
    "deficit-queue",
    "energy-mix",
    "cost",
    "v-weighted-price",
    "gsd",
)

_CSS = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --text-muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7; --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834;
  --status-good: #0ca30c; --status-warning: #fab219;
  --status-serious: #ec835a; --status-critical: #d03b3b;
  --good-text: #006300;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #898781;
    --grid: #2c2c2a; --baseline: #383835; --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926;
    --good-text: #0ca30c;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page); color: var(--text-primary);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
main { max-width: 880px; margin: 0 auto; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 0 0 8px; }
.subtitle { color: var(--text-secondary); margin: 0 0 20px; }
section {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 20px; margin: 0 0 16px;
}
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile { min-width: 120px; flex: 1; }
.tile .label { color: var(--text-secondary); font-size: 12px; }
.tile .value { font-size: 24px; font-weight: 600; }
.tile .note { color: var(--text-muted); font-size: 12px; }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th { text-align: left; color: var(--text-muted); font-weight: 500;
     border-bottom: 1px solid var(--grid); padding: 4px 10px 4px 0; }
td { border-bottom: 1px solid var(--grid); padding: 4px 10px 4px 0;
     vertical-align: top; }
td.num { font-variant-numeric: tabular-nums; text-align: right; }
tr:last-child td { border-bottom: none; }
.badge { font-weight: 600; white-space: nowrap; }
.badge.pass { color: var(--status-good); }
.badge.fail { color: var(--status-critical); }
.badge.info { color: var(--text-secondary); }
.badge.warning { color: var(--status-serious); }
.badge.critical { color: var(--status-critical); }
.empty { color: var(--text-muted); }
.legend { display: flex; gap: 16px; font-size: 12px;
          color: var(--text-secondary); margin: 0 0 4px; }
.legend .key { display: inline-flex; align-items: center; gap: 6px; }
.swatch { width: 12px; height: 3px; border-radius: 2px; display: inline-block; }
svg text { font: 11px system-ui, -apple-system, "Segoe UI", sans-serif;
           fill: var(--text-muted); }
footer { color: var(--text-muted); font-size: 12px; margin-top: 8px; }
"""


def _esc(value) -> str:
    return _html.escape(str(value))


def _fmt(value: float) -> str:
    """Compact human figure for tiles and labels."""
    if value != value:  # NaN
        return "–"
    mag = abs(value)
    if mag >= 1e6:
        return f"{value / 1e6:.3g}M"
    if mag >= 1e4:
        return f"{value / 1e3:.3g}K"
    if mag >= 100:
        return f"{value:,.0f}"
    return f"{value:.3g}"


# ------------------------------------------------------------------ charts
def _polyline_points(
    xs: np.ndarray, ys: np.ndarray, w: int, h: int, pad: int, lo: float, hi: float
) -> list[tuple[float, float]]:
    span_x = max(float(xs[-1] - xs[0]), 1e-12)
    span_y = max(hi - lo, 1e-12)
    px = pad + (xs - xs[0]) / span_x * (w - 2 * pad)
    py = (h - pad) - (ys - lo) / span_y * (h - 2 * pad)
    return list(zip(px.tolist(), py.tolist()))


def _sparkline_svg(
    series: Sequence[tuple[str, str, np.ndarray]],
    xs: np.ndarray,
    *,
    unit: str = "",
    width: int = 800,
    height: int = 120,
) -> str:
    """Inline-SVG line chart: 2px lines, 10% area wash for the first
    series, ringed end-dots, hairline baseline, native-tooltip hover dots.

    ``series`` is ``(label, css_color_var, values)`` per line; all share
    ``xs`` (slot or solve index).
    """
    pad = 10
    w, h = width, height
    values = np.concatenate([np.asarray(v, dtype=np.float64) for _, _, v in series])
    lo = float(min(values.min(), 0.0)) if values.size else 0.0
    hi = float(values.max()) if values.size else 1.0
    if hi <= lo:
        hi = lo + 1.0
    parts = [
        f'<svg viewBox="0 0 {w} {h}" width="100%" height="{h}" role="img" '
        f'preserveAspectRatio="none">'
    ]
    # Hairline baseline at the value floor (solid, recessive).
    base_y = (h - pad) - (0.0 - lo) / (hi - lo) * (h - 2 * pad)
    base_y = min(max(base_y, pad), h - pad)
    parts.append(
        f'<line x1="{pad}" y1="{base_y:.1f}" x2="{w - pad}" y2="{base_y:.1f}" '
        f'stroke="var(--baseline)" stroke-width="1"/>'
    )
    hover_stride = max(1, len(xs) // 400)
    for idx, (label, color, ys) in enumerate(series):
        ys = np.asarray(ys, dtype=np.float64)
        pts = _polyline_points(xs, ys, w, h, pad, lo, hi)
        path = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
        if idx == 0:
            area = (
                f"{pad},{h - pad} " + path + f" {w - pad},{h - pad}"
            )
            parts.append(
                f'<polygon points="{area}" fill="var({color})" fill-opacity="0.1"/>'
            )
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="var({color})" '
            f'stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>'
        )
        # End marker: >=8px dot with a 2px surface ring.
        ex, ey = pts[-1]
        parts.append(
            f'<circle cx="{ex:.1f}" cy="{ey:.1f}" r="4" fill="var({color})" '
            f'stroke="var(--surface-1)" stroke-width="2"/>'
        )
        # Hover layer: transparent targets with native tooltips.
        label_html, unit_html = _esc(label), _esc(unit)
        slots, vals = xs.tolist(), ys.tolist()
        for i in range(0, len(pts), hover_stride):
            x, y = pts[i]
            parts.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="6" fill="transparent">'
                f"<title>{label_html} @ {int(slots[i])}: {vals[i]:.6g}{unit_html}</title>"
                f"</circle>"
            )
    # Min/max ink in text tokens, never the series color.
    parts.append(f'<text x="{pad}" y="{pad + 2}">{_fmt(hi)}{_esc(unit)}</text>')
    parts.append(
        f'<text x="{pad}" y="{h - 2}">{_fmt(lo)}{_esc(unit)}</text>'
    )
    parts.append("</svg>")
    return "".join(parts)


def _chart_section(
    anchor: str,
    heading: str,
    blurb: str,
    series: Sequence[tuple[str, str, np.ndarray]],
    xs: np.ndarray | None,
    *,
    unit: str = "",
    empty: str = "no events of this kind in the trace",
) -> str:
    body: list[str] = [f'<section id="{anchor}">', f"<h2>{_esc(heading)}</h2>"]
    if blurb:
        body.append(f'<p class="subtitle">{_esc(blurb)}</p>')
    if xs is None or len(xs) < 2:
        body.append(f'<p class="empty">{_esc(empty)}</p>')
    else:
        if len(series) >= 2:
            keys = "".join(
                f'<span class="key"><span class="swatch" '
                f'style="background: var({color})"></span>{_esc(label)}</span>'
                for label, color, _ in series
            )
            body.append(f'<div class="legend">{keys}</div>')
        body.append(_sparkline_svg(series, xs, unit=unit))
    body.append("</section>")
    return "\n".join(body)


# ------------------------------------------------------------------ extract
#: Event kinds the report reads, indexed in one pass per render.
_INDEXED_KINDS = ("queue.update", "slot.outcome", "slot.decision", "gsd.solve", "run.start")
#: Event kinds of the fault table, kept in one list in stream order.
_FAULT_KINDS = frozenset(
    ("fault.inject", "fault.suppressed", "fault.solve_retry", "fault.fallback", "fault.summary")
)


def _index(events: list[dict]) -> tuple[dict[str, list[dict]], list[dict]]:
    """One pass over ``events``: the events of each kind the charts and
    tiles read, and the fault table's events, each in order."""
    by_kind: dict[str, list[dict]] = {kind: [] for kind in _INDEXED_KINDS}
    faults: list[dict] = []
    for e in events:
        kind = e.get("kind")
        bucket = by_kind.get(kind)
        if bucket is not None:
            bucket.append(e)
        elif kind in _FAULT_KINDS:
            faults.append(e)
    return by_kind, faults


def _latest_by_t(events: list[dict], field: str) -> dict[int, float]:
    """Map slot -> most recent value of ``field`` among ``events`` (all of
    one kind)."""
    out: dict[int, float] = {}
    for e in events:
        if "t" in e and field in e:
            out[int(e["t"])] = float(e[field])
    return out


def _aligned(*maps: dict[int, float]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Common sorted slot axis plus each map's values on it."""
    common = sorted(set.intersection(*(set(m) for m in maps))) if maps else []
    xs = np.asarray(common, dtype=np.float64)
    return xs, [np.asarray([m[t] for t in common]) for m in maps]


# ------------------------------------------------------------------ tables
def _invariant_table(suite: MonitorSuite) -> str:
    rows = []
    for r in suite.reports():
        badge = (
            '<span class="badge pass">✓ pass</span>'
            if r.passed
            else '<span class="badge fail">✗ fail</span>'
        )
        rows.append(
            "<tr>"
            f"<td>{_esc(r.monitor)}</td><td>{badge}</td>"
            f'<td class="num">{r.checked}</td><td class="num">{r.violations}</td>'
            f"<td>{_esc(r.description)}<br>"
            f'<span class="empty">{_esc(r.detail)}</span></td>'
            "</tr>"
        )
    return (
        "<table><thead><tr><th>monitor</th><th>status</th><th>checked</th>"
        "<th>violations</th><th>invariant</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


_SEVERITY_ICONS = {"info": "ℹ", "warning": "⚠", "critical": "✖"}


def _alert_table(suite: MonitorSuite) -> str:
    alerts = suite.alerts
    if not alerts:
        return '<p class="empty">no alerts raised — every monitor stayed quiet</p>'
    rows = []
    for a in alerts:
        icon = _SEVERITY_ICONS.get(a.severity, "•")
        where = "–" if a.t is None else (
            str(a.t) if a.last_t in (None, a.t) else f"{a.t}–{a.last_t}"
        )
        rows.append(
            "<tr>"
            f'<td><span class="badge {a.severity}">{icon} {_esc(a.severity)}</span></td>'
            f"<td>{_esc(a.monitor)}</td><td class=\"num\">{_esc(where)}</td>"
            f'<td class="num">{a.count}</td><td>{_esc(a.message)}</td>'
            "</tr>"
        )
    return (
        "<table><thead><tr><th>severity</th><th>monitor</th><th>slots</th>"
        "<th>count</th><th>message</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


def _fault_table(events: list[dict]) -> str:
    """Event log of the run's fault injections and degradation decisions
    (``events``: at least the ``fault.*`` events, in order)."""
    rows = []
    for e in events:
        kind = e.get("kind", "")
        if kind == "fault.inject":
            what = str(e.get("fault", "?"))
            if what in ("group_fail", "group_repair"):
                detail = f"group {e.get('group')}"
            else:
                detail = (
                    f"{e.get('field')} {e.get('mode')} "
                    f"for {e.get('duration')} slot(s)"
                )
            down = e.get("failed_groups", [])
            if down:
                detail += f" — groups down: {down}"
        elif kind == "fault.suppressed":
            what = f"suppressed {e.get('fault', '?')}"
            detail = f"reason: {e.get('reason')}"
        elif kind == "fault.solve_retry":
            what = "solve retry"
            detail = f"attempt {e.get('attempt')}: {e.get('error')}"
        elif kind == "fault.fallback":
            what = "fallback"
            detail = f"{e.get('mode')} after {e.get('reason')}"
        else:
            continue
        rows.append(
            "<tr>"
            f'<td class="num">{_esc(e.get("t", "–"))}</td>'
            f"<td>{_esc(what)}</td><td>{_esc(detail)}</td>"
            "</tr>"
        )
    if not rows:
        return (
            '<p class="empty">no fault.* events — '
            "this run injected no faults</p>"
        )
    summary = next(
        (e for e in reversed(events) if e.get("kind") == "fault.summary"), None
    )
    caption = ""
    if summary is not None:
        deg = summary.get("degradation", {}) or {}
        caption = (
            f'<p class="subtitle">{summary.get("injected", 0)} injected, '
            f'{summary.get("suppressed", 0)} suppressed, '
            f"{deg.get('fallbacks', 0)} fallback slot(s), "
            f"{deg.get('solve_retries', 0)} solve retries</p>"
        )
    return (
        caption
        + "<table><thead><tr><th>slot</th><th>event</th><th>detail</th>"
        f"</tr></thead><tbody>{''.join(rows)}</tbody></table>"
    )


# ------------------------------------------------------------------ render
def render_dashboard(
    events: list[dict],
    *,
    suite: MonitorSuite | None = None,
    title: str | None = None,
) -> str:
    """Render the full HTML report for a recorded trace.

    ``suite`` may be a suite already fed live (it is finalized here);
    by default the standard :func:`~repro.monitor.suite.default_suite`
    replays the events offline.
    """
    if suite is None:
        suite = replay(events)
    else:
        suite.finalize()

    by_kind, fault_events = _index(events)
    updates = by_kind["queue.update"]
    outcomes = by_kind["slot.outcome"]
    decisions = by_kind["slot.decision"]
    queue = _latest_by_t(updates, "after")
    brown = _latest_by_t(outcomes, "brown_energy")
    onsite = _latest_by_t(decisions, "onsite")
    offsite = _latest_by_t(updates, "offsite")
    cost = _latest_by_t(outcomes, "cost")
    dropped = _latest_by_t(outcomes, "dropped")
    price = _latest_by_t(decisions, "price")
    v_by_t = _latest_by_t(updates, "v")
    solves = by_kind["gsd.solve"]
    gsd_times = [float(e["solve_time_s"]) for e in solves if "solve_time_s" in e]
    gsd_accept = [float(e["acceptance_rate"]) for e in solves if "acceptance_rate" in e]
    gsd_gaps = [float(e["gap_rel"]) for e in solves if e.get("gap_rel") is not None]
    run_ids = sorted({str(e["run_id"]) for e in events if "run_id" in e})
    run_start = next(iter(by_kind["run.start"]), None)

    # Header tiles.
    worst = suite.channel.worst_severity or "quiet"
    tiles = [
        ("total cost", f"${_fmt(sum(cost.values()))}", f"{len(cost)} slots"),
        ("brown energy", f"{_fmt(sum(brown.values()))} MWh",
         f"renewable {_fmt(sum(onsite.values()) + sum(offsite.values()))} MWh"),
        ("final queue", f"{_fmt(list(queue.values())[-1] if queue else float('nan'))} MWh",
         f"peak {_fmt(max(queue.values()) if queue else float('nan'))} MWh"),
        ("dropped load", f"{_fmt(sum(dropped.values()))} req/s",
         "should be 0 under phi >= 1"),
        ("alerts", str(suite.channel.count()), f"worst: {worst}"),
        ("invariants",
         f"{sum(1 for r in suite.reports() if r.passed)}/{len(suite.reports())}",
         "monitors passing"),
    ]
    tile_html = "".join(
        '<div class="tile">'
        f'<div class="label">{_esc(label)}</div><div class="value">{_esc(value)}</div>'
        f'<div class="note">{_esc(note)}</div></div>'
        for label, value, note in tiles
    )

    meta_bits = []
    if run_start is not None:
        meta_bits.append(
            f"controller {run_start.get('controller', '?')}, "
            f"horizon {run_start.get('horizon', '?')} slots"
        )
    meta_bits.append(f"{len(events)} events")
    meta_bits.append(
        f"run {run_ids[0]}" if len(run_ids) == 1 else f"{len(run_ids)} run ids"
    )

    # Charts.
    xs_q, (ys_q,) = _aligned(queue) if queue else (np.empty(0), [np.empty(0)])
    renewable = {
        t: onsite.get(t, 0.0) + offsite.get(t, 0.0)
        for t in set(onsite) | set(offsite)
    }
    mix_xs, (mix_brown, mix_green) = (
        _aligned(brown, renewable) if brown and renewable else (np.empty(0), [np.empty(0)] * 2)
    )
    xs_c, (ys_c,) = _aligned(cost) if cost else (np.empty(0), [np.empty(0)])
    vprice = {t: v_by_t[t] * price[t] for t in set(v_by_t) & set(price)}
    xs_vp, (ys_vp,) = _aligned(vprice) if vprice else (np.empty(0), [np.empty(0)])
    xs_g = np.arange(len(gsd_times), dtype=np.float64)

    gsd_blurb = "per-solve wall time across the run's GSD chains"
    if gsd_gaps:
        p50, p90 = np.percentile(gsd_gaps, [50, 90])
        gsd_blurb += (
            f"; gap to the exact engine median {100 * p50:.1f}% / p90 "
            f"{100 * p90:.1f}% over {len(gsd_gaps)} graded solves"
        )
    if gsd_accept:
        gsd_blurb += f"; mean acceptance {float(np.mean(gsd_accept)):.3f}"

    sections = [
        f'<section id="run"><div class="tiles">{tile_html}</div></section>',
        f'<section id="invariants"><h2>Invariants</h2>{_invariant_table(suite)}</section>',
        f'<section id="alerts"><h2>Alert log</h2>{_alert_table(suite)}</section>',
        f'<section id="faults"><h2>Fault injections</h2>{_fault_table(fault_events)}</section>',
        _chart_section(
            "deficit-queue", "Carbon-deficit queue",
            "q(t) in MWh after each slot's update (Eq. 17)",
            [("queue", "--series-1", ys_q)], xs_q if queue else None, unit=" MWh",
            empty="no queue.update events — was a COCA controller traced?",
        ),
        _chart_section(
            "energy-mix", "Energy mix",
            "brown vs. renewable (on-site + off-site) energy per slot, MWh",
            [("brown", "--series-2", mix_brown), ("renewable", "--series-1", mix_green)],
            mix_xs if len(mix_xs) else None, unit=" MWh",
        ),
        _chart_section(
            "cost", "Operating cost",
            "realized cost per slot, $ (electricity + delay)",
            [("cost", "--series-1", ys_c)], xs_c if cost else None, unit=" $",
        ),
        _chart_section(
            "v-weighted-price", "V-weighted price",
            "V × electricity price per slot — the cost side of the P3 trade-off "
            "against queue pressure",
            [("V*price", "--series-1", ys_vp)], xs_vp if vprice else None,
        ),
        _chart_section(
            "gsd", "GSD solve times", gsd_blurb,
            [("solve time", "--series-1", np.asarray(gsd_times))],
            xs_g if len(gsd_times) >= 2 else None, unit=" s",
            empty="no gsd.solve events — the run did not use the GSD solver",
        ),
    ]

    page_title = _esc(title or "COCA run health report")
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{page_title}</title>
<style>{_CSS}</style>
</head>
<body>
<main>
<h1>{page_title}</h1>
<p class="subtitle">{_esc(' · '.join(meta_bits))}</p>
{''.join(sections)}
<footer>generated by <code>repro dashboard</code> — schema and monitor catalog in
docs/MONITORING.md</footer>
</main>
</body>
</html>
"""


def write_dashboard(
    events: list[dict],
    path: str,
    *,
    suite: MonitorSuite | None = None,
    title: str | None = None,
) -> str:
    """Render and write the report; returns the path written."""
    html = render_dashboard(events, suite=suite, title=title)
    with open(path, "w") as fh:
        fh.write(html)
    return str(path)
