"""Self-contained HTML observability dashboard.

Renders a :class:`~repro.telemetry.spans.Tracer` (or an exported JSONL
trace file) into **one** HTML file with zero external references -- no
CDN, no scripts, no fonts, no network: inline CSS and inline SVG only, so
the artifact can be archived with a run, attached to CI, or opened from a
cluster head node years later.

Per traced run the dashboard shows:

- a per-rank phase timeline (compute / ghost-exchange / sync per rank,
  sense / migrate on the runtime track) over simulated time, with spans
  on the iteration critical path (from
  :func:`repro.telemetry.profile.analyze_critical_path`) outlined;
- a critical-path panel: phase breakdown of the path, balance headroom
  and the most frequent bottleneck ranks;
- a rank-by-rank communication heatmap (bytes exchanged per directed
  pair, derated links outlined) from the ``comm.exchange`` events;
- the residual-imbalance trajectory with the paper's 40 % bound drawn,
  anomaly markers overlaid;
- the evolution of sensed relative capacities per node;

plus overall stat tiles and the anomaly table from the health analysis in
:mod:`repro.telemetry.analysis` (the dashboard always re-derives health
from the spans it renders, so a trace file needs no side-channel data).

Colors follow a fixed categorical order validated for color-vision
deficiency (adjacent-pair safe in light and dark mode); anomalies use the
reserved status palette and always carry text, never color alone.
"""

from __future__ import annotations

import html
import math
import os
from typing import Any, Iterable, Sequence

from repro.telemetry.analysis import (
    PAPER_IMBALANCE_BOUND_PCT,
    HealthEvent,
    HealthSnapshot,
    analyze_records,
    fault_summary,
)
from repro.telemetry.profile import (
    CommProfile,
    RunCriticalPath,
    _as_records,
    analyze_critical_path,
    comm_profile,
    load_trace_records,
)
from repro.telemetry.spans import NullTracer, Tracer

__all__ = ["render_dashboard", "write_dashboard", "load_trace_records"]

#: Cap on timeline rectangles per run: beyond it the tail is dropped and
#: the truncation is stated on the chart (silent truncation would read as
#: "covered everything").
MAX_TIMELINE_RECTS = 4000

#: Nodes drawn individually on the capacity chart (the categorical
#: palette has eight validated slots; more nodes fold into a note).
MAX_CAPACITY_LINES = 8

# Fixed categorical slot order (validated palette; never cycled).
_LIGHT = {
    "compute": "#2a78d6",  # slot 1, blue
    "ghost-exchange": "#eb6834",  # slot 2, orange
    "sync": "#1baf7a",  # slot 3, aqua
    "sense": "#eda100",  # slot 4, yellow
    "migrate": "#e87ba4",  # slot 5, magenta
    "partition": "#4a3aa7",  # slot 7, violet
}
_DARK = {
    "compute": "#3987e5",
    "ghost-exchange": "#d95926",
    "sync": "#199e70",
    "sense": "#c98500",
    "migrate": "#d55181",
    "partition": "#9085e9",
}
_SERIES_LIGHT = (
    "#2a78d6", "#eb6834", "#1baf7a", "#eda100",
    "#e87ba4", "#008300", "#4a3aa7", "#e34948",
)
_SERIES_DARK = (
    "#3987e5", "#d95926", "#199e70", "#c98500",
    "#d55181", "#008300", "#9085e9", "#e66767",
)
_STATUS = {"warning": "#fab219", "critical": "#d03b3b", "info": "#2a78d6"}

_TIMELINE_PHASES = ("compute", "ghost-exchange", "sync", "sense", "migrate")


# ----------------------------------------------------------------------
class _Scale:
    """Linear data->pixel mapping."""

    def __init__(self, lo: float, hi: float, px0: float, px1: float):
        self.lo = lo
        self.span = (hi - lo) or 1.0
        self.px0 = px0
        self.px_span = px1 - px0

    def __call__(self, v: float) -> float:
        return self.px0 + (v - self.lo) / self.span * self.px_span


def _esc(text: Any) -> str:
    return html.escape(str(text), quote=True)


def _fmt_seconds(s: float) -> str:
    if s >= 120:
        return f"{s / 60:.1f} min"
    if s >= 1:
        return f"{s:.1f} s"
    return f"{s * 1e3:.1f} ms"


def _fmt_bytes(b: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if b < 1024 or unit == "GiB":
            return f"{b:.1f} {unit}" if unit != "B" else f"{b:.0f} B"
        b /= 1024
    return f"{b:.1f} GiB"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / max(n, 1)
    mag = 10 ** int(f"{raw:e}".split("e")[1])
    for step in (1, 2, 2.5, 5, 10):
        if raw <= step * mag:
            raw = step * mag
            break
    first = int(lo / raw) * raw
    out = []
    t = first
    while t <= hi + raw * 1e-9:
        if t >= lo - raw * 1e-9:
            out.append(round(t, 10))
        t += raw
    return out or [lo]


# ----------------------------------------------------------------------
def _critical_keys(cp: RunCriticalPath | None) -> set[tuple]:
    """Identity keys of spans on a run's critical path.

    Keyed by (name, rank, start, end) rounded to nanoseconds -- segment
    boundaries are copied verbatim from the span records, so the rounding
    only guards against float formatting drift, not real ambiguity.
    """
    keys: set[tuple] = set()
    if cp is None:
        return keys
    for it in cp.iterations:
        for seg in it.segments:
            keys.add(
                (
                    seg.phase,
                    seg.rank,
                    round(seg.start_sim, 9),
                    round(seg.end_sim, 9),
                )
            )
    return keys


def _timeline_svg(
    run: dict[str, Any], critical: set[tuple] | None = None
) -> str:
    """Per-rank phase timeline for one run, as an inline SVG.

    Fault-injection and recovery instants (``fault.*`` / ``recovery.*``
    events) are drawn as full-height vertical markers so an outage lines
    up visually with the migration/repartition activity it triggered.
    Spans whose (name, rank, start, end) identity appears in ``critical``
    get the ``crit`` outline: they gate the iteration's wall time.
    """
    critical = critical or set()
    spans = [
        s
        for s in run["spans"]
        if s["name"] in _TIMELINE_PHASES and s.get("end_sim") is not None
    ]
    if not spans:
        return "<p class='muted'>no phase spans recorded for this run</p>"
    t0 = min(s["start_sim"] for s in spans)
    t1 = max(s["end_sim"] for s in spans)
    ranks = sorted(
        {s["rank"] for s in spans if s.get("rank") is not None}
    )
    rows = ["runtime"] + [f"rank {r}" for r in ranks]
    row_of = {None: 0}
    row_of.update({r: i + 1 for i, r in enumerate(ranks)})
    row_h, gap, left, right, top = 16, 4, 72, 12, 8
    width = 920
    height = top + len(rows) * (row_h + gap) + 24
    x = _Scale(t0, t1, left, width - right)
    parts = [
        f"<svg viewBox='0 0 {width} {height}' width='100%' "
        f"role='img' aria-label='per-rank phase timeline' "
        f"xmlns='http://www.w3.org/2000/svg'>"
    ]
    for i, label in enumerate(rows):
        y = top + i * (row_h + gap)
        parts.append(
            f"<text x='{left - 8}' y='{y + row_h - 4}' class='axis' "
            f"text-anchor='end'>{_esc(label)}</text>"
        )
        parts.append(
            f"<line x1='{left}' y1='{y + row_h}' x2='{width - right}' "
            f"y2='{y + row_h}' class='grid'/>"
        )
    truncated = 0
    if len(spans) > MAX_TIMELINE_RECTS:
        truncated = len(spans) - MAX_TIMELINE_RECTS
        spans = spans[:MAX_TIMELINE_RECTS]
    n_crit = 0
    for s in spans:
        y = top + row_of.get(s.get("rank"), 0) * (row_h + gap)
        x0 = x(s["start_sim"])
        w = max(x(s["end_sim"]) - x0, 0.6)
        on_path = (
            s["name"],
            s.get("rank"),
            round(s["start_sim"], 9),
            round(s["end_sim"], 9),
        ) in critical
        tip = (
            f"{s['name']}: {s['end_sim'] - s['start_sim']:.3f} sim s "
            f"@ t={s['start_sim']:.2f}"
        )
        if on_path:
            n_crit += 1
            tip += " [critical path]"
        cls = f"ph-{s['name']} crit" if on_path else f"ph-{s['name']}"
        parts.append(
            f"<rect x='{x0:.2f}' y='{y + 2}' width='{w:.2f}' "
            f"height='{row_h - 4}' rx='1.5' class='{cls}'>"
            f"<title>{_esc(tip)}</title></rect>"
        )
    axis_y = top + len(rows) * (row_h + gap) + 4
    fault_marks = [
        e
        for e in run.get("fault_events", [])
        if t0 <= e.get("sim", 0.0) <= t1
    ]
    for e in fault_marks:
        is_fault = e["name"].startswith("fault.")
        cls = "mark-fault" if is_fault else "mark-recovery"
        node = (e.get("attributes") or {}).get("node")
        tip = f"{e['name']} @ t={e['sim']:.2f}s"
        if node is not None:
            tip += f" (node {node})"
        parts.append(
            f"<line x1='{x(e['sim']):.2f}' y1='{top}' "
            f"x2='{x(e['sim']):.2f}' y2='{axis_y}' class='{cls}'>"
            f"<title>{_esc(tip)}</title></line>"
        )
    for t in _ticks(t0, t1):
        parts.append(
            f"<text x='{x(t):.1f}' y='{axis_y + 10}' class='axis' "
            f"text-anchor='middle'>{t:g}s</text>"
        )
    parts.append("</svg>")
    legend = "".join(
        f"<span class='chip'><i class='sw ph-{p}'></i>{p}</span>"
        for p in _TIMELINE_PHASES
    )
    if n_crit:
        legend += (
            "<span class='chip'><i class='sw sw-crit'></i>"
            "critical path</span>"
        )
    if fault_marks:
        legend += (
            "<span class='chip'><i class='sw sw-fault'></i>fault</span>"
            "<span class='chip'><i class='sw sw-recovery'></i>recovery</span>"
        )
    note = (
        f"<p class='muted'>timeline truncated: {truncated} spans not drawn"
        "</p>"
        if truncated
        else ""
    )
    return f"<div class='legend'>{legend}</div>{''.join(parts)}{note}"


def _line_path(points: Sequence[tuple[float, float]]) -> str:
    return " ".join(f"{px:.2f},{py:.2f}" for px, py in points)


def _imbalance_svg(
    snapshots: list[HealthSnapshot],
    events: list[HealthEvent],
    bound_pct: float = PAPER_IMBALANCE_BOUND_PCT,
) -> str:
    """Imbalance trajectory with the paper bound and anomaly markers."""
    pts = [
        (s.iteration, s.imbalance_pct)
        for s in snapshots
        if s.imbalance_pct is not None
    ]
    if not pts:
        return "<p class='muted'>no imbalance signal in this run's trace</p>"
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    width, height = 920, 220
    left, right, top, bottom = 56, 12, 10, 28
    y_max = max(max(ys) * 1.15, bound_pct * 1.25, 1.0)
    x = _Scale(min(xs), max(xs) or 1, left, width - right)
    y = _Scale(0.0, y_max, height - bottom, top)
    parts = [
        f"<svg viewBox='0 0 {width} {height}' width='100%' role='img' "
        f"aria-label='residual imbalance per iteration' "
        f"xmlns='http://www.w3.org/2000/svg'>"
    ]
    for t in _ticks(0.0, y_max, 4):
        parts.append(
            f"<line x1='{left}' y1='{y(t):.1f}' x2='{width - right}' "
            f"y2='{y(t):.1f}' class='grid'/>"
            f"<text x='{left - 6}' y='{y(t) + 4:.1f}' class='axis' "
            f"text-anchor='end'>{t:g}%</text>"
        )
    for t in _ticks(min(xs), max(xs)):
        parts.append(
            f"<text x='{x(t):.1f}' y='{height - 8}' class='axis' "
            f"text-anchor='middle'>{t:g}</text>"
        )
    # The paper's bound, drawn as a reference line with its own label.
    by = y(bound_pct)
    parts.append(
        f"<line x1='{left}' y1='{by:.1f}' x2='{width - right}' "
        f"y2='{by:.1f}' class='bound'/>"
        f"<text x='{width - right}' y='{by - 5:.1f}' class='bound-label' "
        f"text-anchor='end'>{bound_pct:g}% paper bound</text>"
    )
    parts.append(
        f"<polyline fill='none' class='line-imb' "
        f"points='{_line_path([(x(a), y(b)) for a, b in pts])}'/>"
    )
    for a, b in pts:
        parts.append(
            f"<circle cx='{x(a):.1f}' cy='{y(b):.1f}' r='2.5' "
            f"class='dot-imb'><title>"
            f"{_esc(f'iteration {a}: {b:.2f}% mean imbalance')}"
            f"</title></circle>"
        )
    by_iter = {p[0]: p[1] for p in pts}
    for event in events:
        if event.iteration not in by_iter:
            continue
        color = _STATUS.get(event.severity, _STATUS["info"])
        parts.append(
            f"<circle cx='{x(event.iteration):.1f}' "
            f"cy='{y(by_iter[event.iteration]):.1f}' r='5' fill='none' "
            f"stroke='{color}' stroke-width='2'>"
            f"<title>{_esc(f'[{event.severity}] {event.message}')}</title>"
            f"</circle>"
        )
    parts.append("</svg>")
    legend = (
        "<div class='legend'>"
        "<span class='chip'><i class='sw' style='background:var(--s1)'></i>"
        "mean residual imbalance</span>"
        "<span class='chip'><i class='sw ring-warning'></i>anomaly "
        "(warning)</span>"
        "<span class='chip'><i class='sw ring-critical'></i>anomaly "
        "(critical)</span></div>"
    )
    return legend + "".join(parts)


def _capacity_svg(run: dict[str, Any]) -> str:
    """Sensed relative capacities per node over simulated time."""
    senses = [
        s
        for s in run["spans"]
        if s["name"] == "sense"
        and s.get("attributes", {}).get("capacities") is not None
    ]
    series: dict[int, list[tuple[float, float]]] = {}
    for s in sorted(senses, key=lambda r: r.get("end_sim") or 0.0):
        caps = s["attributes"]["capacities"]
        t = s.get("end_sim") or s["start_sim"]
        for node, c in enumerate(caps):
            series.setdefault(node, []).append((t, float(c)))
    if not series:
        return "<p class='muted'>no capacity history in this run's trace</p>"
    shown = sorted(series)[:MAX_CAPACITY_LINES]
    hidden = len(series) - len(shown)
    width, height = 920, 200
    left, right, top, bottom = 56, 12, 10, 28
    all_pts = [p for n in shown for p in series[n]]
    t_lo = min(p[0] for p in all_pts)
    t_hi = max(p[0] for p in all_pts)
    c_hi = max(max(p[1] for p in all_pts) * 1.2, 1e-6)
    x = _Scale(t_lo, t_hi, left, width - right)
    y = _Scale(0.0, c_hi, height - bottom, top)
    parts = [
        f"<svg viewBox='0 0 {width} {height}' width='100%' role='img' "
        f"aria-label='sensed relative capacity per node' "
        f"xmlns='http://www.w3.org/2000/svg'>"
    ]
    for t in _ticks(0.0, c_hi, 3):
        parts.append(
            f"<line x1='{left}' y1='{y(t):.1f}' x2='{width - right}' "
            f"y2='{y(t):.1f}' class='grid'/>"
            f"<text x='{left - 6}' y='{y(t) + 4:.1f}' class='axis' "
            f"text-anchor='end'>{t:.2g}</text>"
        )
    for t in _ticks(t_lo, t_hi):
        parts.append(
            f"<text x='{x(t):.1f}' y='{height - 8}' class='axis' "
            f"text-anchor='middle'>{t:g}s</text>"
        )
    for i, node in enumerate(shown):
        pts = series[node]
        parts.append(
            f"<polyline fill='none' class='cap-{i}' "
            f"points='{_line_path([(x(a), y(b)) for a, b in pts])}'/>"
        )
        for a, b in pts:
            parts.append(
                f"<circle cx='{x(a):.1f}' cy='{y(b):.1f}' r='2.5' "
                f"class='cap-dot-{i}'><title>"
                f"{_esc(f'node {node} @ t={a:.1f}s: C={b:.4f}')}"
                f"</title></circle>"
            )
    parts.append("</svg>")
    legend = "".join(
        f"<span class='chip'><i class='sw cap-sw-{i}'></i>node {node}</span>"
        for i, node in enumerate(shown)
    )
    note = (
        f"<span class='chip muted'>+{hidden} more nodes not drawn</span>"
        if hidden > 0
        else ""
    )
    return f"<div class='legend'>{legend}{note}</div>{''.join(parts)}"


# ----------------------------------------------------------------------
def _comm_heatmap_svg(profile: CommProfile | None) -> str:
    """Rank-by-rank communication heatmap (directed: row=src, col=dst).

    Cell shade scales with sqrt(bytes) so a dominant pair does not wash
    out the rest of the matrix; cells on derated links (effective
    bandwidth below nominal at send time) get the critical outline.
    Every cell carries a text tooltip -- shade is never the only signal.
    """
    if profile is None or profile.total.size == 0:
        return (
            "<p class='muted'>no communication events in this run's trace "
            "(older traces predate comm profiling)</p>"
        )
    matrix = profile.total
    n = matrix.size
    max_bytes = max(
        (matrix.bytes[i][j] for i in range(n) for j in range(n)), default=0.0
    )
    if max_bytes <= 0:
        return "<p class='muted'>communication events carried zero bytes</p>"
    cell = max(12, min(34, int(380 / n)))
    left, top, pad = 64, 22, 8
    width = left + n * cell + pad
    height = top + n * cell + pad + 14
    parts = [
        f"<svg viewBox='0 0 {width} {height}' "
        f"width='{min(width, 560)}' role='img' "
        f"aria-label='rank-by-rank communication volume' "
        f"xmlns='http://www.w3.org/2000/svg'>"
    ]
    parts.append(
        f"<text x='{left + n * cell / 2:.0f}' y='{top - 10}' class='axis' "
        f"text-anchor='middle'>destination rank</text>"
    )
    label_step = max(1, n // 16)
    for r in range(n):
        if r % label_step == 0:
            parts.append(
                f"<text x='{left + r * cell + cell / 2:.1f}' y='{top - 1}' "
                f"class='axis' text-anchor='middle'>{r}</text>"
            )
            parts.append(
                f"<text x='{left - 5}' y='{top + r * cell + cell / 2 + 3:.1f}'"
                f" class='axis' text-anchor='end'>src {r}</text>"
            )
    for src in range(n):
        for dst in range(n):
            b = matrix.bytes[src][dst]
            xp = left + dst * cell
            yp = top + src * cell
            if b <= 0:
                parts.append(
                    f"<rect x='{xp}' y='{yp}' width='{cell - 1}' "
                    f"height='{cell - 1}' class='hm-empty'/>"
                )
                continue
            op = max(0.08, (b / max_bytes) ** 0.5)
            derated = matrix.derated_bytes[src][dst] > 0
            cls = "hm hm-derated" if derated else "hm"
            tip = (
                f"rank {src} -> rank {dst}: {_fmt_bytes(b)}, "
                f"{matrix.seconds[src][dst]:.3f} s, "
                f"{matrix.messages[src][dst]} msgs"
            )
            if derated:
                tip += (
                    f" ({_fmt_bytes(matrix.derated_bytes[src][dst])}"
                    " over a derated link)"
                )
            parts.append(
                f"<rect x='{xp}' y='{yp}' width='{cell - 1}' "
                f"height='{cell - 1}' class='{cls}' "
                f"fill-opacity='{op:.3f}'>"
                f"<title>{_esc(tip)}</title></rect>"
            )
    parts.append("</svg>")
    derated_total = matrix.derated_bytes_total
    phase_note = ", ".join(
        f"{name} {_fmt_bytes(m.bytes_total)}"
        for name, m in sorted(profile.phases.items())
    )
    summary = (
        f"{_fmt_bytes(matrix.bytes_total)} over {profile.events} exchange "
        f"events ({phase_note})"
    )
    if derated_total > 0:
        pct = 100.0 * derated_total / max(matrix.bytes_total, 1e-30)
        summary += (
            f"; {pct:.1f}% of bytes crossed a derated link"
        )
    if profile.pairs_dropped:
        summary += (
            f"; per-pair detail truncated for {profile.pairs_dropped} pairs"
        )
    legend = (
        "<div class='legend'>"
        "<span class='chip'><i class='sw' style='background:var(--s1)'></i>"
        "bytes (sqrt shade)</span>"
        "<span class='chip'><i class='sw sw-derated'></i>derated link</span>"
        f"<span class='chip muted'>{_esc(summary)}</span></div>"
    )
    return legend + "".join(parts)


def _critical_path_panel(cp: RunCriticalPath | None) -> str:
    """Phase breakdown of the run's critical path, plus slack attribution.

    Answers the two introspection questions directly: *which phase/rank
    bounds this run* (the breakdown and bottleneck-rank counts) and
    *would a better partition have helped* (the balance-headroom bound:
    seconds a perfect capacity-proportional split could save, assuming
    uniform per-rank speeds).
    """
    if cp is None or not cp.iterations:
        return (
            "<p class='muted'>no priced iterations in this run's trace"
            "</p>"
        )
    total = cp.total_s or 1.0
    rows = []
    for phase, secs in (
        ("compute", cp.compute_s),
        ("ghost-exchange", cp.comm_s),
        ("sync", cp.sync_s),
        ("barrier (residual)", cp.barrier_s),
    ):
        pct = 100.0 * secs / total
        bar_w = max(0.0, min(100.0, pct))
        sw = phase.split(" ")[0] if phase != "barrier (residual)" else None
        chip = (
            f"<i class='sw ph-{sw}'></i>"
            if sw in ("compute", "ghost-exchange", "sync")
            else "<i class='sw sw-barrier'></i>"
        )
        rows.append(
            "<tr>"
            f"<td>{chip} {_esc(phase)}</td>"
            f"<td>{_fmt_seconds(secs)}</td>"
            f"<td>{pct:.1f}%</td>"
            f"<td><div class='bar'><div class='bar-fill' "
            f"style='width:{bar_w:.1f}%'></div></div></td>"
            "</tr>"
        )
    table = (
        "<table><thead><tr><th>path phase</th><th>time</th><th>share</th>"
        "<th></th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )
    headroom_pct = 100.0 * cp.balance_headroom_s / total
    counts = cp.critical_rank_counts
    top_ranks = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    bottlenecks = ", ".join(
        f"rank {r} x{c}" for r, c in top_ranks
    ) or "none attributed"
    note = (
        f"<p class='muted'>critical path over {len(cp.iterations)} "
        f"iterations: {_fmt_seconds(cp.total_s)} -- equals the summed "
        "iteration wall time by construction. Bottleneck ranks: "
        f"{_esc(bottlenecks)}. Perfect rebalancing headroom: "
        f"{_fmt_seconds(cp.balance_headroom_s)} ({headroom_pct:.1f}% of "
        "the path; upper bound assuming uniform per-rank speeds).</p>"
    )
    return table + note


# ----------------------------------------------------------------------
def _stat_tiles(
    runs: list[dict[str, Any]],
    snapshots: list[HealthSnapshot],
    events: list[HealthEvent],
) -> str:
    total_sim = sum(r["duration"] for r in runs)
    iterations = len(snapshots)
    imbs = [s.imbalance_pct for s in snapshots if s.imbalance_pct is not None]
    worst_imb = max(imbs) if imbs else 0.0
    mig_bytes = sum(s.migration_bytes for s in snapshots)
    overheads = [
        s.probe_overhead_fraction
        for r in runs
        for s in (r["snapshots"][-1:] if r["snapshots"] else [])
    ]
    probe_frac = max(overheads) if overheads else 0.0
    crit = sum(1 for e in events if e.severity == "critical")
    anomaly_note = (
        f"{len(events)} ({crit} critical)" if events else "none detected"
    )
    over = worst_imb > PAPER_IMBALANCE_BOUND_PCT
    tiles = [
        ("traced runs", str(len(runs)), ""),
        ("simulated time", _fmt_seconds(total_sim), ""),
        ("iterations", str(iterations), ""),
        (
            "worst mean imbalance",
            f"{worst_imb:.1f}%",
            f"bound {PAPER_IMBALANCE_BOUND_PCT:g}%"
            + (" — exceeded" if over else ""),
        ),
        ("probe overhead", f"{probe_frac:.1%}", "of elapsed sim time"),
        ("migration volume", _fmt_bytes(mig_bytes), ""),
        ("anomalies", anomaly_note, ""),
    ]
    cells = "".join(
        f"<div class='tile{' tile-bad' if 'exceeded' in sub else ''}'>"
        f"<div class='tile-label'>{_esc(label)}</div>"
        f"<div class='tile-value'>{_esc(value)}</div>"
        f"<div class='tile-sub'>{_esc(sub)}</div></div>"
        for label, value, sub in tiles
    )
    return f"<div class='tiles'>{cells}</div>"


def _events_table(events: list[HealthEvent]) -> str:
    if not events:
        return (
            "<p class='muted'>no anomalies: every iteration stayed inside "
            "the configured bounds.</p>"
        )
    rows = "".join(
        "<tr>"
        f"<td><span class='badge badge-{_esc(e.severity)}'>"
        f"{_esc(e.severity)}</span></td>"
        f"<td>{_esc(e.kind)}</td><td>{e.pid}</td><td>{e.iteration}</td>"
        f"<td>{e.sim_time:.2f}</td><td>{_esc(e.message)}</td>"
        "</tr>"
        for e in events
    )
    return (
        "<table><thead><tr><th>severity</th><th>kind</th><th>run</th>"
        "<th>iteration</th><th>sim t (s)</th><th>detail</th></tr></thead>"
        f"<tbody>{rows}</tbody></table>"
    )


def _fault_table(fault_events: list[dict[str, Any]]) -> str:
    """Chronological fault / recovery event table (chaos runs only)."""
    rows = []
    for e in sorted(fault_events, key=lambda r: r.get("sim", 0.0)):
        attrs = e.get("attributes") or {}
        is_fault = e["name"].startswith("fault.")
        badge = "critical" if is_fault else "info"
        detail = ", ".join(
            f"{k}={v}"
            for k, v in sorted(attrs.items())
            if isinstance(v, (int, float, str, bool))
        )
        rows.append(
            "<tr>"
            f"<td><span class='badge badge-{badge}'>"
            f"{'fault' if is_fault else 'recovery'}</span></td>"
            f"<td>{_esc(e['name'])}</td><td>{e.get('pid', 0)}</td>"
            f"<td>{e.get('sim', 0.0):.2f}</td><td>{_esc(detail)}</td>"
            "</tr>"
        )
    return (
        "<table><thead><tr><th>class</th><th>event</th><th>run</th>"
        "<th>sim t (s)</th><th>detail</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


def _run_summary_table(runs: list[dict[str, Any]]) -> str:
    rows = []
    for r in runs:
        snaps = r["snapshots"]
        imbs = [s.imbalance_pct for s in snaps if s.imbalance_pct is not None]
        worst = f"{max(imbs):.1f}%" if imbs else "—"
        last = snaps[-1] if snaps else None
        stale = (
            f"{last.staleness_s:.1f}"
            if last is not None and last.staleness_s is not None
            else "—"
        )
        frac = (
            f"{last.probe_overhead_fraction:.1%}" if last is not None else "—"
        )
        rows.append(
            "<tr>"
            f"<td>{r['pid']}</td><td>{_esc(r['label'] or '—')}</td>"
            f"<td>{len(snaps)}</td>"
            f"<td>{_fmt_seconds(r['duration'])}</td>"
            f"<td>{worst}</td><td>{frac}</td><td>{stale}</td>"
            f"<td>{len(r['events'])}</td></tr>"
        )
    return (
        "<table><thead><tr><th>run</th><th>label</th><th>iterations</th>"
        "<th>sim time</th><th>worst imbalance</th><th>probe overhead</th>"
        "<th>final staleness (s)</th><th>anomalies</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


def _css() -> str:
    light_ph = "".join(
        f".ph-{k}{{fill:{v}}}.sw.ph-{k}{{background:{v}}}"
        for k, v in _LIGHT.items()
    )
    dark_ph = "".join(
        f".ph-{k}{{fill:{v}}}.sw.ph-{k}{{background:{v}}}"
        for k, v in _DARK.items()
    )
    light_cap = "".join(
        f".cap-{i}{{stroke:{c};stroke-width:2}}"
        f".cap-dot-{i}{{fill:{c}}}.cap-sw-{i}{{background:{c}}}"
        for i, c in enumerate(_SERIES_LIGHT)
    )
    dark_cap = "".join(
        f".cap-{i}{{stroke:{c};stroke-width:2}}"
        f".cap-dot-{i}{{fill:{c}}}.cap-sw-{i}{{background:{c}}}"
        for i, c in enumerate(_SERIES_DARK)
    )
    return f"""
:root {{
  color-scheme: light dark;
}}
body {{
  --surface-1:#fcfcfb; --page:#f9f9f7; --ink:#0b0b0b; --ink-2:#52514e;
  --muted:#898781; --grid:#e1e0d9; --axis:#c3c2b7; --s1:#2a78d6;
  --warning:#fab219; --critical:#d03b3b;
  --border:rgba(11,11,11,0.10);
  margin:0; background:var(--page); color:var(--ink);
  font:14px/1.5 system-ui,-apple-system,"Segoe UI",sans-serif;
}}
{light_ph}{light_cap}
@media (prefers-color-scheme: dark) {{
  body {{
    --surface-1:#1a1a19; --page:#0d0d0d; --ink:#ffffff; --ink-2:#c3c2b7;
    --muted:#898781; --grid:#2c2c2a; --axis:#383835; --s1:#3987e5;
    --border:rgba(255,255,255,0.10);
  }}
  {dark_ph}{dark_cap}
}}
main {{ max-width: 1020px; margin: 0 auto; padding: 24px 16px 64px; }}
h1 {{ font-size: 20px; margin: 0 0 2px; }}
h2 {{ font-size: 16px; margin: 28px 0 8px; }}
h3 {{ font-size: 13px; margin: 16px 0 4px; color: var(--ink-2);
     font-weight: 600; }}
.subtitle {{ color: var(--ink-2); margin: 0 0 20px; }}
.card {{ background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; margin: 10px 0; }}
.tiles {{ display: grid; gap: 10px;
  grid-template-columns: repeat(auto-fit, minmax(128px, 1fr)); }}
.tile {{ background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 12px; }}
.tile-label {{ font-size: 11px; color: var(--ink-2);
  text-transform: uppercase; letter-spacing: .04em; }}
.tile-value {{ font-size: 22px; font-weight: 600; margin: 2px 0; }}
.tile-sub {{ font-size: 11px; color: var(--muted); min-height: 1em; }}
.tile-bad .tile-value, .tile-bad .tile-sub {{ color: var(--critical); }}
svg {{ display: block; }}
svg .grid {{ stroke: var(--grid); stroke-width: 1; }}
svg .axis {{ fill: var(--muted); font-size: 10px;
  font-family: system-ui,sans-serif; }}
svg .bound {{ stroke: var(--critical); stroke-width: 1.5;
  stroke-dasharray: 6 4; }}
svg .bound-label {{ fill: var(--critical); font-size: 10px;
  font-family: system-ui,sans-serif; }}
svg .line-imb {{ stroke: var(--s1); stroke-width: 2; }}
svg .dot-imb {{ fill: var(--s1); }}
.legend {{ display: flex; flex-wrap: wrap; gap: 10px;
  margin: 4px 0 6px; }}
.chip {{ display: inline-flex; align-items: center; gap: 5px;
  font-size: 12px; color: var(--ink-2); }}
.sw {{ width: 10px; height: 10px; border-radius: 2px;
  display: inline-block; }}
.ring-warning {{ background: none; border: 2px solid var(--warning);
  border-radius: 50%; }}
.ring-critical {{ background: none; border: 2px solid var(--critical);
  border-radius: 50%; }}
svg .mark-fault {{ stroke: var(--critical); stroke-width: 1.5;
  stroke-dasharray: 3 3; }}
svg .mark-recovery {{ stroke: #008300; stroke-width: 1.5;
  stroke-dasharray: 3 3; }}
.sw-fault {{ background: var(--critical); }}
.sw-recovery {{ background: #008300; }}
svg rect.crit {{ stroke: var(--ink); stroke-width: 1.1; }}
.sw-crit {{ background: none; border: 1.5px solid var(--ink);
  border-radius: 2px; }}
svg .hm {{ fill: var(--s1); }}
svg .hm-empty {{ fill: none; stroke: var(--grid); stroke-width: 0.5; }}
svg .hm-derated {{ stroke: var(--critical); stroke-width: 1.4; }}
.sw-derated {{ background: none; border: 1.5px solid var(--critical);
  border-radius: 2px; }}
.sw-barrier {{ background: var(--axis); }}
.bar {{ background: var(--grid); border-radius: 3px; height: 8px;
  min-width: 120px; }}
.bar-fill {{ background: var(--s1); border-radius: 3px; height: 8px; }}
.bar-cost {{ background: var(--warning); }}
.bar + .bar {{ margin-top: 2px; }}
svg .cal-band {{ fill: var(--s1); opacity: 0.16; }}
svg .cal-line {{ stroke: var(--s1); stroke-width: 2; }}
svg .cal-hit {{ fill: var(--s1); }}
svg .cal-miss {{ fill: var(--critical); }}
.muted {{ color: var(--muted); font-size: 12px; }}
table {{ border-collapse: collapse; width: 100%; font-size: 13px; }}
th, td {{ text-align: left; padding: 5px 10px;
  border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums; }}
th {{ color: var(--ink-2); font-weight: 600; font-size: 12px; }}
.badge {{ display: inline-block; padding: 1px 7px; border-radius: 9px;
  font-size: 11px; font-weight: 600; color: #0b0b0b; }}
.badge-warning {{ background: var(--warning); }}
.badge-critical {{ background: var(--critical); color: #ffffff; }}
.badge-info {{ background: var(--s1); color: #ffffff; }}
"""


def _fault_section(fault_events: list[dict[str, Any]]) -> str:
    """Fault/recovery section: omitted entirely on undisturbed runs."""
    if not fault_events:
        return ""
    agg = fault_summary(fault_events)
    ttr = agg["mean_time_to_recover_s"]
    sub = (
        f"{agg['num_fault_events']} fault events, "
        f"{agg['num_recovery_events']} recovery events"
        + (f", mean time-to-recover {_fmt_seconds(ttr)}" if ttr else "")
    )
    return (
        "<h2>Faults and recoveries</h2>"
        f"<p class='muted'>{_esc(sub)}</p>"
        f"<div class='card'>{_fault_table(fault_events)}</div>"
    )


def _decision_rows(
    decision_events: list[dict[str, Any]],
) -> list[dict[str, Any]]:
    """Map ``decision.*`` trace events back to ledger-shaped records.

    Each event mirrors its full ledger row (the ``kind`` rides in the
    event name), so :func:`repro.learn.audit.reconcile` computes the
    same calibration and regret numbers from a trace that
    ``repro explain`` computes from the ledger file.
    """
    rows = []
    for e in decision_events:
        attrs = dict(e.get("attributes") or {})
        kind = str(e.get("name", ""))[len("decision."):]
        rows.append({"kind": kind, **attrs})
    rows.sort(key=lambda r: int(r.get("seq", 0)))
    return rows


def _gate_table(
    gate_rows: list[dict[str, Any]],
    per_decision: list[dict[str, Any]],
) -> str:
    """Accept/skip timeline with predicted-payoff vs migration-cost bars."""
    from repro.learn.audit import decode_float

    if not gate_rows:
        return (
            "<p class='muted'>no gate decisions in this run's trace</p>"
        )
    oracle_by_seq = {int(d["seq"]): d for d in per_decision}
    finite = [
        v
        for r in gate_rows
        for v in (
            decode_float(r.get("payoff_seconds")),
            decode_float(r.get("cost_seconds")),
        )
        if v is not None and math.isfinite(v)
    ]
    scale = max(finite) if finite else 1.0
    scale = scale if scale > 0 else 1.0
    rows = []
    for r in gate_rows:
        payoff = decode_float(r.get("payoff_seconds"))
        cost = decode_float(r.get("cost_seconds")) or 0.0
        accept = bool(r.get("repartition"))
        badge = "info" if accept else "warning"
        if payoff is not None and math.isinf(payoff):
            payoff_label, payoff_w = "∞ (cold)", 100.0
        else:
            payoff_label = _fmt_seconds(payoff or 0.0)
            payoff_w = min(100.0, 100.0 * (payoff or 0.0) / scale)
        cost_w = min(100.0, 100.0 * cost / scale)
        oracle = oracle_by_seq.get(int(r.get("seq", -1)))
        if oracle is None:
            verdict = "—"
        elif oracle["agree"]:
            verdict = "agrees"
        else:
            verdict = (
                f"differs (+{_fmt_seconds(oracle['regret_seconds'])} "
                f"regret)"
            )
        rows.append(
            "<tr>"
            f"<td>{int(r.get('seq', -1))}</td>"
            f"<td>{float(decode_float(r.get('t')) or 0.0):.2f}</td>"
            f"<td><span class='badge badge-{badge}'>"
            f"{'accept' if accept else 'skip'}</span></td>"
            f"<td>{_esc(str(r.get('reason', '?')))}</td>"
            f"<td>{_esc(payoff_label)}</td>"
            f"<td>{_fmt_seconds(cost)}</td>"
            "<td>"
            f"<div class='bar'><div class='bar-fill' "
            f"style='width:{payoff_w:.1f}%'></div></div>"
            f"<div class='bar'><div class='bar-fill bar-cost' "
            f"style='width:{cost_w:.1f}%'></div></div>"
            "</td>"
            f"<td>{_esc(verdict)}</td>"
            "</tr>"
        )
    legend = (
        "<div class='legend'>"
        "<span class='chip'><i class='sw' style='background:var(--s1)'>"
        "</i>predicted payoff</span>"
        "<span class='chip'><i class='sw' "
        "style='background:var(--warning)'></i>migration cost</span>"
        "</div>"
    )
    return legend + (
        "<table><thead><tr><th>seq</th><th>sim t (s)</th><th>action</th>"
        "<th>reason</th><th>payoff</th><th>cost</th>"
        "<th>payoff vs cost</th><th>hindsight oracle</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


def _calibration_svg(rows: list[dict[str, Any]]) -> str:
    """Predicted iteration cost with its 95% CI band vs the measured truth."""
    from repro.learn.audit import decode_float

    pts = []
    for r in rows:
        if r.get("kind") != "prediction":
            continue
        lo = decode_float(r.get("lo"))
        hi = decode_float(r.get("hi"))
        predicted = decode_float(r.get("predicted"))
        actual = decode_float(r.get("actual"))
        if predicted is None or actual is None:
            continue
        if lo is None or hi is None or not (
            math.isfinite(lo) and math.isfinite(hi)
        ):
            continue  # cold model: an infinite band draws as nothing
        pts.append((int(r.get("iteration", len(pts))), predicted, lo, hi,
                    actual))
    if len(pts) < 2:
        return (
            "<p class='muted'>fewer than two warm predictions: no "
            "calibration signal to draw</p>"
        )
    pts.sort(key=lambda p: p[0])
    xs = [p[0] for p in pts]
    y_lo = min(min(p[2] for p in pts), min(p[4] for p in pts))
    y_hi = max(max(p[3] for p in pts), max(p[4] for p in pts))
    pad = 0.05 * (y_hi - y_lo or 1.0)
    width, height = 920, 220
    left, right, top, bottom = 56, 12, 10, 28
    x = _Scale(min(xs), max(xs) or 1, left, width - right)
    y = _Scale(y_lo - pad, y_hi + pad, height - bottom, top)
    parts = [
        f"<svg viewBox='0 0 {width} {height}' width='100%' role='img' "
        f"aria-label='predicted iteration cost with 95% CI vs measured' "
        f"xmlns='http://www.w3.org/2000/svg'>"
    ]
    for t in _ticks(y_lo, y_hi, 4):
        parts.append(
            f"<line x1='{left}' y1='{y(t):.1f}' x2='{width - right}' "
            f"y2='{y(t):.1f}' class='grid'/>"
            f"<text x='{left - 6}' y='{y(t) + 4:.1f}' class='axis' "
            f"text-anchor='end'>{t:.3g}s</text>"
        )
    for t in _ticks(min(xs), max(xs)):
        parts.append(
            f"<text x='{x(t):.1f}' y='{height - 8}' class='axis' "
            f"text-anchor='middle'>{t:g}</text>"
        )
    band = " ".join(
        f"{x(p[0]):.1f},{y(p[3]):.1f}" for p in pts
    ) + " " + " ".join(
        f"{x(p[0]):.1f},{y(p[2]):.1f}" for p in reversed(pts)
    )
    parts.append(f"<polygon points='{band}' class='cal-band'/>")
    parts.append(
        f"<polyline fill='none' class='cal-line' "
        f"points='{_line_path([(x(p[0]), y(p[1])) for p in pts])}'/>"
    )
    for it, predicted, lo, hi, actual in pts:
        covered = lo <= actual <= hi
        cls = "cal-hit" if covered else "cal-miss"
        parts.append(
            f"<circle cx='{x(it):.1f}' cy='{y(actual):.1f}' r='2.5' "
            f"class='{cls}'><title>"
            f"{_esc(f'iteration {it}: measured {actual:.4f}s, predicted {predicted:.4f}s, 95% CI [{lo:.4f}, {hi:.4f}]' + ('' if covered else ' — missed'))}"
            f"</title></circle>"
        )
    parts.append("</svg>")
    legend = (
        "<div class='legend'>"
        "<span class='chip'><i class='sw' style='background:var(--s1)'>"
        "</i>predicted cost (line) and 95% CI (band)</span>"
        "<span class='chip'><i class='sw cal-sw-miss' "
        "style='background:var(--critical)'></i>measured outside the CI"
        "</span></div>"
    )
    return legend + "".join(parts)


def _decision_section(decision_events: list[dict[str, Any]]) -> str:
    """Decision-provenance section: omitted when no learner ran.

    One card per traced run carrying ``decision.*`` events: the gate
    accept/skip timeline with payoff-vs-cost bars, and the calibration
    plot of one-step-ahead cost predictions against measured truth.
    The headline numbers come from the same
    :func:`repro.learn.audit.reconcile` that backs ``repro explain``
    and ``/campaigns/<id>/decisions``.
    """
    if not decision_events:
        return ""
    from repro.learn.audit import reconcile

    pids = sorted({e.get("pid", 0) for e in decision_events})
    parts = ["<h2>Decision provenance</h2>"]
    for pid in pids:
        rows = _decision_rows(
            [e for e in decision_events if e.get("pid", 0) == pid]
        )
        report = reconcile(rows)
        gate = report["gate"]
        cal = report["calibration"]
        regret = report["regret"]
        coverage = (
            f"{cal['coverage']:.1%} of {cal['predictions']} warm CIs"
            if cal["coverage"] is not None
            else "no warm predictions"
        )
        agreement = (
            f"{regret['agreement_rate']:.0%} oracle agreement, "
            f"{_fmt_seconds(regret['cumulative_regret_seconds'])} "
            f"cumulative regret"
            if regret["agreement_rate"] is not None
            else "no gate decisions to replay"
        )
        sub = (
            f"{report['records']} decision records — "
            f"{gate['decisions']} gate decisions "
            f"({gate['accepts']} accepts, {gate['skips']} skips); "
            f"95% CI covered {coverage}; {agreement}."
        )
        head = (
            f"<h3>Run {pid}</h3>" if len(pids) > 1 else ""
        )
        parts.append(
            f"{head}<p class='muted'>{_esc(sub)}</p>"
            "<div class='card'><h3>Repartition gate timeline</h3>"
            f"{_gate_table([r for r in rows if r.get('kind') == 'gate'], regret['per_decision'])}</div>"
            "<div class='card'><h3>Prediction calibration</h3>"
            f"{_calibration_svg(rows)}</div>"
        )
    return "".join(parts)


# ----------------------------------------------------------------------
def render_dashboard(
    source: Tracer | NullTracer | str | os.PathLike | Iterable[dict[str, Any]],
    title: str = "Adaptive runtime health dashboard",
) -> str:
    """Render the trace into one self-contained HTML page (a string)."""
    records = _as_records(source)
    run_labels: dict[int, str] = {}
    if isinstance(source, (Tracer, NullTracer)):
        run_labels = dict(source.run_labels)
    snapshots, events = analyze_records(records, run_labels=run_labels)
    cp_by_pid = {
        cp.pid: cp
        for cp in analyze_critical_path(records, run_labels=run_labels)
    }
    comm_by_pid = {
        p.pid: p for p in comm_profile(records, run_labels=run_labels)
    }
    spans = [r for r in records if r.get("type") == "span"]
    fault_events = [
        r
        for r in records
        if r.get("type") == "event"
        and str(r.get("name", "")).startswith(("fault.", "recovery."))
    ]
    decision_events = [
        r
        for r in records
        if r.get("type") == "event"
        and str(r.get("name", "")).startswith("decision.")
    ]
    pids = sorted({s["pid"] for s in spans})
    runs: list[dict[str, Any]] = []
    for pid in pids:
        run_spans = [s for s in spans if s["pid"] == pid]
        root = [s for s in run_spans if s["name"] == "run"]
        label = run_labels.get(pid) or (
            str(root[0]["attributes"].get("partitioner", "")) if root else ""
        )
        ends = [s["end_sim"] for s in run_spans if s.get("end_sim") is not None]
        starts = [s["start_sim"] for s in run_spans]
        runs.append(
            {
                "pid": pid,
                "label": label,
                "spans": run_spans,
                "snapshots": [s for s in snapshots if s.pid == pid],
                "events": [e for e in events if e.pid == pid],
                "fault_events": [
                    e for e in fault_events if e.get("pid") == pid
                ],
                "duration": (max(ends) - min(starts)) if ends else 0.0,
            }
        )
    sections = []
    for run in runs:
        if not run["snapshots"] and not any(
            s["name"] in _TIMELINE_PHASES for s in run["spans"]
        ):
            continue  # bookkeeping-only pid (no executed iterations)
        head = f"Run {run['pid']}"
        if run["label"]:
            head += f" — {_esc(run['label'])}"
        cp = cp_by_pid.get(run["pid"])
        sections.append(
            f"<h2>{head}</h2>"
            "<div class='card'><h3>Per-rank phase timeline "
            "(simulated time)</h3>"
            f"{_timeline_svg(run, _critical_keys(cp))}</div>"
            "<div class='card'><h3>Critical path</h3>"
            f"{_critical_path_panel(cp)}</div>"
            "<div class='card'><h3>Communication matrix "
            "(rank &times; rank)</h3>"
            f"{_comm_heatmap_svg(comm_by_pid.get(run['pid']))}</div>"
            "<div class='card'><h3>Residual load imbalance per iteration"
            "</h3>"
            f"{_imbalance_svg(run['snapshots'], run['events'])}</div>"
            "<div class='card'><h3>Sensed relative capacities</h3>"
            f"{_capacity_svg(run)}</div>"
        )
    doc = f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{_esc(title)}</title>
<style>{_css()}</style>
</head>
<body>
<main>
<h1>{_esc(title)}</h1>
<p class="subtitle">{len(runs)} traced run(s), {len(snapshots)} iteration
snapshots, {len(events)} anomalies — generated offline, no external
resources.</p>
{_stat_tiles(runs, snapshots, events)}
{_fault_section(fault_events)}
{_decision_section(decision_events)}
<h2>Anomalies</h2>
<div class="card">{_events_table(events)}</div>
<h2>Run summary</h2>
<div class="card">{_run_summary_table(runs)}</div>
{''.join(sections)}
</main>
</body>
</html>
"""
    return doc


def write_dashboard(
    source: Tracer | NullTracer | str | os.PathLike | Iterable[dict[str, Any]],
    path: str | os.PathLike,
    title: str = "Adaptive runtime health dashboard",
) -> None:
    """Render and write the dashboard HTML file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_dashboard(source, title=title))
