"""Trace and metrics exporters.

Three output shapes, one tracer:

- :func:`write_jsonl` -- the raw event log, one JSON object per span or
  instant event, for ad-hoc analysis (``jq``, pandas);
- :func:`write_chrome_trace` -- Chrome trace-event format (the JSON array
  flavour), loadable in Perfetto / ``chrome://tracing``: each traced run
  is a process (``pid``), the runtime control flow is thread 0 and every
  simulated rank gets its own thread track, timestamped in *simulated*
  microseconds;
- :func:`metrics_summary` / :func:`write_metrics_json` /
  :func:`write_metrics_csv` -- flat quantitative summaries (the benchmark
  suite consumes these to track the perf trajectory across PRs).

All serialization tolerates numpy scalars/arrays in span attributes
without importing numpy (duck-typed via ``item``/``tolist``), keeping the
telemetry package dependency-free.
"""

from __future__ import annotations

import csv
import io
import json
import os
from typing import Any, Iterable, Iterator

from repro.telemetry.metrics import MetricsRegistry, NullMetricsRegistry
from repro.telemetry.spans import NullTracer, Span, Tracer

__all__ = [
    "chrome_trace_events",
    "write_chrome_trace",
    "jsonl_lines",
    "write_jsonl",
    "aggregate_phases",
    "metrics_summary",
    "write_metrics_json",
    "write_metrics_csv",
]

#: Chrome thread id of the runtime control track; rank ``k`` maps to
#: thread ``k + 1``.
RUNTIME_TID = 0


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars/arrays (duck-typed) and other oddballs."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "tolist"):  # numpy array
        return _jsonable(value.tolist())
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)


def _tid(span_rank: int | None) -> int:
    return RUNTIME_TID if span_rank is None else span_rank + 1


def chrome_trace_events(
    tracer: Tracer | NullTracer,
) -> list[dict[str, Any]]:
    """The tracer's record as a Chrome trace-event list.

    Spans become complete (``ph="X"``) events with ``ts``/``dur`` in
    simulated microseconds; instant events become ``ph="i"``; process and
    thread names arrive as ``ph="M"`` metadata so Perfetto labels each
    run and each simulated rank.
    """
    out: list[dict[str, Any]] = []
    threads_seen: set[tuple[int, int]] = set()
    for span in tracer.spans:
        tid = _tid(span.rank)
        threads_seen.add((span.pid, tid))
        args = {k: _jsonable(v) for k, v in span.attributes.items()}
        args["wall_seconds"] = span.wall_duration
        out.append(
            {
                "name": span.name,
                "cat": "sim",
                "ph": "X",
                "ts": span.start_sim * 1e6,
                "dur": span.sim_duration * 1e6,
                "pid": span.pid,
                "tid": tid,
                "args": args,
            }
        )
    for event in tracer.events:
        tid = _tid(event.rank)
        threads_seen.add((event.pid, tid))
        out.append(
            {
                "name": event.name,
                "cat": "sim",
                "ph": "i",
                "s": "p",  # process-scoped instant
                "ts": event.sim * 1e6,
                "pid": event.pid,
                "tid": tid,
                "args": {k: _jsonable(v) for k, v in event.attributes.items()},
            }
        )
    meta: list[dict[str, Any]] = []
    for pid in sorted({p for p, _ in threads_seen}):
        label = tracer.run_labels.get(pid, "trace")
        meta.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": RUNTIME_TID,
                "args": {"name": f"{label} (run {pid})"},
            }
        )
    for pid, tid in sorted(threads_seen):
        name = "runtime" if tid == RUNTIME_TID else f"rank {tid - 1}"
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
        )
    return meta + out


def write_chrome_trace(tracer: Tracer | NullTracer, path: str | os.PathLike) -> None:
    """Write the Chrome/Perfetto-loadable JSON trace-event array."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace_events(tracer), fh)


def jsonl_lines(tracer: Tracer | NullTracer) -> Iterator[str]:
    """The raw span + event log, one JSON object per line.

    Records are ordered by simulated start time (ties broken by span id)
    so the log reads chronologically.
    """
    records: list[dict[str, Any]] = [s.to_dict() for s in tracer.spans]
    records += [e.to_dict() for e in tracer.events]
    records.sort(
        key=lambda r: (r.get("start_sim", r.get("sim", 0.0)) or 0.0,
                       r.get("span_id", 0))
    )
    for record in records:
        yield json.dumps(_jsonable(record)) + "\n"


def write_jsonl(tracer: Tracer | NullTracer, path: str | os.PathLike) -> None:
    """Write :func:`jsonl_lines` to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(jsonl_lines(tracer))


def aggregate_phases(
    tracer: Tracer | NullTracer,
    spans: Iterable[Span] | None = None,
) -> dict[str, dict[str, float]]:
    """Per-phase totals: ``{name: {count, wall_seconds, sim_seconds}}``.

    Child spans are *not* subtracted from parents, so "run" will roughly
    equal the sum of its parts; compare siblings, not a child against its
    parent.
    """
    out: dict[str, dict[str, float]] = {}
    for span in (tracer.spans if spans is None else spans):
        agg = out.setdefault(
            span.name, {"count": 0, "wall_seconds": 0.0, "sim_seconds": 0.0}
        )
        agg["count"] += 1
        agg["wall_seconds"] += span.wall_duration
        agg["sim_seconds"] += span.sim_duration
    return out


def metrics_summary(
    source: Tracer | NullTracer | MetricsRegistry | NullMetricsRegistry,
) -> dict[str, Any]:
    """Flat dict summary of a registry (or of a tracer's registry + phases).

    Given a tracer, the summary also folds in the per-phase span totals,
    which is what the benchmark suite records across PRs.
    """
    if isinstance(source, (Tracer, NullTracer)):
        return {
            "phases": aggregate_phases(source),
            "metrics": source.metrics.summary(),
            "num_spans": len(source.spans),
            "num_events": len(source.events),
            "num_runs": len(source.run_labels),
        }
    return {"phases": {}, "metrics": source.summary()}


def write_metrics_json(
    source: Tracer | NullTracer | MetricsRegistry | NullMetricsRegistry,
    path: str | os.PathLike,
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(metrics_summary(source)), fh, indent=2)
        fh.write("\n")


def metrics_csv(registry: MetricsRegistry | NullMetricsRegistry) -> str:
    """The registry's flat rows as CSV text (union of all columns)."""
    rows = registry.rows()
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, restval="")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _jsonable(v) for k, v in row.items()})
    return buf.getvalue()


def write_metrics_csv(
    registry: MetricsRegistry | NullMetricsRegistry, path: str | os.PathLike
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(metrics_csv(registry))
