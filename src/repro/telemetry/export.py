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
telemetry package dependency-free.  The writers here leave that to the
C JSON encoder, which calls :func:`_coerce` on each value it has no type
for, instead of walking every value in Python first.
"""

from __future__ import annotations

import csv
import io
import json
import os
from typing import Any, Iterator

from repro.telemetry.metrics import MetricsRegistry, NullMetricsRegistry
from repro.telemetry.model import rank_rows
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


def _coerce(value: Any) -> Any:
    """JSON stand-in for a value JSON has no type for.

    numpy arrays and scalars (duck-typed) become Python lists and
    numbers, anything else its ``str``.  The encoders call it as their
    ``default`` hook, and :func:`_jsonable` for its leaves.
    """
    if hasattr(value, "tolist"):  # numpy array or scalar
        return value.tolist()
    if hasattr(value, "item"):
        return value.item()
    return str(value)


#: The one encoder of trace records: the C encoder with :func:`_coerce`.
_ENCODER = json.JSONEncoder(default=_coerce)


def _jsonable(value: Any) -> Any:
    """``value`` rebuilt from JSON types, dict keys ``str()``-ed.

    Only for what the encoder hook cannot do: CSV cells, ``sort_keys``
    writers (keys must be ``str`` before they are sorted) and a record
    with a key JSON cannot write (:func:`_dumps`).
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return _jsonable(_coerce(value))


def _dumps(value: Any) -> str:
    """``json.dumps(_jsonable(value))``, without the walk in Python.

    The encoder writes ``int``/``float``/``bool``/``None`` dict keys
    itself (``True`` as ``"true"`` where ``str`` gives ``"True"``); any
    other key type raises ``TypeError``, and only then is ``value``
    rebuilt with ``str`` keys.
    """
    try:
        return _ENCODER.encode(value)
    except TypeError:
        return json.dumps(_jsonable(value))


def _tid(span_rank: int | None) -> int:
    return RUNTIME_TID if span_rank is None else span_rank + 1


def _span_rows(span: Span) -> list[tuple[str, int | None, float, float, float]]:
    """``(name, rank, start, sim seconds, wall seconds)`` of a span and,
    after an ``iteration``, of its rank rows (no wall time)."""
    rows = [
        (span.name, span.rank, span.start_sim, span.sim_duration, span.wall_duration)
    ]
    if span.name == "iteration":
        rows += [
            (name, rank, start, end - start, 0.0)
            for name, rank, start, end in rank_rows(span.start_sim, span.attributes)
        ]
    return rows


def chrome_trace_events(
    tracer: Tracer | NullTracer,
) -> list[dict[str, Any]]:
    """The tracer's record as a Chrome trace-event list.

    Spans become complete (``ph="X"``) events with ``ts``/``dur`` in
    simulated microseconds; instant events become ``ph="i"``; process and
    thread names arrive as ``ph="M"`` metadata so Perfetto labels each
    run and each simulated rank.  ``args`` holds the attribute values as
    recorded (numpy included); :func:`write_chrome_trace` coerces them.
    """
    out: list[dict[str, Any]] = []
    threads_seen: set[tuple[int, int]] = set()
    for span in tracer.spans:
        args = dict(span.attributes)
        for name, rank, start, duration, wall in _span_rows(span):
            args["wall_seconds"] = wall
            tid = _tid(rank)
            threads_seen.add((span.pid, tid))
            out.append(
                {
                    "name": name,
                    "cat": "sim",
                    "ph": "X",
                    "ts": start * 1e6,
                    "dur": duration * 1e6,
                    "pid": span.pid,
                    "tid": tid,
                    "args": args,
                }
            )
            args = {}
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
                "args": dict(event.attributes),
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
        fh.write(_dumps(chrome_trace_events(tracer)))


def jsonl_lines(tracer: Tracer | NullTracer) -> Iterator[str]:
    """The raw span + event log, one JSON object per line.

    Records are ordered by simulated start time (ties broken by span id)
    so the log reads chronologically.
    """
    records = [*tracer.spans, *tracer.events]
    keys = [(s.start_sim or 0.0, s.span_id) for s in tracer.spans]
    keys += [(e.sim or 0.0, 0) for e in tracer.events]
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        yield _dumps(records[i].to_dict()) + "\n"


def write_jsonl(tracer: Tracer | NullTracer, path: str | os.PathLike) -> None:
    """Write :func:`jsonl_lines` to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(jsonl_lines(tracer))


def aggregate_phases(
    tracer: Tracer | NullTracer, wall: bool = True
) -> dict[str, dict[str, float]]:
    """Per-phase totals: ``{name: {count, wall_seconds, sim_seconds}}``,
    without ``wall_seconds`` if not ``wall``.

    Every span counts, and every rank row of an ``iteration`` span right
    after it (wall time zero).  Child spans are *not* subtracted from
    parents, so "run" will roughly equal the sum of its parts; compare
    siblings, not a child against its parent.
    """
    out: dict[str, dict[str, float]] = {}
    for span in tracer.spans:
        for name, _, _, sim_s, wall_s in _span_rows(span):
            agg = out.get(name)
            if agg is None:
                agg = out[name] = (
                    {"count": 0, "wall_seconds": 0.0, "sim_seconds": 0.0}
                    if wall
                    else {"count": 0, "sim_seconds": 0.0}
                )
            agg["count"] += 1
            if wall:
                agg["wall_seconds"] += wall_s
            agg["sim_seconds"] += sim_s
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
        json.dump(metrics_summary(source), fh, indent=2, default=_coerce)
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
