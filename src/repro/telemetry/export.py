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
import math
import os
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Any, Iterable, Iterator, Sequence

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
        tid = _tid(span.rank)
        threads_seen.add((span.pid, tid))
        args = dict(span.attributes)
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


#: A span record's JSONL line, keys in :meth:`Span.to_dict` order.
_SPAN_LINE = (
    '{"type": "span", "name": %s, "span_id": %s, "parent_id": %s, '
    '"pid": %s, "rank": %s, "start_wall": %s, "end_wall": %s, '
    '"start_sim": %s, "end_sim": %s, "attributes": %s}\n'
)
_SPAN_FIELDS = (
    "name", "span_id", "parent_id", "pid", "rank",
    "start_wall", "end_wall", "start_sim", "end_sim",
)  # fmt: skip


def _texts(values: list[Any]) -> Iterable[str]:
    """Each value as :data:`_ENCODER` writes it, a column at a time.

    A column of finite floats, of ``int`` and ``None``, or of strings is
    spelled without a call into the encoder per value (the encoder's own
    float, int and string rules); any other column goes value by value
    through :func:`_dumps`, so NaN and infinities still come out as
    ``NaN`` / ``Infinity``.
    """
    kinds = set(map(type, values))
    if kinds == {float} and all(map(math.isfinite, values)):
        return map(float.__repr__, values)
    if kinds <= {int, type(None)}:
        return ["null" if v is None else int.__repr__(v) for v in values]
    if kinds == {str}:
        return map(encode_basestring_ascii, values)
    return map(_dumps, values)


def _span_lines(spans: Sequence[Span]) -> list[str]:
    """Each span's JSONL line: the fixed-key template filled column by
    column, the line ``_dumps(span.to_dict())`` writes."""
    columns = [_texts(list(map(attrgetter(f), spans))) for f in _SPAN_FIELDS]
    columns.append(
        "{}" if a.__class__ is dict and not a else _dumps(a)
        for a in map(attrgetter("attributes"), spans)
    )
    return list(map(_SPAN_LINE.__mod__, zip(*columns)))


def jsonl_lines(tracer: Tracer | NullTracer) -> Iterator[str]:
    """The raw span + event log, one JSON object per line.

    Records are ordered by simulated start time (ties broken by span id)
    so the log reads chronologically.
    """
    spans, events = tracer.spans, tracer.events
    lines = _span_lines(spans)
    keys = [(s.start_sim or 0.0, s.span_id) for s in spans]
    keys += [(e.sim or 0.0, 0) for e in events]
    n_spans = len(spans)
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        if i < n_spans:
            yield lines[i]
        else:
            yield _dumps(events[i - n_spans].to_dict()) + "\n"


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
