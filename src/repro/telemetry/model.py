"""One model of a trace, built once, under every trace reader.

The critical path, comm matrices, flamegraphs and offline metrics
(:mod:`~repro.telemetry.profile`), the offline health analysis
(:mod:`~repro.telemetry.analysis`) and the dashboard
(:mod:`~repro.telemetry.report`) all read a trace through a
:class:`TraceModel`: any trace source -- a live tracer, a JSONL path or
parsed records -- grouped by ``pid`` in one pass into one
:class:`RunView` per traced run.  A caller running several readers
builds the model once and hands it to each.  Three rules live here:

trace format (:data:`~repro.telemetry.spans.TRACE_FORMAT`)
    An ``iteration`` span holds the per-rank ``compute`` and ``comm``
    vectors, expanded into rank rows by :func:`rank_rows`; a
    ``comm.exchange`` event holds its ``pair_seconds`` / ``pair_derated``
    columns and names a ``(src, dst, bytes)`` table recorded once,
    joined by :func:`pair_rows`.  Every reader takes its rows from these
    two.  The older form -- a span per rank phase, every pair listed on
    every exchange -- raises :class:`~repro.util.errors.TelemetryError`.

run label
    The label map (the tracer's or the caller's ``run_labels``), else
    the ``partitioner`` of the run's ``run`` span, closed or not (a
    crashed run keeps its name), else ``""``.  Readers that print a
    name show :attr:`RunView.title`, ``label or f"run {pid}"``.

iteration slot
    A rank row belongs to the iteration that holds it.  Any other closed
    span belongs to the last iteration starting by ``start + _EPS`` if
    it also ends by that iteration's end ``+ _EPS``, else to none
    (replayed work, say): the ``slot`` column of :class:`SpanColumns`.
    The critical path buckets rank rows and ``sync`` spans by it; the
    flamegraph nests rank rows under it.  The health analysis keeps an
    older rule for ``sync`` in its phase breakdown: ``bisect_right(starts,
    start) - 1`` over all iterations, open spans included, no epsilon,
    no end check.  The two part on spans that leave their iteration, as
    ``tests/telemetry/test_model.py`` lists.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from functools import cached_property
from itertools import repeat
from operator import add, itemgetter, sub
from typing import Any, Iterable, NamedTuple, Sequence

from repro.telemetry.spans import TRACE_FORMAT, NullTracer, Tracer
from repro.util import durable
from repro.util.errors import TelemetryError

__all__ = [
    "TraceModel",
    "RunView",
    "SpanColumns",
    "TraceSource",
    "load_trace_records",
    "rank_rows",
    "pair_rows",
    "RANK_TRACK",
]

#: Numerical tolerance for "does this span lie inside that iteration"
#: containment tests on the simulated clock.
_EPS = 1e-9

#: Row names of the rank track, compute first.
RANK_TRACK = ("compute", "ghost-exchange")


def rank_rows(
    start: float, attributes: dict[str, Any]
) -> list[tuple[str, int, float, float]]:
    """An ``iteration`` span's rank rows ``(name, rank, start, end)``,
    ranks ascending: rank ``r`` computes over ``(start, start + c)``,
    then exchanges ghosts over ``(start + c, start + c + m)``, ``c`` and
    ``m`` its ``compute`` and ``comm`` entries; no row for an entry that
    is not positive."""
    rows = []
    vectors = zip(attributes.get("compute") or (), attributes.get("comm") or ())
    for rank, (c, m) in enumerate(vectors):
        mid = start + c
        if c > 0.0:
            rows.append(("compute", rank, start, mid))
        if m > 0.0:
            rows.append(("ghost-exchange", rank, mid, mid + m))
    return rows


def pair_rows(
    attributes: dict[str, Any], tables: dict[Any, list]
) -> list[tuple[Any, Any, Any, Any, Any]]:
    """A ``comm.exchange`` event's ``(src, dst, bytes, seconds,
    derated)`` rows: its pair table (from ``tables``, by the event's
    ``table``) joined with its own ``pair_seconds`` / ``pair_derated``."""
    table = tables.get(attributes.get("table"))
    if table is None:
        raise TelemetryError(
            f"comm.exchange names pair table {attributes.get('table')!r}, "
            "which no exchange of its run recorded"
        )
    return [
        (src, dst, nbytes, seconds, derated)
        for (src, dst, nbytes), seconds, derated in zip(
            table, attributes["pair_seconds"], attributes["pair_derated"]
        )
    ]


def _old_format(what: str) -> TelemetryError:
    return TelemetryError(
        f"trace is in an older format ({what}); this reader reads trace "
        f"format {TRACE_FORMAT} only -- re-run the experiment to re-export it"
    )


def load_trace_records(path: str | os.PathLike) -> list[dict[str, Any]]:
    """Parse an exported JSONL trace back into record dicts.

    The file may be the log of a live or crashed writer, so it is read
    under the progress log's contract: the complete span/event records,
    a torn tail or a foreign line skipped.  A missing file raises.
    """
    os.stat(path)  # ``read_rows`` reads a missing file as empty
    return durable.read_rows(path, "type")[0]


class SpanColumns(NamedTuple):
    """A run's closed spans and rank rows as columns, in recorded order:
    each ``iteration`` span is followed by its :func:`rank_rows`.

    Most rows are the rank track, nine in ten of a paper run; the rest
    are the closed spans (``rank is None`` on the control track).  A
    rank row has no ``span_id``; its ``parent_id`` is its iteration's.
    The critical path, the flamegraphs and the dashboard timeline read
    spans from these columns, not from the record dicts.
    """

    name: Sequence[str]
    rank: Sequence[int | None]  # as recorded; None on the control track
    start: Sequence[float]  # ``float(start_sim)``
    end: Sequence[float]  # ``float(end_sim)``
    duration: Sequence[float]  # ``end - start``
    span_id: Sequence[int | None]
    parent_id: Sequence[int | None]
    slot: Sequence[int | None]  # iteration index, by the module rule
    #: ``(start, span_id, 0)`` of a span, ``(start, its iteration's
    #: span_id, k)`` of the iteration's ``k``-th rank row (from 1): the
    #: key the flamegraph and speedscope readers sort rows by
    order: Sequence[tuple[float, Any, int]]


class RunView:
    """One traced run (one ``pid``): every span record in recorded order,
    open ones included, its events by kind, and views built on first use."""

    def __init__(self, pid: int):
        self.pid = pid
        self.label = ""
        self.spans: list[dict[str, Any]] = []
        self.closed: list[dict[str, Any]] = []  # closed spans, recorded order
        self.comm_events: list[dict[str, Any]] = []
        self.fault_events: list[dict[str, Any]] = []
        self.decision_events: list[dict[str, Any]] = []
        #: the run's ``(src, dst, bytes)`` pair tables by id
        self.pair_tables: dict[Any, list] = {}

    @property
    def title(self) -> str:
        return self.label or f"run {self.pid}"

    @cached_property
    def iterations(self) -> list[dict[str, Any]]:
        """Closed ``iteration`` spans sorted by ``(start_sim, end_sim)``."""
        return sorted(
            (s for s in self.closed if s["name"] == "iteration"),
            key=lambda s: (float(s["start_sim"]), float(s["end_sim"])),
        )

    @cached_property
    def iteration_starts(self) -> list[float]:
        return [float(s["start_sim"]) for s in self.iterations]

    @cached_property
    def columns(self) -> SpanColumns:
        """:attr:`closed` and the rank track as :class:`SpanColumns`."""
        closed = self.closed
        start = list(map(float, map(itemgetter("start_sim"), closed)))
        end = list(map(float, map(itemgetter("end_sim"), closed)))
        if self.iterations:
            # ``k - 1`` is the last iteration starting by ``start + _EPS``;
            # the NaN in front answers "no iteration" for ``k == 0``.
            ends = [math.nan]
            ends += [float(s["end_sim"]) + _EPS for s in self.iterations]
            after = map(
                bisect_right,
                repeat(self.iteration_starts),
                map(add, start, repeat(_EPS)),
            )
            slot = [k - 1 if e <= ends[k] else None for k, e in zip(after, end)]
        else:
            slot = [None] * len(closed)
        index = {id(s): k for k, s in enumerate(self.iterations)}
        rows = []
        for s, lo, hi, k in zip(closed, start, end, slot):
            sid = s.get("span_id")
            rows.append(
                (s["name"], s.get("rank"), lo, hi, sid, s.get("parent_id"), k,
                 (lo, sid, 0))
            )  # fmt: skip
            if s["name"] == "iteration":
                track = rank_rows(lo, s.get("attributes") or {})
                own = index[id(s)]
                rows += [
                    (name, rank, a, b, None, sid, own, (a, sid, j))
                    for j, (name, rank, a, b) in enumerate(track, 1)
                ]
        name, rank, start, end, span_id, parent_id, slot, order = (
            map(list, zip(*rows)) if rows else ([] for _ in range(8))
        )
        return SpanColumns(
            name=name,
            rank=rank,
            start=start,
            end=end,
            duration=list(map(sub, end, start)),
            span_id=span_id,
            parent_id=parent_id,
            slot=slot,
            order=order,
        )


class TraceModel:
    """A trace grouped by run (build with :meth:`of`): ``runs`` ascending
    by ``pid``; ``spans``, ``events`` and ``fault_events`` across runs in
    recorded order; ``metrics`` the live registry of a tracer source."""

    def __init__(
        self, records: Iterable[dict], run_labels: dict | None = None, metrics=None
    ):
        self.metrics = metrics
        self.spans: list[dict[str, Any]] = []
        self.events: list[dict[str, Any]] = []
        self.fault_events: list[dict[str, Any]] = []
        runs: dict[int, RunView] = {}
        for record in records:
            pid = record.get("pid", 0)
            run = runs.get(pid)
            if run is None:
                run = runs[pid] = RunView(pid)
            kind = record.get("type")
            if kind == "span":
                name = record["name"]
                if name in RANK_TRACK and record.get("rank") is not None:
                    raise _old_format(f"a {name!r} span on rank {record['rank']}")
                self.spans.append(record)
                run.spans.append(record)
                if record.get("end_sim") is not None:
                    run.closed.append(record)
                if name == "run":
                    attrs = record.get("attributes") or {}
                    if attrs.get("trace_format", TRACE_FORMAT) != TRACE_FORMAT:
                        raise _old_format(f"format {attrs['trace_format']!r}")
                    if not run.label:
                        run.label = str(attrs.get("partitioner") or "")
            elif kind == "event":
                self.events.append(record)
                name = str(record.get("name", ""))
                if name == "comm.exchange":
                    attrs = record.get("attributes") or {}
                    if "pairs" in attrs:
                        raise _old_format("a comm.exchange listing its pairs")
                    if "pair_table" in attrs:
                        run.pair_tables[attrs["table"]] = attrs["pair_table"]
                    run.comm_events.append(record)
                elif name.startswith(("fault.", "recovery.")):
                    run.fault_events.append(record)
                    self.fault_events.append(record)
                elif name.startswith("decision."):
                    run.decision_events.append(record)
        for pid, label in (run_labels or {}).items():
            if label and pid in runs:
                runs[pid].label = str(label)
        self.runs = [runs[pid] for pid in sorted(runs)]

    @classmethod
    def of(
        cls, source: TraceSource, run_labels: dict[int, str] | None = None
    ) -> TraceModel:
        """The model of any trace source; a model is returned as is.

        ``run_labels`` replaces a tracer's own; a built model's are fixed.
        """
        if isinstance(source, TraceModel):
            if run_labels is not None:
                raise ValueError("a TraceModel's run labels are already set")
            return source
        if isinstance(source, (Tracer, NullTracer)):
            records = [r.to_dict() for r in source.spans + source.events]
            labels = source.run_labels if run_labels is None else run_labels
            return cls(records, labels, source.metrics)
        if isinstance(source, (str, os.PathLike)):
            return cls(load_trace_records(source), run_labels)
        return cls(source, run_labels)


#: Every trace source a reader accepts (see :meth:`TraceModel.of`).
TraceSource = TraceModel | Tracer | NullTracer | str | os.PathLike | Iterable[dict]
