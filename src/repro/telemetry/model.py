"""One model of a trace, built once, under every trace reader.

The critical path, comm matrices, flamegraphs and offline metrics
(:mod:`~repro.telemetry.profile`), the offline health analysis
(:mod:`~repro.telemetry.analysis`) and the dashboard
(:mod:`~repro.telemetry.report`) all read a trace through a
:class:`TraceModel`: any trace source -- a live tracer, a JSONL path or
parsed records -- grouped by ``pid`` in one pass into one
:class:`RunView` per traced run.  A caller running several readers
builds the model once and hands it to each.  Two rules live here:

run label
    The label map (the tracer's or the caller's ``run_labels``), else
    the ``partitioner`` of the run's ``run`` span, closed or not (a
    crashed run keeps its name), else ``""``.  Readers that print a
    name show :attr:`RunView.title`, ``label or f"run {pid}"``.

iteration slot
    A closed span belongs to the last iteration starting by
    ``start + _EPS`` if it also ends by that iteration's end ``+ _EPS``,
    else to none (replayed work, say): the ``slot`` column of
    :class:`SpanColumns`.  The critical path buckets rank phases and
    ``sync`` spans by it; the flamegraph nests rank spans under it.  The
    health analysis keeps an older rule for its phase
    breakdown: ``bisect_right(starts, start) - 1`` over all iterations,
    open spans included, no epsilon, no end check.  The two part on
    spans that leave their iteration, as ``tests/telemetry/test_model.py``
    lists.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from functools import cached_property
from itertools import repeat
from operator import add, itemgetter, sub
from typing import Any, Iterable, NamedTuple, Sequence

from repro.telemetry.spans import NullTracer, Tracer
from repro.util import durable

__all__ = [
    "TraceModel",
    "RunView",
    "SpanColumns",
    "TraceSource",
    "load_trace_records",
]

#: Numerical tolerance for "does this rank span lie inside that
#: iteration" containment tests on the simulated clock.
_EPS = 1e-9


def load_trace_records(path: str | os.PathLike) -> list[dict[str, Any]]:
    """Parse an exported JSONL trace back into record dicts.

    The file may be the log of a live or crashed writer, so it is read
    under the progress log's contract: the complete span/event records,
    a torn tail or a foreign line skipped.  A missing file raises.
    """
    os.stat(path)  # ``read_rows`` reads a missing file as empty
    return durable.read_rows(path, "type")[0]


class SpanColumns(NamedTuple):
    """A run's closed spans as columns, row ``i`` being ``closed[i]``.

    Most rows are the rank track -- the per-rank ``compute`` /
    ``ghost-exchange`` spans, nine in ten records of a paper run; the
    rest are the control track (``rank is None``).  The critical path,
    the flamegraphs and the dashboard timeline read spans from these
    columns, not from the record dicts.
    """

    name: Sequence[str]
    rank: Sequence[int | None]  # as recorded; None on the control track
    start: Sequence[float]  # ``float(start_sim)``
    end: Sequence[float]  # ``float(end_sim)``
    duration: Sequence[float]  # ``end - start``
    span_id: Sequence[int]
    parent_id: Sequence[int | None]
    slot: Sequence[int | None]  # iteration index, by the module rule


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
        """:attr:`closed` as :class:`SpanColumns`, one C-level pass a column."""
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
        return SpanColumns(
            name=[s["name"] for s in closed],
            rank=[s.get("rank") for s in closed],
            start=start,
            end=end,
            duration=list(map(sub, end, start)),
            span_id=[s.get("span_id") for s in closed],
            parent_id=[s.get("parent_id") for s in closed],
            slot=slot,
        )

    @cached_property
    def order_keys(self) -> list[tuple[float, Any]]:
        """Each row's ``(start, span_id)`` of :attr:`columns`: the key
        the flamegraph and speedscope readers sort spans by."""
        return list(zip(self.columns.start, self.columns.span_id))


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
                self.spans.append(record)
                run.spans.append(record)
                if record.get("end_sim") is not None:
                    run.closed.append(record)
                if record["name"] == "run" and not run.label:
                    attrs = record.get("attributes") or {}
                    run.label = str(attrs.get("partitioner") or "")
            elif kind == "event":
                self.events.append(record)
                name = str(record.get("name", ""))
                if name == "comm.exchange":
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
