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
    A closed rank-track or ``sync`` span belongs to the last iteration
    starting by ``start + _EPS`` if it also ends by that iteration's
    end ``+ _EPS``, else to none (replayed work, say).  The critical
    path buckets rank phases by it; the flamegraph nests rank spans
    under it.  The health analysis keeps an older rule for its phase
    breakdown: ``bisect_right(starts, start) - 1`` over all iterations,
    open spans included, no epsilon, no end check.  The two part on
    spans that leave their iteration, as ``tests/telemetry/test_model.py``
    lists.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from functools import cached_property
from typing import Any, Iterable

from repro.telemetry.spans import NullTracer, Tracer
from repro.util import durable

__all__ = ["TraceModel", "RunView", "TraceSource", "load_trace_records"]

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
    def control(self) -> list[dict[str, Any]]:
        """Closed spans of the runtime control track (``rank is None``)."""
        return [s for s in self.closed if s.get("rank") is None]

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
    def slots(self) -> list[int | None]:
        """Iteration index of each span in :attr:`closed` (module rule)."""
        starts = self.iteration_starts
        ends = [float(s["end_sim"]) + _EPS for s in self.iterations]
        slots: list[int | None] = []
        for s in self.closed:
            if not starts or (s.get("rank") is None and s["name"] != "sync"):
                slots.append(None)
                continue
            idx = bisect_right(starts, float(s["start_sim"]) + _EPS) - 1
            inside = idx >= 0 and float(s["end_sim"]) <= ends[idx]
            slots.append(idx if inside else None)
        return slots


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
