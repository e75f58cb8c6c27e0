"""The span columns against the per-record code they replaced.

``RunView.columns`` holds a run's closed spans and the rank rows of its
``iteration`` spans as columns, and the critical path, the flamegraphs
and the dashboard timeline read rank rows from them; ``export.jsonl_lines``
writes each record's ``to_dict()`` through the C encoder.  The functions
below are the per-dict code these replaced, copied verbatim (renamed
``reference_*``; the old ``RunView.slots`` property is
:func:`reference_slots`).  They read traces of the older form, one span
per rank phase, so they are fed :func:`old_form` of each trace: the rank
rows as spans right after their iteration.  Generated traces -- several
pids, spans outside every iteration and open ones, a span straddling an
iteration end, ``start_sim`` ties broken by span id, NaN / infinite
times, numpy fields, ``None`` parents and ranks, names with quotes or
non-ASCII characters -- must give equal outputs, or raise the same
exception.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import repeat
from typing import Any

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import (
    TraceModel,
    Tracer,
    analyze_critical_path,
    flamegraph_collapsed,
    speedscope_document,
)
from repro.telemetry.export import _dumps, jsonl_lines
from repro.telemetry.model import _EPS, RunView
from repro.telemetry.profile import IterationPath, PathSegment, RunCriticalPath
from repro.telemetry.spans import Span, TraceEvent
from tests.telemetry.test_export import _ATTRIBUTES
from tests.telemetry.test_reader_digests import chaos_trace, rm3d32_trace

_RANK_PHASES = ("compute", "ghost-exchange")


# ----------------------------------------------------------------------
# The replaced code, verbatim but for names
# ----------------------------------------------------------------------
def reference_slots(self: RunView) -> list[int | None]:
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


def _start(record: dict[str, Any]) -> float:
    return float(record["start_sim"])


def _segment(phase: str, rank: int | None, span: dict[str, Any]) -> PathSegment:
    return PathSegment(phase, rank, _start(span), float(span["end_sim"]))


def _duration(record: dict[str, Any]) -> float:
    end = record.get("end_sim")
    if end is None:
        return 0.0
    return float(end) - float(record["start_sim"])


def reference_analyze_critical_path(source, run_labels=None):
    results: list[RunCriticalPath] = []
    for view in TraceModel.of(source, run_labels).runs:
        iterations = view.iterations
        if not iterations:
            continue
        run = RunCriticalPath(pid=view.pid, label=view.title)
        # Bucket rank phases and sync spans by containing iteration.
        rank_spans: list[list[dict[str, Any]]] = [[] for _ in iterations]
        sync_spans: list[list[dict[str, Any]]] = [[] for _ in iterations]
        num_ranks = 0
        for s, idx in zip(view.closed, reference_slots(view)):
            if idx is None:
                continue  # outside every iteration (e.g. replayed work)
            if s.get("rank") is not None and s["name"] in _RANK_PHASES:
                rank_spans[idx].append(s)
                num_ranks = max(num_ranks, int(s["rank"]) + 1)
            elif s["name"] == "sync":
                sync_spans[idx].append(s)
        for idx, it in enumerate(iterations):
            attrs = it.get("attributes") or {}
            start = float(it["start_sim"])
            end = float(it["end_sim"])
            busy: dict[int, float] = {r: 0.0 for r in range(num_ranks)}
            for s in rank_spans[idx]:
                busy[int(s["rank"])] = busy.get(int(s["rank"]), 0.0) + _duration(s)
            critical = attrs.get("critical_rank")
            if critical is None and busy:
                busiest = max(busy.values())
                critical = min(r for r, b in busy.items() if b == busiest)
            segments: list[PathSegment] = []
            compute_s = comm_s = 0.0
            if critical is not None:
                critical = int(critical)
                own = sorted(
                    (s for s in rank_spans[idx] if int(s["rank"]) == critical),
                    key=_start,
                )
                for s in own:
                    segments.append(_segment(s["name"], critical, s))
                    if s["name"] == "compute":
                        compute_s += _duration(s)
                    else:
                        comm_s += _duration(s)
            sync_s = sum(_duration(s) for s in sync_spans[idx])
            segments += [
                _segment("sync", None, s)
                for s in sorted(sync_spans[idx], key=_start)
            ]
            covered = compute_s + comm_s + sync_s
            barrier_s = max(0.0, (end - start) - covered)
            if barrier_s > 0.0:
                segments.append(
                    PathSegment("barrier", None, end - barrier_s, end)
                )
            iteration_number = attrs.get("iteration", attrs.get("step", idx))
            run.iterations.append(
                IterationPath(
                    iteration=int(iteration_number),
                    start_sim=start,
                    end_sim=end,
                    critical_rank=critical,
                    segments=segments,
                    busy_per_rank=busy,
                    num_ranks=num_ranks,
                    compute_s=compute_s,
                    comm_s=comm_s,
                    sync_s=sync_s,
                    barrier_s=barrier_s,
                )
            )
        results.append(run)
    return results


def reference_span_forest(spans, view=None):
    by_id = {s["span_id"]: s for s in spans}
    slots = repeat(None) if view is None else reference_slots(view)
    children: dict[int, list[dict[str, Any]]] = {}
    roots: list[dict[str, Any]] = []
    for s, slot in zip(spans, slots):
        parent_id = s.get("parent_id")
        if slot is not None and s.get("rank") is not None:
            parent_id = view.iterations[slot]["span_id"]
        if parent_id is not None and parent_id in by_id:
            children.setdefault(parent_id, []).append(s)
        else:
            roots.append(s)
    order = lambda s: (float(s["start_sim"]), s["span_id"])  # noqa: E731
    roots.sort(key=order)
    for kids in children.values():
        kids.sort(key=order)
    return roots, children


def reference_frame_name(span: dict[str, Any], label: str) -> str:
    if span["name"] == "run":
        return f"run: {label}"
    if span.get("rank") is not None:
        return f"{span['name']} (rank {span['rank']})"
    return str(span["name"])


def reference_flamegraph_collapsed(source, run_labels=None) -> str:
    weights: dict[tuple[str, ...], int] = {}

    for view in TraceModel.of(source, run_labels).runs:
        roots, children = reference_span_forest(view.closed, view)
        label = view.title

        def walk(span: dict[str, Any], stack: tuple[str, ...]) -> None:
            stack = stack + (reference_frame_name(span, label),)
            kids = children.get(span["span_id"], [])
            child_s = sum(_duration(k) for k in kids)
            self_us = int(round(max(0.0, _duration(span) - child_s) * 1e6))
            if self_us > 0 or not kids:
                weights[stack] = weights.get(stack, 0) + self_us
            for kid in kids:
                walk(kid, stack)

        for root in roots:
            walk(root, ())
    # Zero-weight stacks (leaves shorter than a microsecond of sim time)
    # carry no area; flamegraph.pl renders them as confusing slivers.
    lines = [
        ";".join(stack) + f" {weight}"
        for stack, weight in sorted(weights.items())
        if weight > 0
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def reference_speedscope_document(source, run_labels=None, name="repro trace"):
    frames: list[dict[str, str]] = []
    frame_index: dict[str, int] = {}

    def frame_of(frame_name: str) -> int:
        idx = frame_index.get(frame_name)
        if idx is None:
            idx = frame_index[frame_name] = len(frames)
            frames.append({"name": frame_name})
        return idx

    profiles: list[dict[str, Any]] = []
    for view in TraceModel.of(source, run_labels).runs:
        if not view.closed:
            continue
        label = view.title
        t0 = min(_start(s) for s in view.closed)

        def us(t: float) -> int:
            return int(round((t - t0) * 1e6))

        def timeline(track: str, events: list, end_value: int) -> None:
            if events:
                profiles.append(
                    {
                        "type": "evented",
                        "name": f"{label} (pid {view.pid}) {track}",
                        "unit": "microseconds",
                        "startValue": 0,
                        "endValue": end_value,
                        "events": events,
                    }
                )

        # Control timeline: the nested span tree, rank tracks excluded.
        control = [s for s in view.closed if s.get("rank") is None]
        roots, children = reference_span_forest(control)
        events: list[dict[str, Any]] = []
        end_value = 0

        def emit(
            span: dict[str, Any], lo: float, hi: float, cursor: float
        ) -> float:
            nonlocal end_value
            start = max(float(span["start_sim"]), lo, cursor)
            end = min(float(span["end_sim"]), hi)
            if end <= start + 0.0:
                return cursor
            idx = frame_of(reference_frame_name(span, label))
            events.append({"type": "O", "frame": idx, "at": us(start)})
            child_cursor = start
            for kid in children.get(span["span_id"], []):
                child_cursor = emit(kid, start, end, child_cursor)
            events.append({"type": "C", "frame": idx, "at": us(end)})
            end_value = max(end_value, us(end))
            return end

        cursor = -math.inf
        for root in roots:
            cursor = emit(root, -math.inf, math.inf, cursor)
        timeline("runtime", events, end_value)
        # One flat timeline per rank: that rank's simulated phases.
        by_rank: dict[int, list[dict[str, Any]]] = {}
        for s in view.closed:
            if s.get("rank") is not None:
                by_rank.setdefault(s["rank"], []).append(s)
        for rank in sorted(by_rank):
            own = sorted(by_rank[rank], key=lambda s: (_start(s), s["span_id"]))
            events = []
            end_value = 0
            cursor = -math.inf
            for s in own:
                start = max(float(s["start_sim"]), cursor)
                end = float(s["end_sim"])
                if end <= start:
                    continue
                idx = frame_of(str(s["name"]))
                events.append({"type": "O", "frame": idx, "at": us(start)})
                events.append({"type": "C", "frame": idx, "at": us(end)})
                end_value = max(end_value, us(end))
                cursor = end
            timeline(f"rank {rank}", events, end_value)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "name": name,
        "exporter": "repro profile",
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": profiles,
    }


def reference_jsonl_lines(tracer):
    records: list[dict[str, Any]] = [s.to_dict() for s in tracer.spans]
    records += [e.to_dict() for e in tracer.events]
    records.sort(
        key=lambda r: (r.get("start_sim", r.get("sim", 0.0)) or 0.0,
                       r.get("span_id", 0))
    )
    for record in records:
        yield _dumps(record) + "\n"


# ----------------------------------------------------------------------
# Generated traces
# ----------------------------------------------------------------------
#: A few shared instants make start ties (and spans that end exactly at,
#: a hair after, or one epsilon after an iteration's end) likely.
_TIMES = st.one_of(
    st.sampled_from(
        [0.0, 0.5, 1.0, 1.0 + 1e-12, 1.0 + _EPS, 1.5, 2.0, 2.0 + _EPS, 3.0]
    ),
    st.floats(-1.0, 4.0),
    st.floats(0.0, 4.0).map(np.float64),
)
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_NAMES = st.sampled_from(
    ["compute", "ghost-exchange", "compute", "ghost-exchange", "iteration",
     "iteration", "sync", "run", "sense", 'say "hi"', "naïve", "日本",
     "back\\slash"]
)  # fmt: skip
_RANKS = st.one_of(
    st.none(), st.integers(0, 12), st.integers(0, 12).map(np.int64)
)
#: A rank track's entries as fractions of its iteration's duration.
_SHARES = st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.5])


@st.composite
def traces(draw) -> list[dict[str, Any]]:
    """Span and event records of up to three runs, in a drawn order.

    A closed ``iteration`` span may carry a rank track; a track its
    iteration would not hold under the old slot rule is dropped
    (:func:`placed_tracks`), as no pipeline writes one.
    """
    n = draw(st.integers(0, 24))
    span_ids = draw(st.permutations(range(1, n + 1)))
    # One trace in four may hold a NaN or infinite time.
    odd = draw(st.integers(0, 3)) == 0

    def time() -> float:
        if odd and draw(st.integers(0, 5)) == 0:
            return draw(_NON_FINITE)
        return draw(_TIMES)

    records: list[dict[str, Any]] = []
    for span_id in span_ids:
        name = draw(_NAMES)
        start = time()
        closed = draw(st.integers(0, 9)) > 0
        end = None
        if closed:
            end = draw(st.sampled_from([time, lambda: start + 0.5, lambda: start]))()
        attributes: dict[str, Any] = {}
        if name == "iteration" and draw(st.booleans()):
            attributes["iteration"] = draw(st.integers(0, 99))
            attributes["critical_rank"] = draw(st.none() | st.integers(0, 12))
        rank = None  # only a rank row has a rank; rows are not spans
        if name == "iteration" and closed and draw(st.booleans()):
            size = draw(st.integers(1, 4))
            shares = draw(st.lists(st.tuples(_SHARES, _SHARES), min_size=size, max_size=size))
            duration = float(end) - float(start)
            attributes["compute"] = [c * duration for c, _ in shares]
            attributes["comm"] = [m * duration for _, m in shares]
        records.append(
            {
                "type": "span",
                "name": name,
                "span_id": draw(st.sampled_from([span_id, np.int64(span_id)])),
                "parent_id": draw(st.none() | st.integers(0, n + 2)),
                "pid": draw(st.sampled_from([1, 2, 3])),
                "rank": rank,
                "start_wall": 0.0,
                "end_wall": 0.0 if closed else None,
                "start_sim": start,
                "end_sim": end,
                "attributes": attributes,
            }
        )
    for _ in range(draw(st.integers(0, 3))):
        records.append(
            {
                "type": "event",
                "name": draw(_NAMES),
                "pid": draw(st.sampled_from([1, 2, 3])),
                "rank": draw(_RANKS),
                "wall": 0.0,
                "sim": time(),
                "attributes": {},
            }
        )
    return placed_tracks(draw(st.permutations(records)))


# ----------------------------------------------------------------------
# The older form the reference code reads
# ----------------------------------------------------------------------
def old_form(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """``records`` as the per-rank writer recorded them: each closed
    iteration's rank rows as spans right after it, on the iteration's
    parent.  Span ids are scaled by 1000 and the iteration's ``j``-th row
    takes its id ``+ j``, the order the rows' ids had.  ``_of`` on a row
    and ``_at`` on an iteration give the iteration's index in
    ``records``."""

    def scaled(span_id):
        return None if span_id is None else span_id * 1000

    out: list[dict[str, Any]] = []
    for at, record in enumerate(records):
        if record["type"] != "span":
            out.append(record)
            continue
        attrs = dict(record["attributes"])
        compute, comm = attrs.pop("compute", None), attrs.pop("comm", None)
        span_id = scaled(record["span_id"])
        out.append(
            {**record, "span_id": span_id, "parent_id": scaled(record["parent_id"]),
             "attributes": attrs, "_at": at}
        )  # fmt: skip
        if record["name"] != "iteration" or record["end_sim"] is None:
            continue
        start = float(record["start_sim"])
        for j, (name, rank, lo, hi) in enumerate(
            reference_rank_rows(start, compute or [], comm or []), 1
        ):
            out.append(
                {"type": "span", "name": name, "span_id": span_id + j,
                 "parent_id": scaled(record["parent_id"]), "pid": record["pid"],
                 "rank": rank, "start_wall": 0.0, "end_wall": 0.0,
                 "start_sim": lo, "end_sim": hi, "attributes": {}, "_of": at}
            )  # fmt: skip
    return out


def reference_rank_rows(start_sim, compute_vector, comm_vector):
    """The per-rank loop of the writer before rank tracks, its
    ``add_span`` calls returning ``(name, rank, start, end)``."""
    rows = []
    for rank in range(len(compute_vector)):
        compute = float(compute_vector[rank])
        comm = float(comm_vector[rank])
        if compute > 0.0:
            rows.append(("compute", rank, start_sim, start_sim + compute))
        if comm > 0.0:
            rows.append(
                (
                    "ghost-exchange",
                    rank,
                    start_sim + compute,
                    start_sim + compute + comm,
                )
            )
    return rows


def old_model(records: list[dict[str, Any]]) -> TraceModel:
    """The model of ``records`` with every run's spans in :func:`old_form`:
    what the reference readers read (a model is read as is)."""
    model = TraceModel.of(records)
    old = [r for r in old_form(records) if r["type"] == "span"]
    for view in model.runs:
        view.spans = [r for r in old if r["pid"] == view.pid]
        view.closed = [r for r in view.spans if r["end_sim"] is not None]
    return model


def placed_tracks(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """``records`` without the rank tracks some of whose rows the old
    slot rule places outside their own iteration."""
    misplaced = set()
    for view in old_model(records).runs:
        own = {s["_at"]: k for k, s in enumerate(view.iterations)}
        for s, slot in zip(view.closed, reference_slots(view)):
            if "_of" in s and slot != own[s["_of"]]:
                misplaced.add(s["_of"])
    out = list(records)
    for at in misplaced:
        attrs = dict(out[at]["attributes"])
        del attrs["compute"], attrs["comm"]
        out[at] = {**out[at], "attributes": attrs}
    return out


def outcome(fn, *args) -> tuple[str, Any]:
    """``fn(*args)`` as comparable text, or the exception type it raised."""
    try:
        return ("ok", repr(fn(*args)))
    except Exception as exc:  # noqa: BLE001 -- the type is what is compared
        return ("raised", type(exc))


def critical_dicts(source) -> list[dict[str, Any]]:
    return [run.to_dict() for run in analyze_critical_path(source)]


def reference_critical_dicts(source) -> list[dict[str, Any]]:
    return [run.to_dict() for run in reference_analyze_critical_path(source)]


def assert_readers_match(records: list[dict[str, Any]]) -> None:
    old = old_model(records)
    for view, old_view in zip(TraceModel.of(records).runs, old.runs):
        # The old rule placed rank-track and ``sync`` spans only.
        cols = view.columns
        placed = [
            slot if rank is not None or name == "sync" else None
            for name, rank, slot in zip(cols.name, cols.rank, cols.slot)
        ]
        assert placed == reference_slots(old_view)
    assert outcome(critical_dicts, records) == outcome(
        reference_critical_dicts, old
    )
    assert outcome(flamegraph_collapsed, records) == outcome(
        reference_flamegraph_collapsed, old
    )
    assert outcome(speedscope_document, records) == outcome(
        reference_speedscope_document, old
    )


def tracer_of(records: list[dict[str, Any]], attributes) -> Tracer:
    """A tracer holding ``records`` as its spans and events."""
    tracer = Tracer()
    for record, attrs in zip(records, attributes):
        fields = {k: v for k, v in record.items() if k != "type"}
        fields["attributes"] = attrs
        if record["type"] == "span":
            tracer.spans.append(Span(**fields))
        else:
            tracer.events.append(TraceEvent(**fields))
    return tracer


class TestReadersMatchTheReplacedCode:
    @settings(max_examples=300, deadline=None)
    @given(traces())
    def test_generated_traces(self, records):
        assert_readers_match(records)

    def test_handpicked_trace(self):
        def span(span_id, name, start, end, rank=None, pid=1, parent=None, **attrs):
            return {
                "type": "span", "name": name, "span_id": span_id,
                "parent_id": parent, "pid": pid, "rank": rank,
                "start_sim": start, "end_sim": end, "attributes": attrs,
            }  # fmt: skip

        idle = [0.0] * 9
        records = [
            span(1, "run", 0.0, 3.0),
            # Ranks 9 and 10: rows tying on start, one ending on the end.
            span(2, "iteration", 0.0, 1.0, parent=1,
                 compute=[*idle, 0.6, 0.4], comm=[*idle, 0.4, 0.6]),
            span(3, "iteration", 1.0, 2.0, parent=1),
            span(6, "sync", 0.6, 1.5, parent=1),  # straddles
            span(12, "sync", 0.6, 1.0 + _EPS, parent=1),
            span(7, "sync", 2.5, 2.9, parent=np.int64(1)),  # outside
            span(8, "sync", 1.2, None, parent=1),  # open
            span(9, "sync", 1.5, 2.0, parent=1),
            span(11, "iteration", 1.0, 2.0, pid=2,
                 compute=[0.0, 0.0, 0.0, 0.5], comm=[0.0] * 4),  # a second pid
        ]  # fmt: skip
        assert placed_tracks(records) == records
        assert_readers_match(records)
        (run, _) = old_model(records).runs
        assert reference_slots(run) == [
            None, None, 0, 0, 0, 0, None, None, 0, None, 1,
        ]  # fmt: skip

    def test_pinned_traces(self, tmp_path):
        for make in (chaos_trace, rm3d32_trace):
            tracer = make(tmp_path)
            records = [s.to_dict() for s in tracer.spans]
            records += [e.to_dict() for e in tracer.events]
            assert_readers_match(records)


class TestJsonlTemplate:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_generated_traces(self, data):
        records = data.draw(traces())
        attributes = [data.draw(_ATTRIBUTES) for _ in records]
        tracer = tracer_of(records, attributes)
        assert list(jsonl_lines(tracer)) == list(reference_jsonl_lines(tracer))

    def test_field_types_the_template_spells_itself(self):
        tracer = Tracer()
        for i, value in enumerate(
            (1.5, -0.0, math.nan, math.inf, -math.inf, 7, True, None,
             np.float64(2.5), np.int64(3), "t")
        ):  # fmt: skip
            tracer.spans.append(
                Span("naïve \"x\"", value, value, value, value, float(i),
                     end_wall=value, end_sim=value, rank=value,
                     attributes={np.int64(1): value})  # fmt: skip
            )
        assert list(jsonl_lines(tracer)) == list(reference_jsonl_lines(tracer))
