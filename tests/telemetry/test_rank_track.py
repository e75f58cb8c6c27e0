"""The rank track and the pair tables against the writers they replaced.

An ``iteration`` span carries the priced per-rank ``compute`` / ``comm``
vectors, and every reader expands them with
:func:`repro.telemetry.model.rank_rows`; an exchange event carries its
seconds and derate columns and names a ``(src, dst, bytes)`` table,
joined by :func:`repro.telemetry.model.pair_rows`.  The writers that
recorded one span per rank phase and listed every pair on every event
are copied below verbatim (``reference_*``): the expansions must give
their rows, in their order, bit for bit.  A trace in that older form is
refused with a typed error, and ``repro profile`` / ``repro report``
say so in one line.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.cluster import Cluster
from repro.comm import SimCommunicator
from repro.comm.simmpi import EVENT_PAIR_CAP
from repro.runtime.pipeline import RepartitionPipeline
from repro.runtime.timemodel import IterationCost
from repro.telemetry import (
    TraceModel,
    Tracer,
    deterministic_tracer,
    load_trace_records,
    write_jsonl,
)
from repro.telemetry.model import pair_rows, rank_rows
from repro.util.errors import TelemetryError


# ----------------------------------------------------------------------
# The replaced writers, verbatim but for names
# ----------------------------------------------------------------------
def reference_emit_iteration_spans(
    self, start_sim: float, cost: IterationCost, attrs: dict
) -> None:
    """Per-rank compute/ghost-exchange tracks for one priced iteration.

    The time model prices the whole iteration at once; this decomposes
    the per-rank breakdown into simulated-time spans (compute first,
    then the rank's serialized ghost exchange, then the collective
    sync gating everyone).  ``attrs`` land on the enclosing
    ``iteration`` span (loop counter plus :meth:`health_attrs`),
    alongside the critical-path attribution the profiler keys on:
    which rank's busy time gated the step, and the sync tax.
    """
    tracer = self.tracer
    busy_per_rank = cost.compute + cost.comm
    critical_rank = (
        int(busy_per_rank.argmax()) if len(busy_per_rank) else None
    )
    tracer.add_span(
        "iteration",
        start_sim,
        start_sim + cost.total,
        critical_rank=critical_rank,
        sync_s=float(cost.sync),
        **attrs,
    )
    for rank in range(len(cost.compute)):
        compute = float(cost.compute[rank])
        comm = float(cost.comm[rank])
        if compute > 0.0:
            tracer.add_span(
                "compute", start_sim, start_sim + compute, rank=rank
            )
        if comm > 0.0:
            tracer.add_span(
                "ghost-exchange",
                start_sim + compute,
                start_sim + compute + comm,
                rank=rank,
            )
    if cost.sync > 0.0:
        busy = float(busy_per_rank.max())
        tracer.add_span(
            "sync", start_sim + busy, start_sim + busy + cost.sync
        )


class ReferenceCommunicator(SimCommunicator):
    """The communicator whose exchange events listed every pair."""

    def _emit_exchange_event(
        self,
        phase: str,
        ends: np.ndarray,
        nbytes: np.ndarray,
        seconds: np.ndarray,
        derated: np.ndarray,
        busy: np.ndarray,
        t: float | None,
    ) -> None:
        messages = len(nbytes)
        makespan = float(busy.max()) if busy.size else 0.0
        attrs = {
            "phase": phase,
            "ranks": self.size,
            "bytes": int(nbytes.sum()),
            "messages": messages,
            "seconds": makespan,
            "derated_bytes": int(nbytes[derated].sum()),
        }
        dropped = max(messages - EVENT_PAIR_CAP, 0)
        # Over the cap: heaviest first, ties in pair order (a stable
        # descending sort).
        rows = (
            np.argsort(-nbytes, kind="stable")[:EVENT_PAIR_CAP]
            if dropped
            else slice(None)
        )
        attrs["pairs"] = [
            list(row)
            for row in zip(
                ends[rows, 0].tolist(),
                ends[rows, 1].tolist(),
                nbytes[rows].tolist(),
                seconds[rows].tolist(),
                derated[rows].tolist(),
            )
        ]
        if dropped:
            attrs["pairs_dropped"] = dropped
        if t is not None:
            attrs["t"] = float(t)
        self._tracer.event("comm.exchange", **attrs)
        self._tracer.metrics.histogram("comm.phase_seconds", phase=phase).observe(
            makespan
        )


# ----------------------------------------------------------------------
# Rank rows
# ----------------------------------------------------------------------
#: Entries: zeros of both signs, subnormals, negatives, ordinary costs.
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2e-308, 6e-14, 1e-13]),
    st.floats(-1.0, 10.0),
    st.floats(0.0, 1e-300),
)
#: Starts near zero and near 1e3 s, where ``start + c`` rounds.
_STARTS = st.one_of(
    st.floats(0.0, 2.0), st.floats(999.0, 1001.0), st.just(1000.0)
)


@st.composite
def costs(draw) -> IterationCost:
    n = draw(st.integers(1, 64))
    compute = np.array(draw(st.lists(_ENTRIES, min_size=n, max_size=n)))
    comm = np.array(draw(st.lists(_ENTRIES, min_size=n, max_size=n)))
    sync = draw(st.sampled_from([0.0, 0.25]))
    total = float((compute + comm).max()) + sync
    return IterationCost(compute=compute, comm=comm, sync=sync, total=total)


def rows_of(spans) -> list[tuple]:
    """``(name, rank, start_sim, end_sim)`` of the rank-tagged spans, the
    floats as ``repr`` (bit for bit: ``-0.0`` is not ``0.0``)."""
    return [
        (s.name, s.rank, repr(s.start_sim), repr(s.end_sim))
        for s in spans
        if s.rank is not None
    ]


def reprs(rows) -> list[tuple]:
    return [(name, rank, repr(lo), repr(hi)) for name, rank, lo, hi in rows]


class TestRankRows:
    @settings(max_examples=300, deadline=None)
    @given(_STARTS, costs())
    def test_expansion_gives_the_writer_rows_in_order(self, start, cost):
        reference, tracer = deterministic_tracer(), deterministic_tracer()
        attrs = {"iteration": 3, "epoch": 1}
        reference_emit_iteration_spans(
            SimpleNamespace(tracer=reference), start, cost, dict(attrs)
        )
        RepartitionPipeline.emit_iteration_spans(
            SimpleNamespace(tracer=tracer), start, cost, dict(attrs)
        )
        iteration, *rest = tracer.spans
        want = rows_of(reference.spans)
        assert reprs(rank_rows(iteration.start_sim, iteration.attributes)) == want
        # The span itself and the sync span are the writer's, vectors aside.
        attributes = dict(iteration.attributes)
        assert attributes.pop("compute") == cost.compute.tolist()
        assert attributes.pop("comm") == cost.comm.tolist()
        assert attributes == reference.spans[0].attributes
        assert [s.to_dict() for s in rest] == [
            {**s.to_dict(), "span_id": s.span_id - len(want)}
            for s in reference.spans[1 + len(want):]
        ]
        # ... and so are the rows read back from the exported trace.
        (record,) = [
            r for r in map(json.loads, _lines(tracer)) if r["name"] == "iteration"
        ]
        assert reprs(rank_rows(record["start_sim"], record["attributes"])) == want

    def test_a_span_without_a_track_has_no_rows(self):
        assert rank_rows(1.0, {}) == []
        assert rank_rows(1.0, {"compute": [], "comm": []}) == []

    def test_start_plus_entry_rounds_as_the_writer_rounded(self):
        start, c, m = 1000.0, 6e-14, 6e-14
        (compute, ghost) = rank_rows(start, {"compute": [c], "comm": [m]})
        assert compute == ("compute", 0, start, start + c)
        assert ghost == ("ghost-exchange", 0, start + c, start + c + m)
        assert ghost[3] != start + (c + m)  # the sum is not reassociated


def _lines(tracer) -> list[str]:
    from repro.telemetry.export import jsonl_lines

    return list(jsonl_lines(tracer))


# ----------------------------------------------------------------------
# Pair rows
# ----------------------------------------------------------------------
def listed_pairs(tracer) -> list[list[list]]:
    """Each exchange's pair rows through the model, as lists."""
    return [
        [list(row) for row in pair_rows(e["attributes"], view.pair_tables)]
        for view in TraceModel.of(tracer).runs
        for e in view.comm_events
    ]


def run_exchanges(cluster, schedule) -> tuple[Tracer, Tracer]:
    """``schedule`` of ``(pair_bytes, phase, t)`` through the reference
    communicator and the current one, each on its own tracer."""
    reference, tracer = Tracer(), Tracer()
    old = ReferenceCommunicator(cluster, reference)
    new = SimCommunicator(cluster, tracer)
    for pair_bytes, phase, t in schedule:
        old.exchange_time(pair_bytes, t, phase=phase)
        new.exchange_time(pair_bytes, t, phase=phase)
    return reference, tracer


def assert_same_exchanges(reference: Tracer, tracer: Tracer) -> None:
    old = [e.attributes for e in reference.events]
    assert listed_pairs(tracer) == [a["pairs"] for a in old]
    columns = ("table", "pair_table", "pair_seconds", "pair_derated")
    assert [
        {k: v for k, v in e.attributes.items() if k not in columns}
        for e in tracer.events
    ] == [{k: v for k, v in a.items() if k != "pairs"} for a in old]


@st.composite
def schedules(draw):
    """A cluster and a run of exchanges over a few layouts, layouts
    repeating (a table shared) and phases interleaving."""
    n = draw(st.integers(2, 6))
    cluster = Cluster.homogeneous(n)
    if draw(st.booleans()):
        cluster.degrade_link(draw(st.integers(0, n - 1)), 0.5)
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    layouts = draw(
        st.lists(
            st.dictionaries(pair, st.sampled_from([0.0, 64.0, 1e3, 1e6]), max_size=8),
            min_size=1,
            max_size=3,
        )
    )
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(layouts) - 1),
                st.sampled_from(["ghost-exchange", "migration"]),
                st.none() | st.floats(0.0, 5.0),
            ),
            max_size=8,
        )
    )
    return cluster, [(layouts[k], phase, t) for k, phase, t in steps]


class TestPairRows:
    @settings(max_examples=200, deadline=None)
    @given(schedules())
    def test_table_and_exchange_give_the_listed_pairs(self, drawn):
        cluster, schedule = drawn
        assert_same_exchanges(*run_exchanges(cluster, schedule))

    def test_over_the_cap_heaviest_first_with_pairs_dropped(self):
        n = 40
        cluster = Cluster.homogeneous(n)
        cluster.degrade_link(3, 0.5)
        pair_bytes = {
            (s, d): float((s * 7 + d * 3) % 11)  # many ties, some zero-byte
            for s in range(n)
            for d in range(n)
            if (s + d) % 2
        }
        assert len(pair_bytes) > EVENT_PAIR_CAP
        schedule = [(pair_bytes, "ghost-exchange", 1.0)] * 2
        reference, tracer = run_exchanges(cluster, schedule)
        assert_same_exchanges(reference, tracer)
        first, again = (e.attributes for e in tracer.events)
        assert first["pairs_dropped"] == again["pairs_dropped"] > 0
        assert len(first["pair_table"]) == EVENT_PAIR_CAP
        assert "pair_table" not in again and again["table"] == first["table"]

    def test_an_unknown_table_is_a_typed_error(self):
        with pytest.raises(TelemetryError, match="pair table 7"):
            pair_rows({"table": 7, "pair_seconds": [], "pair_derated": []}, {})


# ----------------------------------------------------------------------
# Traces in the older form
# ----------------------------------------------------------------------
#: A three-record trace as the per-rank writer recorded it.
OLD_TRACE = [
    {"type": "span", "name": "iteration", "span_id": 2, "parent_id": 1,
     "pid": 1, "rank": None, "start_wall": 0.0, "end_wall": 0.0,
     "start_sim": 0.0, "end_sim": 1.0, "attributes": {"iteration": 0}},
    {"type": "span", "name": "compute", "span_id": 3, "parent_id": 1,
     "pid": 1, "rank": 0, "start_wall": 0.0, "end_wall": 0.0,
     "start_sim": 0.0, "end_sim": 0.6, "attributes": {}},
    {"type": "span", "name": "ghost-exchange", "span_id": 4, "parent_id": 1,
     "pid": 1, "rank": 0, "start_wall": 0.0, "end_wall": 0.0,
     "start_sim": 0.6, "end_sim": 1.0, "attributes": {}},
]  # fmt: skip


class TestOlderFormat:
    def test_model_refuses_a_rank_span(self):
        with pytest.raises(TelemetryError, match="older format"):
            TraceModel.of(OLD_TRACE)

    def test_model_refuses_a_listed_exchange(self):
        event = {
            "type": "event", "name": "comm.exchange", "pid": 1,
            "attributes": {"phase": "ghost-exchange", "pairs": []},
        }  # fmt: skip
        with pytest.raises(TelemetryError, match="older format"):
            TraceModel.of([event])

    def test_model_refuses_another_format_version(self):
        run = {"type": "span", "name": "run", "pid": 1, "start_sim": 0.0,
               "end_sim": 1.0, "attributes": {"trace_format": 1}}  # fmt: skip
        with pytest.raises(TelemetryError, match="format 1"):
            TraceModel.of([run])

    @pytest.mark.parametrize("command", ["profile", "report"])
    def test_cli_says_so_in_one_line(self, command, tmp_path, capsys):
        path = tmp_path / "old.events.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in OLD_TRACE))
        assert main([command, str(path), "--out-dir", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith(f"cannot read trace file {path}: ")
        assert "older format" in line and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_a_written_trace_is_the_current_format(self, tmp_path):
        from tests.telemetry.test_reader_digests import rm3d32_trace

        path = tmp_path / "rm3d32.events.jsonl"
        write_jsonl(rm3d32_trace(tmp_path), path)
        records = load_trace_records(path)
        assert not [r for r in records if r.get("rank") is not None]
        runs = [r for r in records if r["name"] == "run"]
        assert [r["attributes"]["trace_format"] for r in runs] == [2]
        assert TraceModel.of(records).runs
