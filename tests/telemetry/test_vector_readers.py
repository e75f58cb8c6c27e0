"""The vector readers against the row-at-a-time readers they replaced.

``analyze_critical_path`` reads each ``iteration`` span's ``compute`` /
``comm`` vectors and ``comm_profile`` each exchange's pair table as
arrays.  The row-at-a-time versions live on in
:mod:`tests.telemetry.row_readers`; on generated traces both must give
the same ``to_dict()``, float for float.  Vectors whose lengths
disagree raise a typed error instead of being cut to the shorter one.
"""

from __future__ import annotations

from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import TraceModel, analyze_critical_path, comm_profile
from repro.telemetry.model import rank_rows
from repro.util.errors import TelemetryError
from tests.telemetry.row_readers import row_analyze_critical_path, row_comm_profile

#: Rank-track entries: zero, negative, below an ulp of the iteration's
#: start (so ``(start + c) - start == 0``) and ordinary.
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.25, 1e-300, 5e-324, 1e-17]),
    st.floats(0.0, 2.0, allow_nan=False),
)
_CRITICAL = st.one_of(st.none(), st.integers(-1, 7))
#: Terms whose sum depends on the order they are added in.
_ORDERED = st.sampled_from([1.0, 1e16])
#: A pair row over few ranks, so ``(src, dst)`` pairs repeat.
_PAIRS = st.tuples(
    st.integers(0, 3),
    st.integers(0, 3),
    st.one_of(st.integers(0, 10**6), st.floats(0.0, 1e9), _ORDERED),
    st.one_of(st.floats(0.0, 10.0), _ORDERED),
    st.one_of(st.booleans(), st.sampled_from([0, 1])),
)


def assert_bitwise(got: Any, want: Any) -> None:
    """Equal, and spelled alike: ``-0.0`` and ``0.0`` or ``1`` and
    ``1.0`` would pass ``==`` alone."""
    assert got == want
    assert repr(got) == repr(want)


@st.composite
def runs(draw, pid: int) -> list[dict[str, Any]]:
    """One run's ``run``, ``iteration`` and ``sync`` spans and its
    ``comm.exchange`` events, in recorded order."""
    ids = iter(range(pid * 1000, pid * 1000 + 999))
    records: list[dict[str, Any]] = []

    def span(name, start, end, **attributes):
        records.append(
            {"type": "span", "name": name, "span_id": next(ids),
             "parent_id": None, "pid": pid, "rank": None,
             "start_sim": start, "end_sim": end, "attributes": attributes}
        )  # fmt: skip

    span("run", 0.0, None, partitioner=f"P{pid}")
    clock = draw(st.sampled_from([0.0, 1.0, 1e6]))
    tables: list[tuple[int, list]] = []  # (id, rows) recorded so far
    for number in range(draw(st.integers(0, 5))):
        duration = draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))
        size = draw(st.integers(0, 5))  # varies from iteration to iteration
        vectors = draw(
            st.lists(st.tuples(_ENTRIES, _ENTRIES), min_size=size, max_size=size)
        )
        attributes: dict[str, Any] = {"iteration": number}
        if vectors or draw(st.booleans()):
            attributes["compute"] = [c for c, _ in vectors]
            attributes["comm"] = [m for _, m in vectors]
        critical = draw(_CRITICAL)
        if critical is not None:
            attributes["critical_rank"] = critical
        span("iteration", clock, clock + duration, **attributes)
        for _ in range(draw(st.integers(0, 2))):
            # Inside, straddling the iteration's end, or past it.
            lo = clock + draw(st.sampled_from([0.0, 0.25, 0.5]))
            hi = lo + draw(st.sampled_from([0.0, 0.25, 1.0, 4.0]))
            span("sync", lo, hi)
        for _ in range(draw(st.integers(0, 2))):
            attrs = {
                "phase": draw(st.sampled_from(["ghost-exchange", "migration"])),
                "ranks": draw(st.integers(0, 4)),
            }
            if tables and draw(st.booleans()):
                # Name the last recorded table, with columns of its length.
                attrs["table"], table = tables[-1]
                pairs = draw(st.lists(_PAIRS, min_size=len(table), max_size=len(table)))
            else:
                pairs = draw(st.lists(_PAIRS, max_size=8))
                attrs["table"] = pid * 1000 + len(records)
                attrs["pair_table"] = [list(p[:3]) for p in pairs]
                tables.append((attrs["table"], attrs["pair_table"]))
            attrs["pair_seconds"] = [p[3] for p in pairs]
            attrs["pair_derated"] = [p[4] for p in pairs]
            records.append(
                {"type": "event", "name": "comm.exchange", "pid": pid,
                 "attributes": attrs}
            )  # fmt: skip
        clock += duration
    return records


@st.composite
def traces(draw) -> list[dict[str, Any]]:
    """Two runs (pids 1 and 2), their records interleaved."""
    first, second = draw(runs(1)), draw(runs(2))
    order = draw(st.permutations([0] * len(first) + [1] * len(second)))
    sources = [iter(first), iter(second)]
    return [next(sources[k]) for k in order]


class TestVectorReadersMatchTheRowReaders:
    @settings(max_examples=300, deadline=None)
    @given(traces())
    def test_critical_path(self, records):
        assert_bitwise(
            [run.to_dict() for run in analyze_critical_path(records)],
            [run.to_dict() for run in row_analyze_critical_path(records)],
        )

    @settings(max_examples=300, deadline=None)
    @given(traces())
    def test_comm_profile(self, records):
        assert_bitwise(
            [p.to_dict() for p in comm_profile(records)],
            [p.to_dict() for p in row_comm_profile(records)],
        )

    def test_handpicked_trace(self):
        def span(span_id, name, start, end, pid=1, **attributes):
            return {"type": "span", "name": name, "span_id": span_id,
                    "parent_id": None, "pid": pid, "rank": None,
                    "start_sim": start, "end_sim": end,
                    "attributes": attributes}  # fmt: skip

        def exchange(table, pid=1, **columns):
            return {"type": "event", "name": "comm.exchange", "pid": pid,
                    "attributes": {"phase": "ghost-exchange", "ranks": 2,
                                   "table": table, **columns}}  # fmt: skip

        records = [
            span(1, "run", 0.0, None, partitioner="P"),
            # Rank 0 computes below an ulp of the start; rank 2 idles.
            span(2, "iteration", 1.0, 2.0, iteration=0,
                 compute=[1e-17, 0.5, 0.0], comm=[0.25, 0.25, 0.0]),
            span(3, "iteration", 2.0, 3.0, iteration=1, critical_rank=6,
                 compute=[0.5], comm=[0.0]),
            span(4, "sync", 1.75, 2.5),  # straddles the first iteration's end
            span(5, "sync", 2.5, 2.75),
            span(6, "iteration", 0.0, 1.0, pid=2, iteration=0,
                 compute=[0.0, 0.75], comm=[0.0, 0.25]),
            exchange(10, pair_table=[[0, 1, 8], [0, 1, 4.5], [3, 0, 2]],
                     pair_seconds=[0.1, 0.2, 0.3],
                     pair_derated=[True, 0, 1]),
            exchange(10, pair_seconds=[0.3, 0.2, 0.1],
                     pair_derated=[False, 1, 0]),
            # In event order 1e16 + 1 + 1 stays 1e16; backwards it does not.
            exchange(11, pair_table=[[1, 2, 1e16], [1, 2, 1.0], [1, 2, 1.0]],
                     pair_seconds=[0.0] * 3, pair_derated=[1, 1, 1]),
            exchange(20, pid=2, pair_table=[], pair_seconds=[],
                     pair_derated=[]),
        ]  # fmt: skip
        paths = analyze_critical_path(records)
        assert_bitwise(
            [run.to_dict() for run in paths],
            [run.to_dict() for run in row_analyze_critical_path(records)],
        )
        first, second = paths[0].iterations
        assert first.busy_per_rank == {0: 0.25, 1: 0.75}
        assert second.critical_rank == 6 and second.compute_s == 0.0
        profiles = comm_profile(records)
        assert_bitwise(
            [p.to_dict() for p in profiles],
            [p.to_dict() for p in row_comm_profile(records)],
        )
        total = profiles[0].total
        assert total.size == 4
        assert total.messages[0][1] == 4
        assert total.derated_bytes[0][1] == 8 + 4.5
        assert total.bytes[1][2] == total.derated_bytes[1][2] == 1e16


# ----------------------------------------------------------------------
# Vectors of unequal length
# ----------------------------------------------------------------------
def _iteration(compute, comm) -> list[dict[str, Any]]:
    return [
        {"type": "span", "name": "iteration", "span_id": 7, "parent_id": None,
         "pid": 1, "rank": None, "start_sim": 0.0, "end_sim": 4.0,
         "attributes": {"iteration": 3, "compute": compute, "comm": comm}}
    ]  # fmt: skip


def _exchange(seconds, derated) -> list[dict[str, Any]]:
    return [
        {"type": "event", "name": "comm.exchange", "pid": 1,
         "attributes": {"phase": "ghost-exchange", "ranks": 2, "table": 5,
                        "pair_table": [[0, 1, 8.0], [1, 0, 8.0]],
                        "pair_seconds": seconds, "pair_derated": derated}}
    ]  # fmt: skip


class TestMismatchedVectors:
    @pytest.mark.parametrize(
        "compute, comm", [([1, 2, 3], [0.5, 0.5]), ([1], [0.5, 0.5])]
    )
    @pytest.mark.parametrize(
        "reader",
        [
            analyze_critical_path,
            lambda records: TraceModel.of(records).runs[0].columns,
            lambda records: rank_rows(0.0, records[0]["attributes"]),
        ],
        ids=["critical-path", "columns", "rank-rows"],
    )
    def test_rank_track(self, reader, compute, comm):
        message = (
            f"iteration span 3 has {len(compute)} compute entries "
            f"but {len(comm)} comm entries"
        )
        with pytest.raises(TelemetryError, match=message):
            reader(_iteration(compute, comm))

    @pytest.mark.parametrize(
        "seconds, derated, column, count",
        [
            ([0.1], [False, True], "pair_seconds", 1),
            ([0.1, 0.2, 0.3], [False, True], "pair_seconds", 3),
            ([0.1, 0.2], [True], "pair_derated", 1),
        ],
    )
    def test_pair_table(self, seconds, derated, column, count):
        message = f"pair table 5 has {count} {column} entries for 2 pairs"
        with pytest.raises(TelemetryError, match=message):
            comm_profile(_exchange(seconds, derated))
