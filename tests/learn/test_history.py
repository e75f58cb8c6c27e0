"""ExecutionHistoryStore durability and ingestion tests.

The store follows the campaign ResultStore discipline: every append is
fsynced, the index is published atomically, and a process killed at any
byte boundary must reload to a prefix of what it wrote -- never to
garbage, never to reordered rows.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.learn import ExecutionHistoryStore
from repro.learn.history import HISTORY_NAME
from repro.util.errors import ExperimentError


def fill(store: ExecutionHistoryStore, n: int = 12) -> None:
    for i in range(n):
        store.record(
            source="t",
            phase=("compute", "iteration", "migrate")[i % 3],
            node=i % 4,
            t=float(i),
            work=10.0 * i,
            seconds=0.5 + 0.1 * i,
        )


def canon(rows) -> list[str]:
    """NaN-tolerant row comparison key (NaN != NaN under dict ==)."""
    return [json.dumps(r, sort_keys=True) for r in rows]


class TestDurability:
    def test_reopen_replays_identical_rows(self, tmp_path):
        store = ExecutionHistoryStore(tmp_path / "h")
        fill(store)
        rows = canon(store.iter_rows())
        reopened = ExecutionHistoryStore(tmp_path / "h")
        assert canon(reopened.iter_rows()) == rows

    def test_interrupt_resume_byte_identical(self, tmp_path):
        """Appending 6+6 rows across a reopen == appending 12 rows."""
        a = ExecutionHistoryStore(tmp_path / "a")
        fill(a, 12)
        b = ExecutionHistoryStore(tmp_path / "b")
        fill(b, 6)
        resumed = ExecutionHistoryStore(tmp_path / "b")
        for i in range(6, 12):
            resumed.record(
                source="t",
                phase=("compute", "iteration", "migrate")[i % 3],
                node=i % 4,
                t=float(i),
                work=10.0 * i,
                seconds=0.5 + 0.1 * i,
            )
        assert (
            (tmp_path / "a" / HISTORY_NAME).read_bytes()
            == (tmp_path / "b" / HISTORY_NAME).read_bytes()
        )

    def test_torn_tail_dropped_not_fatal(self, tmp_path):
        store = ExecutionHistoryStore(tmp_path / "h")
        fill(store, 8)
        path = tmp_path / "h" / HISTORY_NAME
        data = path.read_bytes()
        # Simulate a crash mid-append: leave half a JSON line behind.
        path.write_bytes(data + b'{"seq": 8, "phase": "comp')
        reopened = ExecutionHistoryStore(tmp_path / "h")
        assert len(reopened) == 8
        # The torn tail must not survive the next append either.
        reopened.record(source="t", phase="sense", seconds=1.0)
        again = ExecutionHistoryStore(tmp_path / "h")
        assert len(again) == 9
        assert [r["seq"] for r in again.iter_rows()] == list(range(9))

    def test_stale_index_revalidated(self, tmp_path):
        """A store an older version left its sidecar in loads every row.

        Older versions published a ``(records, bytes)`` high-water mark
        beside the log; rows appended after it must still load.
        """
        store = ExecutionHistoryStore(tmp_path / "h")
        fill(store, 5)
        size = (tmp_path / "h" / HISTORY_NAME).stat().st_size
        (tmp_path / "h" / "index.json").write_text(
            json.dumps({"bytes": size, "records": 5, "schema_version": 1})
        )
        rows = canon(store.iter_rows())
        store.record(source="t", phase="sense", seconds=2.0)
        reopened = ExecutionHistoryStore(tmp_path / "h")
        assert len(reopened) == 6
        assert canon(reopened.iter_rows())[:5] == rows

    def test_corrupt_index_ignored(self, tmp_path):
        """A stray ``index.json`` left by an older version is not read."""
        store = ExecutionHistoryStore(tmp_path / "h")
        fill(store, 4)
        (tmp_path / "h" / "index.json").write_text("not json")
        reopened = ExecutionHistoryStore(tmp_path / "h")
        assert len(reopened) == 4

    def test_empty_phase_rejected(self, tmp_path):
        store = ExecutionHistoryStore(tmp_path / "h")
        with pytest.raises(ExperimentError):
            store.record(source="t", phase="", seconds=1.0)


class TestColumnar:
    def test_query_filters_compose(self, tmp_path):
        store = ExecutionHistoryStore(tmp_path / "h")
        fill(store)
        view = store.query(phase="compute", node=0)
        assert (view["node"] == 0).all()
        assert len(view["seconds"]) == len(
            [
                r
                for r in store.iter_rows()
                if r["phase"] == "compute" and r["node"] == 0
            ]
        )

    def test_column_dtype_numeric(self, tmp_path):
        store = ExecutionHistoryStore(tmp_path / "h")
        fill(store)
        assert store.column("seconds").dtype == np.float64
        assert store.column("node").dtype == np.int64

    def test_work_series_filters_phase_and_node(self, tmp_path):
        store = ExecutionHistoryStore(tmp_path / "h")
        store.record(source="t", phase="compute", node=1, t=5.0,
                     work=2.0, seconds=0.2)
        store.record(source="t", phase="compute", node=2, t=5.0,
                     work=9.0, seconds=0.9)
        store.record(source="t", phase="compute", node=1, t=6.0,
                     work=1.0, seconds=0.1)
        work, seconds = store.work_series("compute", 1)
        assert list(work) == [2.0, 1.0]
        assert list(seconds) == [0.2, 0.1]


class TestIngestion:
    def profile(self, cell: str) -> dict:
        return {
            "schema_version": 1,
            "cell_key": cell,
            "phases": {
                "compute": {"count": 4, "sim_seconds": 8.0},
                "sync": {"count": 4, "sim_seconds": 1.0},
            },
            "metrics": {"counters": {"total_sim_seconds": 9.0}},
        }

    def test_ingest_artifacts_idempotent(self, tmp_path):
        camp = tmp_path / "camp"
        for cell in ("a--s1", "b--s1"):
            d = camp / "artifacts" / cell
            d.mkdir(parents=True)
            (d / "profile.json").write_text(json.dumps(self.profile(cell)))
        store = ExecutionHistoryStore(tmp_path / "h")
        added = store.ingest_artifacts(camp)
        assert added == 4  # 2 cells x 2 phases
        assert store.ingest_artifacts(camp) == 0  # idempotent
        assert sorted(store.sources()) == ["a--s1", "b--s1"]

    def test_ingest_survives_reopen(self, tmp_path):
        camp = tmp_path / "camp"
        d = camp / "artifacts" / "a--s1"
        d.mkdir(parents=True)
        (d / "profile.json").write_text(json.dumps(self.profile("a--s1")))
        store = ExecutionHistoryStore(tmp_path / "h")
        store.ingest_artifacts(camp)
        reopened = ExecutionHistoryStore(tmp_path / "h")
        assert reopened.ingest_artifacts(camp) == 0
