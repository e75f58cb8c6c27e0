"""Tests for live campaign observability primitives."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.runtime.experiment import campaign_cell
from repro.telemetry.live import (
    ARTIFACT_FILES,
    LiveProgress,
    ProgressLog,
    TelemetryDigest,
    deterministic_tracer,
    digest_from_record,
    format_sse,
    registry_from_progress,
    write_cell_bundle,
)
from repro.telemetry.metrics import openmetrics_selfcheck


def run_cell(seed: int = 1):
    """One small traced cell; returns (record, tracer)."""
    tracer = deterministic_tracer()
    record = campaign_cell(
        "paper-four-node", "greedy", seed, {"iterations": 3}, tracer=tracer
    )
    return record, tracer


class TestDeterministicTracer:
    def test_wall_fields_pinned_to_zero(self):
        _, tracer = run_cell()
        assert tracer.spans  # the cell actually traced something
        for span in tracer.spans:
            assert span.to_dict()["start_wall"] == 0.0
            assert span.to_dict()["end_wall"] == 0.0


class TestCellBundle:
    def test_bundle_files_and_manifest(self, tmp_path):
        _, tracer = run_cell()
        manifest = write_cell_bundle(tracer, tmp_path / "cell", cell_key="k")
        assert set(manifest["files"]) == set(ARTIFACT_FILES)
        for kind, name in ARTIFACT_FILES.items():
            path = tmp_path / "cell" / name
            assert path.is_file()
            assert manifest["files"][kind]["bytes"] == path.stat().st_size
        assert manifest["total_bytes"] == sum(
            f["bytes"] for f in manifest["files"].values()
        )

    def test_profile_json_contents(self, tmp_path):
        _, tracer = run_cell()
        write_cell_bundle(tracer, tmp_path / "cell", cell_key="k")
        doc = json.loads(
            (tmp_path / "cell" / "profile.json").read_text(encoding="utf-8")
        )
        assert doc["cell_key"] == "k"
        assert doc["critical_path"]
        assert doc["phases"]
        assert "metrics" in doc

    def test_profile_json_coerces_numpy_in_the_pinned_format(self, tmp_path):
        # numpy pair values leave numpy cells in the comm matrices (a
        # float32 sum, a numpy-bool "derated"); the encoder hook writes
        # them, in the sorted, indent=1 layout the pre-walk wrote.
        _, tracer = run_cell()
        tracer.event(
            "comm.exchange",
            phase="replay",
            ranks=2,
            table=len(tracer.events),
            pair_table=[[0, 1, np.float64(10.0)]],
            pair_seconds=[np.float32(0.5)],
            pair_derated=[np.bool_(True)],
        )
        write_cell_bundle(tracer, tmp_path / "cell", cell_key="k")
        text = (tmp_path / "cell" / "profile.json").read_text(encoding="utf-8")
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True, indent=1) + "\n"
        (replay,) = [
            p["phases"]["replay"] for p in doc["comm"] if "replay" in p["phases"]
        ]
        assert replay["top_pairs"] == [
            {"bytes": 10.0, "derated": True, "dst": 1, "messages": 1,
             "seconds": 0.5, "src": 0}
        ]  # fmt: skip

    def test_bundle_byte_identical_across_reruns(self, tmp_path):
        for directory in (tmp_path / "a", tmp_path / "b"):
            _, tracer = run_cell(seed=3)
            write_cell_bundle(tracer, directory, cell_key="k")
        for name in ARTIFACT_FILES.values():
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

    def test_no_tmp_files_left_behind(self, tmp_path):
        _, tracer = run_cell()
        write_cell_bundle(tracer, tmp_path / "cell")
        leftovers = list((tmp_path / "cell").glob("*.tmp"))
        assert leftovers == []


class TestTelemetryDigest:
    def test_round_trip(self):
        digest = TelemetryDigest(
            cell_key="k",
            scenario="s",
            partitioner="p",
            seed=7,
            sim_seconds=1.5,
            phases={"compute": 1.0},
            health={"num_events": 2},
            metrics={"total_seconds": 1.5},
            artifacts={"total_bytes": 10, "files": {}},
        )
        assert TelemetryDigest.from_dict(digest.to_dict()) == digest

    def test_digest_from_record(self):
        record, _ = run_cell()
        record["cell_key"] = "k"
        digest = digest_from_record(record, {"total_bytes": 3, "files": {}})
        assert digest.cell_key == "k"
        assert digest.sim_seconds > 0
        assert digest.artifacts["total_bytes"] == 3


class TestProgressLog:
    def test_append_and_read(self, tmp_path):
        log = ProgressLog(tmp_path / "events.jsonl")
        log.append("live.cell_started", cell_key="a")
        log.append("live.cell_finished", cell_key="a", completed=1)
        records = log.read()
        assert [r["name"] for r in records] == [
            "live.cell_started",
            "live.cell_finished",
        ]
        assert records[1]["attributes"]["completed"] == 1

    def test_read_from_is_incremental(self, tmp_path):
        log = ProgressLog(tmp_path / "events.jsonl")
        log.append("live.cell_started", cell_key="a")
        records, offset = log.read_from(0)
        assert len(records) == 1
        log.append("live.cell_finished", cell_key="a")
        more, offset2 = log.read_from(offset)
        assert [r["name"] for r in more] == ["live.cell_finished"]
        assert offset2 > offset

    def test_torn_tail_left_unconsumed(self, tmp_path):
        log = ProgressLog(tmp_path / "events.jsonl")
        log.append("live.cell_started", cell_key="a")
        with open(log.path, "a", encoding="utf-8") as fh:
            fh.write('{"name": "live.cell_fin')  # writer mid-append
        records, offset = log.read_from(0)
        assert len(records) == 1
        with open(log.path, "a", encoding="utf-8") as fh:
            fh.write('ished", "attributes": {}}\n')
        more, _ = log.read_from(offset)
        assert [r["name"] for r in more] == ["live.cell_finished"]

    def test_foreign_lines_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("not json\n[1,2]\n\n", encoding="utf-8")
        assert ProgressLog(path).read() == []

    def test_missing_file_reads_empty(self, tmp_path):
        records, offset = ProgressLog(tmp_path / "nope.jsonl").read_from(0)
        assert records == []
        assert offset == 0


class TestConcurrentReaders:
    """Two independent consumers of one events.jsonl.

    The serving layer runs exactly this shape: the SSE tailer and the
    metrics/decision reconciler each hold their own ``ProgressLog``
    instance over the same file.  Offsets are per-reader cursors, not
    shared state -- one reader's progress must never advance or stall
    the other's.
    """

    def test_readers_hold_independent_offsets(self, tmp_path):
        path = tmp_path / "events.jsonl"
        writer = ProgressLog(path)
        tailer, reconciler = ProgressLog(path), ProgressLog(path)
        writer.append("live.cell_started", cell_key="a")
        writer.append("live.cell_finished", cell_key="a")

        seen_tail, tail_off = tailer.read_from(0)
        assert len(seen_tail) == 2
        # The reconciler starting later still sees everything.
        seen_rec, rec_off = reconciler.read_from(0)
        assert [r["name"] for r in seen_rec] == [
            r["name"] for r in seen_tail
        ]
        assert rec_off == tail_off

        writer.append("live.cell_started", cell_key="b")
        # The tailer consuming the new record does not move the
        # reconciler's cursor: a fresh read from its own offset sees
        # the same record once.
        new_tail, _ = tailer.read_from(tail_off)
        assert [r["name"] for r in new_tail] == ["live.cell_started"]
        new_rec, _ = reconciler.read_from(rec_off)
        assert [r["name"] for r in new_rec] == ["live.cell_started"]

    def test_torn_tail_unconsumed_by_both_readers(self, tmp_path):
        path = tmp_path / "events.jsonl"
        writer = ProgressLog(path)
        writer.append("live.cell_started", cell_key="a")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"name": "live.cell_fin')  # writer mid-append
        tailer, reconciler = ProgressLog(path), ProgressLog(path)
        tail_records, tail_off = tailer.read_from(0)
        rec_records, rec_off = reconciler.read_from(0)
        # Both stop at the last complete line: same view, same offset.
        assert len(tail_records) == len(rec_records) == 1
        assert tail_off == rec_off
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('ished", "attributes": {}}\n')
        # Once the writer completes the line, each reader consumes it
        # exactly once from its own cursor.
        for reader, offset in ((tailer, tail_off), (reconciler, rec_off)):
            more, after = reader.read_from(offset)
            assert [r["name"] for r in more] == ["live.cell_finished"]
            again, _ = reader.read_from(after)
            assert again == []

    def test_interleaved_consumption_sees_every_record_once(self, tmp_path):
        path = tmp_path / "events.jsonl"
        writer = ProgressLog(path)
        tailer, reconciler = ProgressLog(path), ProgressLog(path)
        tail_off = rec_off = 0
        tail_seen: list[str] = []
        rec_seen: list[str] = []
        for i in range(9):
            writer.append("live.cell_finished", cell_key=f"c{i}")
            # The tailer polls every append; the reconciler only every
            # third -- batched catch-up must not skip or duplicate.
            records, tail_off = tailer.read_from(tail_off)
            tail_seen += [r["attributes"]["cell_key"] for r in records]
            if i % 3 == 2:
                records, rec_off = reconciler.read_from(rec_off)
                rec_seen += [r["attributes"]["cell_key"] for r in records]
        expected = [f"c{i}" for i in range(9)]
        assert tail_seen == expected
        assert rec_seen == expected


def event(name: str, wall: float = 0.0, **attrs) -> dict:
    return {"name": name, "wall": wall, "attributes": attrs}


class TestLiveProgress:
    def test_folds_lifecycle_events(self):
        p = LiveProgress()
        assert p.observe(event("campaign.started", num_cells=4, completed=0))
        p.observe(event("live.cell_started", cell_key="a"))
        assert p.running == 1
        p.observe(event("live.cell_finished", wall=1.0, completed=1))
        assert p.completed == 1
        assert p.running == 0
        assert not p.complete

    def test_non_live_records_ignored(self):
        p = LiveProgress()
        assert not p.observe(event("iteration"))
        assert not p.observe(event("campaign.cell_failed"))

    def test_complete_on_completed_event(self):
        p = LiveProgress()
        p.observe(event("campaign.completed", num_cells=2, completed=2))
        assert p.complete

    def test_complete_when_count_reaches_grid(self):
        p = LiveProgress(num_cells=2)
        p.observe(event("live.cell_finished", completed=2))
        assert p.complete

    def test_throughput_and_eta(self):
        p = LiveProgress()
        p.observe(event("campaign.started", wall=0.0, num_cells=4))
        p.observe(event("live.cell_finished", wall=1.0, completed=1))
        p.observe(event("live.cell_finished", wall=2.0, completed=2))
        assert p.throughput == pytest.approx(1.0)
        assert p.eta_seconds == pytest.approx(2.0)

    def test_failed_cells_tracked(self):
        p = LiveProgress(num_cells=2)
        p.observe(event("live.cell_failed", completed=0, failed=1))
        assert p.failed == 1
        assert "1 failed" in p.render_line()

    def test_render_line_bar(self):
        p = LiveProgress(num_cells=4)
        p.observe(event("live.cell_finished", completed=2))
        line = p.render_line()
        assert "2/4 cells" in line
        assert line.startswith("[")


class TestRegistryFromProgress:
    def records(self):
        return [
            event("campaign.started", wall=0.0, num_cells=2, completed=0),
            event("live.cell_started", cell_key="a"),
            event(
                "live.cell_finished",
                wall=1.0,
                completed=1,
                wall_seconds=1.0,
                sim_seconds=5.0,
            ),
            event("live.cell_failed", wall=2.0, completed=1, failed=1),
        ]

    def test_gauges_and_histograms(self):
        registry = registry_from_progress(self.records(), campaign="c")
        summary = {
            (m.name, tuple(sorted(m.labels.items()))): m
            for m in registry
        }
        gauge = summary[("campaign.cells_completed", (("campaign", "c"),))]
        assert gauge.value == 1.0
        failed = summary[("campaign.cells_failed", (("campaign", "c"),))]
        assert failed.value == 1.0
        hist = summary[("campaign.cell_sim_seconds", (("campaign", "c"),))]
        assert hist.count == 1

    def test_exposition_passes_selfcheck(self):
        registry = registry_from_progress(self.records(), campaign="c")
        assert openmetrics_selfcheck(registry.to_openmetrics()) == []


class TestFormatSse:
    def test_frame_shape(self):
        frame = format_sse("live.cell_finished", {"completed": 1})
        assert frame.startswith(b"event: live.cell_finished\n")
        assert frame.endswith(b"\n\n")
        data_line = frame.decode("utf-8").splitlines()[1]
        assert json.loads(data_line[len("data: "):]) == {"completed": 1}
