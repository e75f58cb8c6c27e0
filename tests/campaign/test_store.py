"""Tests for the campaign result store: durability, dedup, compaction."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.campaign.store import ResultStore
from repro.util.errors import CampaignError


def rec(key: str, **extra) -> dict:
    base = {
        "cell_key": key,
        "scenario": "s",
        "partitioner": "p",
        "seed": 1,
        "metrics": {"total_seconds": 1.5},
    }
    base.update(extra)
    return base


class TestAppendAndRead:
    def test_append_then_records(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(rec("b"))
        store.append(rec("a"))
        assert store.keys() == ["b", "a"]  # log order before compaction

    def test_append_requires_cell_key(self, tmp_path):
        with pytest.raises(CampaignError, match="cell_key"):
            ResultStore(tmp_path).append({"metrics": {}})

    def test_duplicate_keys_deduped(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(rec("a", seed=1))
        store.append(rec("a", seed=1))
        assert len(store) == 1

    def test_torn_tail_line_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(rec("a"))
        with open(store.log_path, "a", encoding="utf-8") as fh:
            fh.write('{"cell_key": "b", "metr')  # crash mid-append
        assert store.keys() == ["a"]

    def test_get_missing_key(self, tmp_path):
        with pytest.raises(CampaignError, match="no result record"):
            ResultStore(tmp_path).get("nope")


class TestCompaction:
    def test_compact_sorts_by_key(self, tmp_path):
        store = ResultStore(tmp_path)
        for key in ("c", "a", "b"):
            store.append(rec(key))
        store.compact()
        assert store.keys() == ["a", "b", "c"]
        assert not store.log_path.exists()

    def test_compact_is_idempotent_bytes(self, tmp_path):
        store = ResultStore(tmp_path)
        for key in ("c", "a", "b"):
            store.append(rec(key))
        store.compact()
        first = store.results_path.read_bytes()
        store.compact()
        assert store.results_path.read_bytes() == first

    def test_compact_with_nothing_to_merge_writes_nothing(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path)
        for key in ("b", "a"):
            store.append(rec(key))
        index = store.compact()
        writes = []
        monkeypatch.setattr(os, "write", lambda *a: writes.append(a))
        assert store.compact() == index
        assert writes == []

    def test_compact_rewrites_an_index_that_does_not_cover_results(
        self, tmp_path
    ):
        store = ResultStore(tmp_path)
        for key in ("b", "a"):
            store.append(rec(key))
        index = store.compact()
        for stale in ("{torn", '{"num_cells": 1, "cells": {}}', "[1]"):
            store.index_path.write_text(stale, encoding="utf-8")
            assert store.compact() == index
            assert json.loads(store.index_path.read_text()) == index

    def test_index_offsets_resolve_records(self, tmp_path):
        store = ResultStore(tmp_path)
        for key in ("c", "a", "b"):
            store.append(rec(key, seed=ord(key)))
        index = store.compact()
        assert index["num_cells"] == 3
        for key in ("a", "b", "c"):
            record = store.get(key)
            assert record["cell_key"] == key
            assert record["seed"] == ord(key)

    def test_log_appends_after_compaction_still_visible(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(rec("a"))
        store.compact()
        store.append(rec("b"))
        assert sorted(store.keys()) == ["a", "b"]

    def test_corrupt_index_falls_back_to_scan(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(rec("a"))
        store.compact()
        store.index_path.write_text("{torn", encoding="utf-8")
        assert store.get("a")["cell_key"] == "a"

    def test_compact_syncs_before_rename_and_unlinks_log_last(
        self, tmp_path, monkeypatch
    ):
        """Each temp file is fsynced before its rename, and the ingest log
        -- the only other copy of the acknowledged cells -- goes last."""
        store = ResultStore(tmp_path)
        for key in ("b", "a"):
            store.append(rec(key))
        calls: list[str] = []
        real_fsync, real_replace = os.fsync, Path.replace
        real_unlink = Path.unlink

        def fsync(fd):
            inode = os.fstat(fd).st_ino
            names = {q.stat().st_ino: q.name for q in tmp_path.iterdir()}
            calls.append(f"fsync {names[inode]}")
            return real_fsync(fd)

        def replace(self, target):
            calls.append(f"replace {self.name} -> {Path(target).name}")
            return real_replace(self, target)

        def unlink(self, *args, **kwargs):
            calls.append(f"unlink {self.name}")
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(Path, "replace", replace)
        monkeypatch.setattr(Path, "unlink", unlink)
        store.compact()
        assert calls == [
            "fsync results.tmp",
            "replace results.tmp -> results.jsonl",
            "fsync index.tmp",
            "replace index.tmp -> index.json",
            "unlink results.log.jsonl",
        ]


class TestServingHelpers:
    def test_signature_changes_on_append(self, tmp_path):
        store = ResultStore(tmp_path)
        before = store.signature()
        store.append(rec("a"))
        assert store.signature() != before

    def test_signature_stable_when_untouched(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(rec("a"))
        assert store.signature() == store.signature()

    def test_summary_groups_by_scenario_partitioner(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(rec("a", scenario="s1", partitioner="p1"))
        store.append(rec("b", scenario="s1", partitioner="p1"))
        store.append(rec("c", scenario="s2", partitioner="p1"))
        summary = store.summary()
        assert summary["num_cells"] == 3
        rows = {
            (g["scenario"], g["partitioner"]): g["cells"]
            for g in summary["grid"]
        }
        assert rows == {("s1", "p1"): 2, ("s2", "p1"): 1}

    def test_records_are_canonical_json_lines(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(rec("a"))
        store.compact()
        line = store.results_path.read_text(encoding="utf-8").splitlines()[0]
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":")
        )
