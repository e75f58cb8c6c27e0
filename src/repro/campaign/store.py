"""The campaign result store: append-only JSONL log + compacted index.

Two-file design, mirroring how log-structured stores separate ingest
from serving:

- ``results.log.jsonl`` -- the *ingest log*.  Workers complete cells in
  nondeterministic order, so records are appended (and fsynced) here the
  moment they arrive; a crash loses at most the line being written, and
  a torn final line is skipped on read and terminated by the next
  append rather than poisoning the store (:mod:`repro.util.durable`).
- ``results.jsonl`` + ``index.json`` -- the *canonical store*.
  :meth:`ResultStore.compact` merges the log, dedupes by cell key, sorts
  by key and rewrites both atomically.  Because every record is a
  deterministic function of its cell spec (see
  :func:`repro.runtime.experiment.campaign_cell`) and the canonical
  encoding is fixed, the compacted store is **byte-identical** no matter
  how many workers ran the campaign or how often it was interrupted --
  the property the determinism acceptance test pins.

The index maps cell key -> byte offset/length into ``results.jsonl``
plus a summary row, so the HTTP layer answers cell queries with one
``seek`` instead of a scan.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.util import durable
from repro.util.errors import CampaignError

__all__ = [
    "ResultStore",
    "RESULTS_NAME",
    "LOG_NAME",
    "INDEX_NAME",
    "ARTIFACTS_DIRNAME",
]

RESULTS_NAME = "results.jsonl"
LOG_NAME = "results.log.jsonl"
INDEX_NAME = "index.json"
#: Per-cell trace-artifact bundles live under ``artifacts/<cell-key>/``.
ARTIFACTS_DIRNAME = "artifacts"

#: Fields copied from each record into its index summary row.
_SUMMARY_FIELDS = ("scenario", "partitioner", "seed")


class ResultStore:
    """Per-cell result records for one campaign directory."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.results_path = self.directory / RESULTS_NAME
        self.log_path = self.directory / LOG_NAME
        self.index_path = self.directory / INDEX_NAME

    # -- ingest --------------------------------------------------------
    def append(self, record: dict[str, Any]) -> None:
        """Durably append one completed-cell record to the ingest log."""
        if "cell_key" not in record:
            raise CampaignError("result record is missing 'cell_key'")
        durable.append_line(
            self.log_path, durable.canonical_json(record), sync=True
        )

    # -- reads ---------------------------------------------------------
    def records(self) -> list[dict[str, Any]]:
        """All records, canonical first, deduped by cell key (first wins)."""
        seen: set[str] = set()
        out: list[dict[str, Any]] = []
        for path in (self.results_path, self.log_path):
            # A torn tail from a crash mid-append is not a row: its cell
            # was never acknowledged, so the resumed campaign re-runs it.
            for record in durable.read_rows(path, "cell_key")[0]:
                key = record["cell_key"]
                if key in seen:
                    continue
                seen.add(key)
                out.append(record)
        return out

    def keys(self) -> list[str]:
        return [r["cell_key"] for r in self.records()]

    def __len__(self) -> int:
        return len(self.records())

    def get(self, key: str) -> dict[str, Any]:
        """One record by cell key; indexed lookup when compacted."""
        index = self._load_index()
        if index is not None and key in index.get("cells", {}):
            entry = index["cells"][key]
            with open(self.results_path, "rb") as fh:
                fh.seek(entry["offset"])
                blob = fh.read(entry["length"])
            return json.loads(blob.decode("utf-8"))
        for record in self.records():
            if record["cell_key"] == key:
                return record
        raise CampaignError(f"no result record for cell {key!r}")

    def _load_index(self) -> dict[str, Any] | None:
        if not self.index_path.is_file():
            return None
        try:
            return json.loads(self.index_path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            return None  # stale/torn index: fall back to scanning

    def _covers_results(self, index: Any) -> bool:
        """Whether ``index`` accounts for every byte of ``results.jsonl``."""
        try:
            covered = sum(int(c["length"]) for c in index["cells"].values())
            return covered == self.results_path.stat().st_size
        except (AttributeError, KeyError, TypeError, ValueError, OSError):
            return False  # not an index this store wrote, or no results

    # -- compaction ----------------------------------------------------
    def compact(self) -> dict[str, Any]:
        """Merge log into the canonical store; rewrite the index.

        Records are sorted by cell key and re-encoded canonically, then
        both files are published atomically (fsynced tmp + rename) before
        the ingest log is dropped.  Returns the index payload.

        With no ingest log and an index that accounts for every byte of
        ``results.jsonl`` there is nothing to merge, and nothing is
        written: a no-op resume must not move the mtimes the serving
        layer's ETags are built from.
        """
        index = self._load_index()
        if not self.log_path.exists() and self._covers_results(index):
            return index
        records = sorted(self.records(), key=lambda r: r["cell_key"])
        index: dict[str, Any] = {"num_cells": len(records), "cells": {}}
        offset = 0
        lines: list[str] = []
        for record in records:
            line = durable.canonical_json(record) + "\n"
            nbytes = len(line.encode("utf-8"))
            summary = {
                k: record.get(k) for k in _SUMMARY_FIELDS if k in record
            }
            index["cells"][record["cell_key"]] = {
                "offset": offset,
                "length": nbytes,
                **summary,
            }
            offset += nbytes
            lines.append(line)

        durable.publish(self.results_path, "".join(lines), sync=True)
        durable.publish(
            self.index_path,
            json.dumps(index, sort_keys=True, indent=1) + "\n",
            sync=True,
        )
        # Last: until both files are durable the log is the only copy of
        # the acknowledged cells it holds.
        self.log_path.unlink(missing_ok=True)
        return index

    # -- artifact bundles ---------------------------------------------
    @property
    def artifacts_root(self) -> Path:
        return self.directory / ARTIFACTS_DIRNAME

    def artifact_dir(self, key: str) -> Path:
        """The bundle directory for one cell key (may not exist yet)."""
        return self.artifacts_root / key

    def has_artifacts(self, key: str) -> bool:
        return self.artifact_dir(key).is_dir()

    def artifact_path(self, key: str, filename: str) -> Path:
        """One artifact file inside a cell's bundle directory.

        ``filename`` must be a bare name -- the serving layer maps its
        public ``kind`` segment through a fixed table before calling
        this, so no request-controlled path component ever carries a
        separator.
        """
        if "/" in filename or "\\" in filename or filename in (".", ".."):
            raise CampaignError(f"invalid artifact filename {filename!r}")
        return self.artifact_dir(key) / filename

    # -- serving helpers ----------------------------------------------
    def signature(self) -> tuple:
        """Cheap change token over the store's files (for ETag caching).

        Any append, compaction or rewrite bumps an mtime or size, so a
        cached render keyed on this tuple is invalidated exactly when
        the underlying data can have changed.
        """
        sig = []
        for path in (self.results_path, self.log_path, self.index_path):
            try:
                st = path.stat()
                sig.append((path.name, st.st_mtime_ns, st.st_size))
            except FileNotFoundError:
                sig.append((path.name, 0, 0))
        return tuple(sig)

    def summary(self) -> dict[str, Any]:
        """Aggregates for status lines and the served report."""
        records = self.records()
        by_pair: dict[tuple[str, str], list[float]] = {}
        for record in records:
            metrics = record.get("metrics", {})
            pair = (record.get("scenario"), record.get("partitioner"))
            by_pair.setdefault(pair, []).append(
                float(metrics.get("total_seconds", 0.0))
            )
        grid = [
            {
                "scenario": scenario,
                "partitioner": partitioner,
                "cells": len(times),
                "mean_total_seconds": sum(times) / len(times),
            }
            for (scenario, partitioner), times in sorted(by_pair.items())
        ]
        return {"num_cells": len(records), "grid": grid}
