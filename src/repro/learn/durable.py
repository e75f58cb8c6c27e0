"""Append-only JSONL stores with in-memory row adoption.

The base of :class:`~repro.learn.history.ExecutionHistoryStore` and the
decision ledger (:mod:`repro.learn.audit`).  The bytes go through
:mod:`repro.util.durable`, which owns the crash-safety contract:

- appends are **fsynced** before the call returns -- a crash never loses
  an acknowledged row -- and an append after a **torn tail** (the partial
  final line of a crash mid-append) terminates the fragment first instead
  of welding the next acknowledged row onto it;
- a load adopts every complete row and skips fragments, so a reopened
  store continues byte-identically to one that was never closed;
- :meth:`DurableJsonlStore.checkpoint` publishes the ``(records, bytes)``
  high-water mark to an ``index.json`` sidecar atomically (fsynced tmp +
  rename).  A load re-validates every line and never trusts the sidecar,
  so a stale or corrupt index cannot hide or invent a row.

Subclasses set the class attributes (file names, schema version, the
key a parsed dict must carry to count as a row) and may override
:meth:`_absorb` to index rows as they are adopted.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from repro.util import durable

__all__ = ["DurableJsonlStore"]


class DurableJsonlStore:
    """Fsynced append-only JSONL store; rows are adopted as they land."""

    #: Append-log file name inside the store directory.
    DATA_NAME = "data.jsonl"
    #: High-water-mark sidecar name.
    INDEX_NAME = "index.json"
    #: Format version stamped into the index.
    SCHEMA_VERSION = 1
    #: A parsed dict must carry this key to be adopted as a row.
    REQUIRED_KEY = ""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.data_path = self.directory / self.DATA_NAME
        self.index_path = self.directory / self.INDEX_NAME
        self._rows, self._trusted_bytes = durable.read_rows(
            self.data_path, self.REQUIRED_KEY
        )
        for row in self._rows:
            self._absorb(row)

    # -- hooks ---------------------------------------------------------
    def _absorb(self, row: dict[str, Any]) -> None:
        """Index one adopted row (loaded or appended).  Default: no-op."""

    def checkpoint(self) -> None:
        """Atomically publish the ``(records, bytes)`` high-water mark."""
        doc = {
            "schema_version": self.SCHEMA_VERSION,
            "records": len(self._rows),
            "bytes": self._trusted_bytes,
        }
        durable.publish(
            self.index_path, json.dumps(doc, sort_keys=True) + "\n", sync=True
        )

    # -- append --------------------------------------------------------
    def _append_row(self, row: dict[str, Any]) -> dict[str, Any]:
        """Durably append one row, then adopt it."""
        durable.append_line(
            self.data_path, durable.canonical_json(row), sync=True
        )
        self._trusted_bytes = self.data_path.stat().st_size
        self._rows.append(row)
        self._absorb(row)
        return row

    # -- queries -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def iter_rows(self) -> Iterable[dict[str, Any]]:
        return iter(self._rows)
