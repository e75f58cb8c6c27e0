"""Append-only JSONL stores with in-memory row adoption.

The base of :class:`~repro.learn.history.ExecutionHistoryStore` and the
decision ledger (:mod:`repro.learn.audit`).  The bytes go through
:mod:`repro.util.durable`, which owns the crash-safety contract:

- appends are **fsynced** before the call returns -- a crash never loses
  an acknowledged row -- and an append after a **torn tail** (the partial
  final line of a crash mid-append) terminates the fragment first instead
  of welding the next acknowledged row onto it;
- a load adopts every complete row and skips fragments, so a reopened
  store continues byte-identically to one that was never closed.  The
  append log is the only file read: an ``index.json`` left beside it by
  an older version is ignored.

Subclasses set the class attributes (file name, the key a parsed dict
must carry to count as a row) and may override
:meth:`_absorb` to index rows as they are adopted.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.util import durable

__all__ = ["DurableJsonlStore"]


class DurableJsonlStore:
    """Fsynced append-only JSONL store; rows are adopted as they land."""

    #: Append-log file name inside the store directory.
    DATA_NAME = "data.jsonl"
    #: A parsed dict must carry this key to be adopted as a row.
    REQUIRED_KEY = ""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.data_path = self.directory / self.DATA_NAME
        self._rows, _ = durable.read_rows(self.data_path, self.REQUIRED_KEY)
        for row in self._rows:
            self._absorb(row)

    # -- hooks ---------------------------------------------------------
    def _absorb(self, row: dict[str, Any]) -> None:
        """Index one adopted row (loaded or appended).  Default: no-op."""

    # -- append --------------------------------------------------------
    def _append_row(self, row: dict[str, Any]) -> dict[str, Any]:
        """Durably append one row, then adopt it."""
        durable.append_line(
            self.data_path, durable.canonical_json(row), sync=True
        )
        self._rows.append(row)
        self._absorb(row)
        return row

    # -- queries -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)
