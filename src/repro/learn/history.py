"""Append-only execution-history store feeding the learned cost models.

Every adaptive decision in :mod:`repro.learn.policy` is only as good as
the history behind it, so the store borrows the campaign
:class:`~repro.campaign.store.ResultStore` durability discipline
wholesale via the shared :class:`~repro.learn.durable.DurableJsonlStore`
base (the decision ledger in :mod:`repro.learn.audit` rides the same
machinery):

- appends go to ``history.jsonl`` and are **fsynced** before the call
  returns -- a crash never loses an acknowledged observation;
- reads tolerate a **torn tail** (a partial line from a crash
  mid-append parses as garbage and is dropped, never raised), and the
  next append terminates it rather than welding a row onto it;
- a reopened store re-validates every line of the log and reads no
  other file, so it continues byte-identically.

Rows are flat observations -- one ``(source, cell_key, phase, node, t,
work, seconds, capacity, count)`` tuple per line -- ingested from two
places: live runs (the :class:`~repro.learn.policy.LearnController`
records per-node iteration timings as they happen) and the per-cell
``artifacts/<cell-key>/profile.json`` bundles PR 7 writes.  In memory
the store is columnar: numeric columns are numpy arrays, so model
fitting and queries are vectorized scans, not row loops.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.learn.durable import DurableJsonlStore
from repro.util.errors import ExperimentError

__all__ = ["ExecutionHistoryStore", "HISTORY_NAME"]

#: Append-log file name inside a store directory.
HISTORY_NAME = "history.jsonl"

#: Row fields, in canonical serialization order.  ``t`` is simulated
#: seconds; ``node`` is -1 for rows that aggregate across nodes.
_FIELDS = (
    "seq",
    "source",
    "cell_key",
    "phase",
    "node",
    "t",
    "work",
    "seconds",
    "capacity",
    "count",
)

_NUMERIC = {
    "seq": np.int64,
    "node": np.int64,
    "t": np.float64,
    "work": np.float64,
    "seconds": np.float64,
    "capacity": np.float64,
    "count": np.int64,
}


class ExecutionHistoryStore(DurableJsonlStore):
    """Durable, columnar store of per-phase execution observations."""

    DATA_NAME = HISTORY_NAME
    REQUIRED_KEY = "phase"

    def __init__(self, directory: str | Path):
        self._sources: set[str] = set()
        self._columns: dict[str, np.ndarray] | None = None
        super().__init__(directory)

    def _absorb(self, row: dict[str, Any]) -> None:
        row["seq"] = int(row.get("seq", len(self._rows)))
        if row.get("cell_key"):
            self._sources.add(str(row["cell_key"]))
        self._columns = None

    # -- ingest --------------------------------------------------------
    def record(
        self,
        *,
        source: str,
        phase: str,
        seconds: float,
        node: int = -1,
        t: float = 0.0,
        work: float = 0.0,
        capacity: float = float("nan"),
        count: int = 1,
        cell_key: str = "",
    ) -> dict[str, Any]:
        """Durably append one observation; returns the stored row."""
        if not phase:
            raise ExperimentError("history row needs a non-empty phase")
        row = {
            "seq": len(self._rows),
            "source": str(source),
            "cell_key": str(cell_key),
            "phase": str(phase),
            "node": int(node),
            "t": float(t),
            "work": float(work),
            "seconds": float(seconds),
            "capacity": float(capacity),
            "count": int(count),
        }
        return self._append_row(row)

    def ingest_profile(
        self, profile: dict[str, Any], cell_key: str | None = None
    ) -> int:
        """Ingest one artifact-bundle ``profile.json`` document."""
        key = str(cell_key or profile.get("cell_key") or "")
        if key and key in self._sources:
            return 0
        metrics = profile.get("metrics", {})
        counters = metrics.get("counters", {})
        sim_seconds = float(counters.get("total_sim_seconds", 0.0))
        added = 0
        phases = profile.get("phases", {})
        if not isinstance(phases, dict):
            raise ExperimentError("profile document has no phases table")
        for phase, agg in sorted(phases.items()):
            self.record(
                source="profile",
                cell_key=key,
                phase=str(phase),
                seconds=float(agg.get("sim_seconds", 0.0)),
                count=int(agg.get("count", 1)),
                t=sim_seconds,
            )
            added += 1
        return added

    def ingest_artifacts(self, campaign_dir: str | Path) -> int:
        """Ingest every ``artifacts/<cell-key>/profile.json`` bundle."""
        root = Path(campaign_dir)
        artifacts = root / "artifacts"
        if not artifacts.is_dir():
            raise ExperimentError(
                f"no artifacts/ directory under {root}"
            )
        added = 0
        for profile_path in sorted(artifacts.glob("*/profile.json")):
            try:
                doc = json.loads(profile_path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                continue  # a half-published bundle is not history
            if not isinstance(doc, dict):
                continue
            added += self.ingest_profile(
                doc, cell_key=profile_path.parent.name
            )
        return added

    # -- queries -------------------------------------------------------
    def sources(self) -> tuple[str, ...]:
        return tuple(sorted(self._sources))

    def phases(self) -> tuple[str, ...]:
        return tuple(sorted({row["phase"] for row in self._rows}))

    def table(self) -> dict[str, np.ndarray]:
        """The full store as a columnar table (numpy per column)."""
        if self._columns is None:
            cols: dict[str, np.ndarray] = {}
            for name in _FIELDS:
                values = [row.get(name) for row in self._rows]
                dtype = _NUMERIC.get(name)
                if dtype is not None:
                    cols[name] = np.asarray(
                        [v if v is not None else -1 for v in values],
                        dtype=dtype,
                    )
                else:
                    cols[name] = np.asarray(
                        [str(v or "") for v in values], dtype=object
                    )
            self._columns = cols
        return self._columns

    def column(self, name: str) -> np.ndarray:
        if name not in _FIELDS:
            raise ExperimentError(f"unknown history column {name!r}")
        return self.table()[name]

    def query(
        self,
        *,
        source: str | None = None,
        phase: str | None = None,
        node: int | None = None,
        cell_key: str | None = None,
    ) -> dict[str, np.ndarray]:
        """Filtered columnar view (one vectorized mask, no row loop)."""
        table = self.table()
        n = len(self._rows)
        mask = np.ones(n, dtype=bool)
        if source is not None:
            mask &= table["source"] == source
        if phase is not None:
            mask &= table["phase"] == phase
        if node is not None:
            mask &= table["node"] == int(node)
        if cell_key is not None:
            mask &= table["cell_key"] == cell_key
        return {name: col[mask] for name, col in table.items()}

    def work_series(
        self, phase: str, node: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(work, seconds) pairs for one phase on one node."""
        view = self.query(phase=phase, node=node)
        return view["work"], view["seconds"]
