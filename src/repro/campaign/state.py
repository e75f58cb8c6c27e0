"""Campaign progress: which cells are done, derived from the result store.

There is exactly one durable record of a completed cell -- its row in
the :class:`~repro.campaign.store.ResultStore` (ingest log + compacted
file) -- and one of a failed cell -- its last entry in ``failures.jsonl``.
:class:`CampaignState` is the in-memory tally the orchestrator keeps
while it runs; :meth:`CampaignState.restore` rebuilds it from those two
files, so a campaign killed at any instant -- SIGKILL included -- resumes
with every acknowledged cell counted and nothing re-executed, and no
second ledger exists that could disagree with the store.
"""

from __future__ import annotations

from typing import Mapping

from repro.campaign.store import ResultStore
from repro.util import durable
from repro.util.errors import CampaignError

__all__ = ["CampaignState", "FAILURES_NAME"]

#: Side log of failed cells inside a campaign directory (last entry per
#: cell key wins; entries for cells that later completed are ignored).
FAILURES_NAME = "failures.jsonl"


class CampaignState:
    """Mutable progress tally for one campaign."""

    def __init__(
        self,
        completed: Mapping[str, int] | None = None,
        failed: Mapping[str, str] | None = None,
    ):
        #: cell key -> completion ordinal (1-based, monotonically grown).
        self.completed: dict[str, int] = dict(completed or {})
        #: cell key -> last error message (cleared when the cell succeeds).
        self.failed: dict[str, str] = dict(failed or {})

    @classmethod
    def restore(cls, store: ResultStore) -> "CampaignState":
        """The tally a campaign directory's files add up to."""
        completed = {key: n for n, key in enumerate(store.keys(), start=1)}
        rows, _ = durable.read_rows(
            store.directory / FAILURES_NAME, "cell_key"
        )
        failed = {
            row["cell_key"]: str(row.get("error", ""))
            for row in rows
            if row["cell_key"] not in completed
        }
        return cls(completed, failed)

    # ------------------------------------------------------------------
    def is_completed(self, key: str) -> bool:
        return key in self.completed

    def mark_completed(self, key: str) -> int:
        """Record ``key`` as done; returns its completion ordinal."""
        if key in self.completed:
            return self.completed[key]
        self.failed.pop(key, None)
        ordinal = len(self.completed) + 1
        self.completed[key] = ordinal
        return ordinal

    def mark_failed(self, key: str, error: str) -> None:
        if key in self.completed:
            raise CampaignError(
                f"cell {key!r} is already completed; refusing to mark failed"
            )
        self.failed[key] = str(error)

    def status_of(self, key: str) -> str:
        """``completed`` / ``failed`` / ``pending`` for one cell key.

        The vocabulary of the ``?status=`` filter on the HTTP cells
        route; a key outside the grid still reports ``pending`` -- grid
        membership is the spec's business, not the tally's.
        """
        if key in self.completed:
            return "completed"
        if key in self.failed:
            return "failed"
        return "pending"

    @property
    def num_completed(self) -> int:
        return len(self.completed)
