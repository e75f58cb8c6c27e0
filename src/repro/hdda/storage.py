"""Block storage for the HDDA.

A :class:`BlockStore` holds the per-box data blocks of one address space
(conceptually: one processor's slice of the distributed array).  Blocks are
keyed by their hierarchical-index key and stored in an extendible hash table,
so the store grows and shrinks bucket-by-bucket as the grid hierarchy
evolves, with no global rehashing (the property GrACE's substrate relies on
at regrid time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.util.errors import HDDAError
from repro.util.geometry import Box
from repro.util.hashing import ExtendibleHashTable

__all__ = ["Block", "BlockStore"]


@dataclass(slots=True)
class Block:
    """One storage unit: a bounding box plus its payload.

    ``payload`` is opaque to the storage layer -- grid classes put field
    arrays here; tests and the simulator may store lightweight sentinels.
    ``nbytes`` is the accounting size used for migration-cost modelling.
    """

    key: int
    box: Box
    payload: Any = None
    nbytes: int = field(default=0)

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise HDDAError(f"negative block size {self.nbytes}")


class BlockStore:
    """Extendible-hash-backed collection of :class:`Block` objects."""

    def __init__(self, bucket_capacity: int = 8):
        self._table = ExtendibleHashTable(bucket_capacity=bucket_capacity)

    def put(self, block: Block) -> None:
        """Insert or replace the block under its key."""
        self._table.put(block.key, block)

    def get(self, key: int) -> Block:
        blk = self._table.get(key)
        if blk is None:
            raise HDDAError(f"no block stored under key {key}")
        return blk

    def pop(self, key: int) -> Block:
        """Remove and return the block (used when migrating blocks away)."""
        try:
            return self._table.remove(key)
        except KeyError as exc:
            raise HDDAError(f"no block stored under key {key}") from exc

    def __contains__(self, key: int) -> bool:
        return key in self._table

    def __len__(self) -> int:
        return len(self._table)

    def blocks(self) -> Iterator[Block]:
        for _, blk in self._table.items():
            yield blk

    def keys(self) -> Iterator[int]:
        return self._table.keys()

    @property
    def total_bytes(self) -> int:
        """Accounting size of everything stored here."""
        return sum(b.nbytes for b in self.blocks())

    @property
    def total_cells(self) -> int:
        return sum(b.box.num_cells for b in self.blocks())

    def stats(self) -> dict[str, float]:
        s = self._table.stats()
        s["total_bytes"] = float(self.total_bytes)
        return s

    def check_invariants(self) -> None:
        self._table.check_invariants()
        for key, blk in self._table.items():
            if blk.key != key:
                raise HDDAError(
                    f"block stored under key {key} carries key {blk.key}"
                )
