"""The Hierarchical Distributed Dynamic Array facade.

:class:`HDDA` ties together the hierarchical index space and per-processor
block stores, and exposes the one operation the GrACE runtime needs:
given a partitioner's new :class:`~repro.util.geometry.Layout`,
:meth:`HDDA.apply_assignment` grows and shrinks the block set as the
hierarchy regrids and returns the :class:`MigrationPlan` (which blocks
moved where, and how many bytes that is).

The migration plan is what couples partitioning quality to redistribution
cost in the simulated runtime: a partitioner that churns ownership pays for
it in modelled communication time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from repro.hdda.index import HierarchicalIndexSpace
from repro.hdda.storage import Block, BlockStore
from repro.util.errors import HDDAError
from repro.util.geometry import Box, Layout

__all__ = ["OwnershipMap", "MigrationPlan", "HDDA"]

#: Accounting bytes per grid cell (one double-precision field value).
BYTES_PER_CELL = 8


class OwnershipMap:
    """Mapping from block keys to owning processor ranks."""

    def __init__(self, num_procs: int):
        if num_procs < 1:
            raise HDDAError(f"num_procs must be >= 1, got {num_procs}")
        self.num_procs = num_procs
        self._owner: dict[int, int] = {}

    def assign(self, key: int, rank: int) -> None:
        if not 0 <= rank < self.num_procs:
            raise HDDAError(f"rank {rank} out of range [0, {self.num_procs})")
        self._owner[key] = rank

    def owner(self, key: int) -> int:
        try:
            return self._owner[key]
        except KeyError as exc:
            raise HDDAError(f"key {key} has no owner") from exc

    def drop(self, key: int) -> None:
        self._owner.pop(key, None)

    def __len__(self) -> int:
        return len(self._owner)

    def __contains__(self, key: int) -> bool:
        return key in self._owner

    def counts(self) -> np.ndarray:
        """Blocks per rank, shape (num_procs,)."""
        out = np.zeros(self.num_procs, dtype=np.int64)
        for r in self._owner.values():
            out[r] += 1
        return out


@dataclass(slots=True)
class MigrationPlan:
    """Blocks that must change address space after a repartition.

    ``moves`` maps ``(src_rank, dst_rank)`` to the list of block keys going
    that way; ``bytes_moved`` aggregates accounting bytes per directed pair.
    """

    moves: dict[tuple[int, int], list[int]] = field(default_factory=dict)
    bytes_moved: dict[tuple[int, int], int] = field(default_factory=dict)

    def add(self, src: int, dst: int, key: int, nbytes: int) -> None:
        self.moves.setdefault((src, dst), []).append(key)
        self.bytes_moved[(src, dst)] = (
            self.bytes_moved.get((src, dst), 0) + nbytes
        )

    @property
    def total_blocks(self) -> int:
        return sum(len(v) for v in self.moves.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_moved.values())


class HDDA:
    """Distributed dynamic array over a simulated set of address spaces.

    Parameters
    ----------
    index_space:
        The hierarchical SFC index space addressing the hierarchy.
    num_procs:
        Number of address spaces (simulated processors).
    bytes_per_cell:
        Accounting size of one cell's data (default: one float64).
    """

    def __init__(
        self,
        index_space: HierarchicalIndexSpace,
        num_procs: int,
        bytes_per_cell: int = BYTES_PER_CELL,
    ):
        self.index_space = index_space
        self.num_procs = num_procs
        self.bytes_per_cell = bytes_per_cell
        self.stores: list[BlockStore] = [BlockStore() for _ in range(num_procs)]
        self.ownership = OwnershipMap(num_procs)

    def _create_block(self, key: int, box: Box, rank: int) -> None:
        blk = Block(key=key, box=box, nbytes=box.num_cells * self.bytes_per_cell)
        self.stores[rank].put(blk)
        self.ownership.assign(key, rank)

    @property
    def total_blocks(self) -> int:
        return len(self.ownership)

    # ------------------------------------------------------------------
    # Redistribution
    # ------------------------------------------------------------------
    def _plan(self, layout: Layout) -> tuple[MigrationPlan, list[int]]:
        """The plan and each box's index key, encoded once in one batch:
        plan, move, register and drop all work from these keys."""
        keys = self.index_space.keys_for_boxes(layout.boxes)
        plan = MigrationPlan()
        for dst, key in zip(layout.ranks.tolist(), keys):
            if not 0 <= dst < self.num_procs:
                raise HDDAError(f"rank {dst} out of range")
            if key not in self.ownership:
                continue
            src = self.ownership.owner(key)
            if src != dst:
                nbytes = self.stores[src].get(key).nbytes
                plan.add(src, dst, key, nbytes)
        return plan, keys

    def apply_assignment(self, layout: Layout) -> MigrationPlan:
        """Make the array match a partitioner's layout exactly.

        Existing blocks move (returned in the plan), blocks for new boxes are
        created in place, and blocks whose boxes disappeared are dropped.
        """
        plan, keys = self._plan(layout)
        # Execute moves.
        for (src, dst), moving in plan.moves.items():
            for key in moving:
                blk = self.stores[src].pop(key)
                self.stores[dst].put(blk)
                self.ownership.assign(key, dst)
        # Create new blocks: only these rows become Box objects.
        for i, (rank, key) in enumerate(zip(layout.ranks.tolist(), keys)):
            if key not in self.ownership:
                self._create_block(key, layout.boxes[i], rank)
        # Drop stale blocks: everything outside the desired final key set.
        desired = set(keys)
        for key in list(self.ownership._owner):
            if key not in desired:
                rank = self.ownership.owner(key)
                self.stores[rank].pop(key)
                self.ownership.drop(key)
        return plan

    def check_invariants(self) -> None:
        """Ownership map and stores must agree exactly."""
        seen: set[int] = set()
        for rank in range(self.num_procs):
            for key in self.stores[rank].keys():
                if key in seen:
                    raise HDDAError(f"key {key} stored on multiple ranks")
                seen.add(key)
                if self.ownership.owner(key) != rank:
                    raise HDDAError(
                        f"key {key} stored on rank {rank} but owned by "
                        f"{self.ownership.owner(key)}"
                    )
            self.stores[rank].check_invariants()
        if seen != set(self.ownership._owner):
            raise HDDAError("ownership map and stores disagree on key set")
