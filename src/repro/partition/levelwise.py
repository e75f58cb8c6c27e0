"""Per-level decomposition: partition each refinement level independently.

The SAMR partitioning literature (Steensland et al.'s characterization
study, reference [17]) distinguishes *composite* decompositions -- one
distribution of the whole hierarchy, what ACEHeterogeneous and
ACEComposite compute -- from *level-based* decompositions that balance
every refinement level separately.  Level-based schemes guarantee that
each level's work is spread across all processors (no processor idles
during any level's subcycled updates, important under strict per-level
synchronization), at the cost of more inter-level communication (a fine
patch's parent region usually lands on a different owner).

:class:`LevelPartitioner` wraps any inner partitioner and applies it to
each level's boxes in isolation; the characterization panel quantifies
the trade against composite schemes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.partition.base import (
    Partitioner,
    PartitionResult,
    WorkModel,
    as_work_model,
)
from repro.util.errors import PartitionError
from repro.util.geometry import BoxArray, BoxList, Layout

__all__ = ["LevelPartitioner"]


class LevelPartitioner(Partitioner):
    """Applies an inner partitioner to every refinement level separately."""

    def __init__(self, inner: Partitioner):
        self.inner = inner
        self.name = f"LevelWise[{inner.name}]"

    def partition(
        self,
        boxes: BoxList,
        capacities: Sequence[float],
        work_of: WorkModel | None = None,
    ) -> PartitionResult:
        caps = self._check_inputs(boxes, capacities)
        model = as_work_model(work_of)
        total = model.total(boxes)
        splits = 0
        subs: list[PartitionResult] = []
        for level in boxes.levels:
            level_boxes = boxes.at_level(level)
            sub = self.inner.partition(level_boxes, caps, model)
            subs.append(sub)
            splits += sub.num_splits
        if subs:
            # Merge the per-level results column-wise (level order == the
            # object path's ``assignment.extend`` order); no pair lists.
            merged = BoxArray.concatenate([s.boxes().array for s in subs])
            ranks = np.concatenate([s.rank_vector() for s in subs])
            layout = Layout(BoxList.from_array(merged), ranks)
        else:
            layout = Layout(boxes, ())
        # Each inner call certified its level's tiling; what is left to
        # prove is that every level was partitioned.
        if layout.boxes.cells_by_level() != boxes.cells_by_level():
            raise PartitionError("level-wise assignment lost a level's cells")
        return PartitionResult(layout, caps * total, splits, model)
