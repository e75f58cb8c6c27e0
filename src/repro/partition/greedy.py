"""Capacity-weighted greedy LPT baseline (ablation partitioner).

Longest-Processing-Time list scheduling generalized to heterogeneous
targets: boxes are taken in *descending* work order and each is placed on
the rank whose load-to-capacity ratio would stay lowest.  No splitting is
performed, so granularity is whatever the regrid produced -- comparing this
against ACEHeterogeneous isolates the value of constrained box splitting.
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
from repro.util.geometry import BoxList, Layout

__all__ = ["GreedyLPT"]


class GreedyLPT(Partitioner):
    """Heterogeneity-aware LPT without box splitting."""

    name = "GreedyLPT"

    def partition(
        self,
        boxes: BoxList,
        capacities: Sequence[float],
        work_of: WorkModel | None = None,
    ) -> PartitionResult:
        caps = self._check_inputs(boxes, capacities)
        model = as_work_model(work_of)
        works_vec = model.vector(boxes)
        total = model.total(boxes)
        targets = caps * total
        num_ranks = len(caps)
        loads = np.zeros(num_ranks)
        # Guard capacities so a zero-capacity rank is only used when every
        # rank has zero capacity (which _check_inputs already excludes).
        safe_caps = np.where(caps > 0, caps, 1e-12)
        # Descending work, corner-key tie-break, over whole columns --
        # lexsort is stable like the object path's ``sorted``, so the
        # placement order (and every downstream float sum) is identical.
        order = boxes.array.corner_lexsort(primary=-works_vec)
        n = len(order)
        ranks = np.empty(n, dtype=np.intp)
        placed = works_vec[order].tolist()
        for pos, w in enumerate(placed):
            # First minimum of the load-to-capacity ratio: np.argmin picks
            # the same rank as ``min(range(num_ranks), key=...)``.
            r = int(np.argmin((loads + w) / safe_caps))
            ranks[pos] = r
            loads[r] += w
        result = PartitionResult(
            Layout(boxes.take(order), ranks), targets, work_model=model
        )
        result.validate_covers(boxes)
        return result
