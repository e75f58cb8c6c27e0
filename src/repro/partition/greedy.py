"""Capacity-weighted greedy LPT baseline (ablation partitioner).

Longest-Processing-Time list scheduling generalized to heterogeneous
targets: boxes are taken in *descending* work order and each is placed on
the rank whose load-to-capacity ratio would stay lowest.  No splitting is
performed, so granularity is whatever the regrid produced -- comparing this
against ACEHeterogeneous isolates the value of constrained box splitting.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Sequence

import numpy as np

from repro.partition.base import (
    Partitioner,
    PartitionResult,
    WorkModel,
    as_work_model,
    check_tiling,
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
        cap_list = safe_caps.tolist()
        # Descending work, corner-key tie-break, over whole columns --
        # lexsort is stable like the object path's ``sorted``, so the
        # placement order (and every downstream float sum) is identical.
        order = boxes.array.corner_lexsort(primary=-works_vec)
        ranks: list[int] = []
        # Each box goes to the rank with the lowest (load + w) / capacity,
        # ties to the lowest rank, one run of equal-work boxes at a time.
        for w, run_boxes in itertools.groupby(works_vec[order].tolist()):
            size = len(list(run_boxes))
            keys = (loads + w) / safe_caps
            if size == 1:
                r = int(np.argmin(keys))  # per-box ok: one scan per run
                ranks.append(r)
                loads[r] += w
                continue
            # Within a run only the picked rank's key moves, so picks pop
            # from a heap of ``(key, rank)`` -- ties pop the lowest rank,
            # as ``np.argmin`` does.  Only the ``size`` lowest keys can
            # be picked (an unpicked rank keeps its key, a picked one's
            # grows), and sorted, they already form a heap.
            best = np.argsort(keys, kind="stable")[:size].tolist()
            heap = list(zip(keys[best].tolist(), best))
            run = dict(zip(best, loads[best].tolist()))
            for _ in range(size):
                r = heap[0][1]
                ranks.append(r)
                run[r] += w
                heapq.heapreplace(heap, ((run[r] + w) / cap_list[r], r))
            loads[best] = [run[r] for r in best]
        layout = Layout(boxes.take(order), np.array(ranks, dtype=np.intp))
        check_tiling(boxes, layout, order, num_ranks)
        return PartitionResult(layout, targets, work_model=model)
