"""ACEHeterogeneous: the system-sensitive partitioner (paper section 5.3).

Algorithm, as described in the paper:

1. Obtain relative capacities ``C_k`` from the capacity calculator.
2. Compute the total work ``L`` of the bounding-box list and the per-rank
   targets ``L_k = C_k * L``.
3. Sort the box list by work *ascending* and the ranks by capacity
   *ascending*, "with the smallest box being assigned to the processor with
   the smallest relative capacity.  This eliminates unnecessary breaking of
   boxes."
4. Walk the ranks in capacity order, assigning boxes until the rank's
   target is met.  "If the work associated with an available bounding box
   exceeds the work the processor can perform, a box is broken into two in
   a way that the work associated with at least one of the two boxes
   created is less than or equal to the work the processor can perform",
   subject to the minimum-box-size and aspect-ratio constraints of
   :mod:`repro.partition.splitting`.

The residual imbalance this leaves (from unsplittable boxes) is the
"slight" imbalance the paper quantifies at up to ~40 %.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from repro.partition.base import (
    Partitioner,
    PartitionResult,
    WorkModel,
    as_work_model,
)
from repro.partition.splitting import (
    BoxRow,
    SplitConstraints,
    split_row_to_target,
)
from repro.util.geometry import BoxArray, BoxList, Layout

__all__ = ["ACEHeterogeneous"]


class ACEHeterogeneous(Partitioner):
    """Capacity-proportional box assignment with constrained splitting.

    Parameters
    ----------
    constraints:
        Box-splitting constraints (min size, snap, multi-axis flag).
    fill_tolerance:
        A rank accepts a whole box overshooting its remaining target by up
        to this fraction of the box's work before a split is attempted;
        small values split aggressively, large values avoid splits.
    """

    name = "ACEHeterogeneous"

    def __init__(
        self,
        constraints: SplitConstraints | None = None,
        fill_tolerance: float = 0.05,
    ):
        self.constraints = constraints or SplitConstraints()
        self.fill_tolerance = float(fill_tolerance)

    def partition(
        self,
        boxes: BoxList,
        capacities: Sequence[float],
        work_of: WorkModel | None = None,
    ) -> PartitionResult:
        caps = self._check_inputs(boxes, capacities)
        model = as_work_model(work_of)
        works_vec = model.vector(boxes)
        works = works_vec.tolist()
        total = model.total(boxes)
        targets = caps * total
        if len(boxes) == 0:
            return PartitionResult(Layout(boxes, ()), targets, work_model=model)

        arr = boxes.array

        # Work-ascending priority queue of (work, seq, payload); seq is a
        # tie-breaker keeping the order deterministic for equal-work boxes
        # (initial boxes tie-break by corner key, split remainders enter
        # after existing equal-work entries, exactly as the old sorted
        # list did).  A heap makes every pop/push O(log n) where the old
        # ``list.pop(0)`` + ``bisect.insort`` pair was O(n) each -- the
        # difference between quadratic and linearithmic assignment on the
        # extreme-scale box counts the roadmap targets.  The payload is a
        # row index into the columns (or, for split remainders, a plain
        # ``(lower, upper, level)`` row); no per-box object is built, and
        # the ``(work, seq)`` prefix is unique, so payloads never compare.
        order = arr.corner_lexsort(primary=works_vec)
        queue: list[tuple[float, int, int | BoxRow]] = [
            (works[i], s, i) for s, i in enumerate(order.tolist())
        ]
        heapq.heapify(queue)  # already sorted; heapify is O(n) anyway
        seq = len(queue)
        num_splits = 0

        # Assignment accumulates as source references: a base row index,
        # or a negative index into the split-row side list.  Columns are
        # gathered in two vectorized passes at the end.
        out_src: list[int] = []
        out_ranks: list[int] = []
        split_rows: list[BoxRow] = []

        def emit(payload: "int | BoxRow", rank: int) -> None:
            if type(payload) is int:
                out_src.append(payload)
            else:
                split_rows.append(payload)
                out_src.append(-len(split_rows))
            out_ranks.append(rank)

        rank_order = np.argsort(caps, kind="stable")
        for idx, rank in enumerate(rank_order):
            rank = int(rank)
            remaining = targets[rank]
            last_rank = idx == len(rank_order) - 1
            while queue:
                if last_rank:
                    # Everything left belongs to the biggest-capacity rank.
                    _, _, payload = heapq.heappop(queue)
                    emit(payload, rank)
                    continue
                w, _, payload = queue[0]
                if w <= remaining + self.fill_tolerance * w:
                    heapq.heappop(queue)
                    emit(payload, rank)
                    remaining -= w
                    continue
                if remaining <= 0:
                    break
                row = arr.row(payload) if type(payload) is int else payload
                split = split_row_to_target(
                    row, remaining, model, self.constraints
                )
                if split is None:
                    # Unsplittable: accept the imbalance on this rank only
                    # if nothing smaller is available, else move on.
                    break
                heapq.heappop(queue)
                piece, rest = split
                num_splits += len(rest)  # one cut per remainder box
                emit(piece, rank)
                remaining -= model.work_row(*piece)
                for r in rest:
                    heapq.heappush(queue, (model.work_row(*r), seq, r))
                    seq += 1
                if remaining <= 0:
                    break

        m = len(out_src)
        src = np.array(out_src, dtype=np.int64)
        ndim = arr.ndim
        lowers = np.empty((m, ndim), dtype=np.int64)
        uppers = np.empty((m, ndim), dtype=np.int64)
        levels = np.empty(m, dtype=np.int64)
        base_pos = np.flatnonzero(src >= 0)
        if base_pos.size:
            bidx = src[base_pos]
            lowers[base_pos] = arr.lower[bidx]
            uppers[base_pos] = arr.upper[bidx]
            levels[base_pos] = arr.level[bidx]
        extra_pos = np.flatnonzero(src < 0)
        if extra_pos.size:
            ex_lo = np.array([r[0] for r in split_rows], dtype=np.int64)
            ex_up = np.array([r[1] for r in split_rows], dtype=np.int64)
            ex_lv = np.array([r[2] for r in split_rows], dtype=np.int64)
            k = -src[extra_pos] - 1
            lowers[extra_pos] = ex_lo[k]
            uppers[extra_pos] = ex_up[k]
            levels[extra_pos] = ex_lv[k]
        layout = Layout(
            BoxList.from_array(BoxArray(lowers, uppers, levels)),
            np.array(out_ranks, dtype=np.intp),
        )
        result = PartitionResult(layout, targets, num_splits, model)
        result.validate_covers(boxes)
        return result
