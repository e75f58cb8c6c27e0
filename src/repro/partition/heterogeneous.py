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
from bisect import bisect_right
from typing import Sequence

import numpy as np

from repro.partition.base import (
    Partitioner,
    PartitionResult,
    WorkModel,
    as_work_model,
    check_tiling,
    running_remainders,
)
from repro.partition.splitting import (
    BoxRow,
    SplitConstraints,
    split_row_to_target,
)
from repro.util.geometry import BoxArray, BoxList, Layout

__all__ = ["ACEHeterogeneous"]

#: A rank accepts a whole box overshooting its remaining target by up to
#: this fraction of the box's work before a split is attempted; small
#: values split aggressively, large values avoid splits.
FILL_TOLERANCE = 0.05

#: Boxes in the first fold of a run of whole boxes; each further fold of
#: the same run doubles it.
_FIRST_CHUNK = 64


class ACEHeterogeneous(Partitioner):
    """Capacity-proportional box assignment with constrained splitting.

    Parameters
    ----------
    constraints:
        Box-splitting constraints (min size, snap, multi-axis flag).
    """

    name = "ACEHeterogeneous"

    def __init__(self, constraints: SplitConstraints | None = None):
        self.constraints = constraints or SplitConstraints()

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
        if len(boxes) == 0:
            return PartitionResult(Layout(boxes, ()), targets, work_model=model)

        arr = boxes.array

        # The work-ascending queue is walked in ``(work, seq)`` order over
        # two sources.  The base boxes, sorted by work with a corner-key
        # tie-break, are an array and a cursor (``seq`` is the position);
        # split remainders are a small heap of ``(work, seq, (row,
        # origin))`` with ``seq`` counted on from ``n``, so a remainder
        # enters after every equal-work entry already queued and, on equal
        # work, a base box comes first.  Runs of base boxes are accepted
        # whole with one fold (:func:`_accept_run`); only remainders pay a
        # heap push and pop.  A remainder is a plain ``(lower, upper,
        # level)`` row and the input row it was cut from, queued at the
        # work the splitter priced it at; the ``(work, seq)`` prefix is
        # unique, so payloads never compare.
        order = arr.corner_lexsort(primary=works_vec)
        base_w = works_vec[order]
        base_wl = base_w.tolist()  # bisected per queue event
        base = order.tolist()
        n = len(base)
        cursor = 0
        rests: list[tuple[float, int, tuple[BoxRow, int]]] = []
        seq = n
        num_splits = 0

        # Assignment accumulates as source references: a base row index,
        # or a negative index into the split-row side list (each split row
        # with its origin).  Columns are gathered in two vectorized passes
        # at the end.
        out_src: list[int] = []
        out_ranks: list[int] = []
        split_rows: list[tuple[BoxRow, int]] = []

        def take_base(stop: int, rank: int) -> None:
            nonlocal cursor
            out_src.extend(base[cursor:stop])
            out_ranks.extend([rank] * (stop - cursor))
            cursor = stop

        def emit_split(payload: tuple[BoxRow, int], rank: int) -> None:
            split_rows.append(payload)
            out_src.append(-len(split_rows))
            out_ranks.append(rank)

        rank_order = np.argsort(caps, kind="stable").tolist()
        rank_targets = targets.tolist()  # Python floats: the walk is scalar
        for rank in rank_order[:-1]:
            remaining = rank_targets[rank]
            while cursor < n or rests:
                # Base boxes no heavier than the heap's top precede it.
                stop = bisect_right(base_wl, rests[0][0], cursor) if rests else n
                from_base = cursor < stop
                if from_base:
                    accepted, remaining = _accept_run(
                        base_w, cursor, stop, remaining
                    )
                    take_base(cursor + accepted, rank)
                    if cursor == stop:
                        continue
                    origin = base[cursor]
                    row, w = arr.row(origin), base_wl[cursor]
                else:
                    w, _, (row, origin) = rests[0]
                    if w <= remaining + FILL_TOLERANCE * w:
                        heapq.heappop(rests)
                        emit_split((row, origin), rank)
                        remaining -= w
                        continue
                if remaining <= 0:
                    break
                split = split_row_to_target(
                    row, w, remaining, model, self.constraints
                )
                if split is None:
                    # Unsplittable: accept the imbalance on this rank only
                    # if nothing smaller is available, else move on.
                    break
                if from_base:
                    cursor += 1
                else:
                    heapq.heappop(rests)
                (piece, piece_w), rest = split
                num_splits += len(rest)  # one cut per remainder box
                emit_split((piece, origin), rank)
                remaining -= piece_w
                for r, r_w in rest:
                    heapq.heappush(rests, (r_w, seq, (r, origin)))
                    seq += 1
                if remaining <= 0:
                    break
        # Everything left belongs to the biggest-capacity rank, in queue
        # order: each remainder after the base boxes no heavier than it.
        last = rank_order[-1]
        while rests:
            w, _, payload = heapq.heappop(rests)
            take_base(bisect_right(base_wl, w, cursor), last)
            emit_split(payload, last)
        take_base(n, last)

        m = len(out_src)
        src = np.array(out_src, dtype=np.int64)
        source = src.copy()
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
            ex_lo = np.array([r[0] for r, _ in split_rows], dtype=np.int64)
            ex_up = np.array([r[1] for r, _ in split_rows], dtype=np.int64)
            ex_lv = np.array([r[2] for r, _ in split_rows], dtype=np.int64)
            ex_src = np.array([o for _, o in split_rows], dtype=np.int64)
            k = -src[extra_pos] - 1
            lowers[extra_pos] = ex_lo[k]
            uppers[extra_pos] = ex_up[k]
            levels[extra_pos] = ex_lv[k]
            source[extra_pos] = ex_src[k]
        layout = Layout(
            BoxList.from_array(BoxArray(lowers, uppers, levels)),
            np.array(out_ranks, dtype=np.intp),
        )
        check_tiling(boxes, layout, source, len(caps))
        return PartitionResult(layout, targets, num_splits, model)


def _accept_run(
    works: np.ndarray, start: int, stop: int, remaining: float
) -> tuple[int, float]:
    """Whole boxes ``works[start:stop]`` a rank with ``remaining`` work left
    accepts before it rejects one, and the remainder after them.

    The test is the per-box walk's ``w <= remaining + FILL_TOLERANCE * w``
    against the exact remainders of :func:`running_remainders`.  Runs are
    folded in doubling chunks, so a rank that takes few boxes never
    scans the whole queue.
    """
    i, chunk = start, _FIRST_CHUNK
    while i < stop:
        w = works[i : min(i + chunk, stop)]
        left = running_remainders(remaining, w)
        rejected = np.flatnonzero(~(w <= left[:-1] + FILL_TOLERANCE * w))
        if rejected.size:
            k = int(rejected[0])
            return i + k - start, float(left[k])
        i += len(w)
        remaining = float(left[-1])
        chunk *= 2
    return i - start, remaining
