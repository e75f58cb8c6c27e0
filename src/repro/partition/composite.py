"""ACEComposite: GrACE's default space-filling-curve partitioner.

The baseline the paper compares against: "the default space-filling curve
based partitioning scheme provided by GrACE.  This latter scheme assumes
homogeneous processors and performs an equal distribution of the workload
on the processors."

The hierarchy's boxes are linearized along a Hilbert curve (the composite
ordering GrACE's HDDA maintains) and dealt out as contiguous curve spans of
(approximately) equal work, one span per processor, splitting boxes at span
boundaries under the same constraints as the heterogeneous partitioner.
Contiguous spans preserve locality -- the scheme's strength -- but the equal
targets ignore capacity, which is exactly what the paper's experiments
expose on loaded clusters.
"""

from __future__ import annotations

from collections import deque
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
from repro.util.sfc import sfc_sort_order

__all__ = [
    "ACEComposite",
    "assign_curve_spans_columnar",
    "partition_curve_spans",
]


def partition_curve_spans(
    boxes: BoxList,
    targets: np.ndarray,
    model: WorkModel,
    constraints: SplitConstraints,
    curve: str,
) -> PartitionResult:
    """Order ``boxes`` along ``curve``, deal the spans, certify the tiling.

    The whole of ACEComposite and SFCHybrid but their ``targets``.  The
    walk records each output row's row in the ordered list; the sort
    order maps that back to the input row :func:`check_tiling` needs.
    The ordered boxes' works are the input's vector gathered by the same
    order, so the input is priced once.
    """
    if len(boxes) == 0:
        return PartitionResult(Layout(boxes, ()), targets, work_model=model)
    order = sfc_sort_order(boxes.array, curve=curve)
    works = np.take(model.vector(boxes), order)
    layout, source, num_splits = assign_curve_spans_columnar(
        boxes.take(order), works, targets, model, constraints
    )
    check_tiling(boxes, layout, order[source], len(targets))
    return PartitionResult(layout, targets, num_splits, model)


def assign_curve_spans_columnar(
    ordered: BoxList,
    works: np.ndarray,
    targets: np.ndarray,
    model: WorkModel,
    constraints: SplitConstraints,
) -> tuple[Layout, np.ndarray, int]:
    """Deal an SFC-ordered box list of per-box ``works`` into contiguous
    per-rank spans.

    Each rank receives boxes from the current curve position until its
    ``targets`` entry is filled; boxes straddling a span boundary are split
    under ``constraints`` (remainders stay at the current curve position).
    When a boundary cannot be carved, the shortfall carries into the next
    rank's span so the global sum is preserved.  Returns the layout, the
    ``ordered`` row each layout row is or was cut from, and the number of
    splits performed.

    The walk is sequential (the byte-identity tests pin its float
    accumulation and split decisions against the per-box reference) but
    reads box metadata from the ordered list's cached columns and emits
    spans of rows, so no per-box Python objects are created for unsplit
    boxes.  Split remainders ride a small deque at the current curve
    position, each with the work the splitter priced it at.
    """
    arr = ordered.array
    n = len(works)
    rank_targets = targets.tolist()  # Python floats: the walk is scalar
    num_ranks = len(rank_targets)
    rank = 0
    remaining = rank_targets[0]
    num_splits = 0
    # Output rows in assignment order as ``[start, count, rank]`` spans of
    # one index space: ordered row ``i`` is ``i``, split row ``k`` is
    # ``n + k``.  Whole boxes go out as spans, so the bulk of the output is
    # never listed row by row, and one gather builds the columns at the end.
    spans: list[list[int]] = []
    split_rows: list[BoxRow] = []
    split_origins: list[int] = []
    # (row, work, origin) of the remainders at the curve position
    front: deque = deque()
    i = 0

    def emit(start: int, r: int, count: int = 1) -> None:
        last = spans[-1] if spans else None
        if last and last[2] == r and last[0] + last[1] == start:
            last[1] += count
        else:
            spans.append([start, count, r])

    def emit_split(row: BoxRow, origin: int, r: int) -> None:
        split_rows.append(row)
        split_origins.append(origin)
        emit(n + len(split_rows) - 1, r)

    while front or i < n:
        if rank == num_ranks - 1:
            # The last rank drains the curve: front rows first (they sit
            # at the current position), then the rest of the bulk run.
            for row, _, origin in front:
                emit_split(row, origin, rank)
            front.clear()
            if i < n:
                emit(i, rank, n - i)
                i = n
            break
        if front:
            row, w, origin = front[0]
            if w <= remaining + 1e-9:
                front.popleft()
                emit_split(row, origin, rank)
                remaining -= w
                if remaining <= 0:
                    rank += 1
                    remaining += rank_targets[rank]
                continue
        else:
            # Bulk boxes: scan whole spans per event instead of per box.
            accepted, remaining, event = _scan_span(works, i, remaining)
            if accepted:
                emit(i, rank, accepted)
                i += accepted
            if event == "advance":
                rank += 1
                remaining += rank_targets[rank]
                continue
            if event == "end":
                continue
            row, w, origin = arr.row(i), float(works[i]), i
        split = (
            split_row_to_target(row, w, remaining, model, constraints)
            if remaining > 0
            else None
        )
        if split is None:
            rank += 1
            remaining += rank_targets[rank]
            continue
        (piece, piece_w), rest = split
        num_splits += len(rest)
        if front:
            front.popleft()
        else:
            i += 1
        emit_split(piece, origin, rank)
        remaining -= piece_w
        # Remainders stay at the current curve position.
        front.extendleft((r, r_w, origin) for r, r_w in reversed(rest))
        if remaining <= 0 and rank < num_ranks - 1:
            rank += 1
            remaining += rank_targets[rank]

    start, count, span_rank = np.array(spans, dtype=np.int64).reshape(-1, 3).T
    idx = np.repeat(start - (np.cumsum(count) - count), count)
    idx += np.arange(len(idx))

    def gather(base: np.ndarray, extra: list) -> np.ndarray:
        rows = np.array(extra, dtype=np.int64).reshape(-1, *base.shape[1:])
        return np.take(np.concatenate((base, rows)), idx, axis=0)

    lower = gather(arr.lower, [r[0] for r in split_rows])
    upper = gather(arr.upper, [r[1] for r in split_rows])
    level = gather(arr.level, [r[2] for r in split_rows])
    source = gather(np.arange(n), split_origins)
    ranks = np.repeat(span_rank.astype(np.intp), count)
    layout = Layout(BoxList.from_array(BoxArray(lower, upper, level)), ranks)
    return layout, source, num_splits


def _scan_span(
    works: np.ndarray, i: int, remaining: float, chunk: int = 4096
) -> tuple[int, float, str]:
    """Count bulk boxes the scalar walk would accept before its next event.

    Returns ``(accepted, remaining, event)``: ``accepted`` boxes starting
    at ``i`` go to the current rank, ``remaining`` is the remainder after
    them, and ``event`` is why the scan stopped -- ``"advance"`` (the
    remainder hit zero; caller moves to the next rank, carrying the
    deficit), ``"reject"`` (box ``i + accepted`` exceeds the remainder;
    caller tries to split it) or ``"end"`` (curve exhausted).

    Bitwise-faithful to the per-box loop: :func:`running_remainders`
    is the same left fold of IEEE subtractions, so every accept
    comparison sees the identical float the scalar walk would have seen.
    """
    n = len(works)
    accepted = 0
    while i < n:
        w = works[i : i + chunk]
        prefix = running_remainders(remaining, w)
        accept = w <= prefix[:-1] + 1e-9
        hits = np.flatnonzero(~accept)
        reject_at = int(hits[0]) if hits.size else len(w)
        hits = np.flatnonzero(accept[:reject_at] & (prefix[1 : reject_at + 1] <= 0))
        if hits.size:
            k = int(hits[0])
            return accepted + k + 1, float(prefix[k + 1]), "advance"
        if reject_at < len(w):
            return accepted + reject_at, float(prefix[reject_at]), "reject"
        accepted += len(w)
        i += len(w)
        remaining = float(prefix[-1])
    return accepted, remaining, "end"


class ACEComposite(Partitioner):
    """Equal-work SFC-span partitioner (capacity-blind baseline).

    Parameters
    ----------
    constraints:
        Box-splitting constraints shared with ACEHeterogeneous.
    curve:
        Space-filling curve for the composite ordering.
    """

    name = "ACEComposite"

    def __init__(
        self,
        constraints: SplitConstraints | None = None,
        curve: str = "hilbert",
    ):
        self.constraints = constraints or SplitConstraints()
        self.curve = curve

    def partition(
        self,
        boxes: BoxList,
        capacities: Sequence[float],
        work_of: WorkModel | None = None,
    ) -> PartitionResult:
        # Capacities are accepted (interface parity) but only their count
        # matters: the default scheme assumes homogeneity.
        caps = self._check_inputs(boxes, capacities)
        num_ranks = len(caps)
        model = as_work_model(work_of)
        targets = np.full(num_ranks, model.total(boxes) / num_ranks)
        return partition_curve_spans(
            boxes, targets, model, self.constraints, self.curve
        )
