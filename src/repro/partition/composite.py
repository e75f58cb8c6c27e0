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
from repro.partition.splitting import SplitConstraints, split_row_to_target
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
    """
    if len(boxes) == 0:
        return PartitionResult(Layout(boxes, ()), targets, work_model=model)
    order = sfc_sort_order(boxes.array, curve=curve)
    layout, source, num_splits = assign_curve_spans_columnar(
        boxes.take(order), targets, model, constraints
    )
    check_tiling(boxes, layout, order[source], len(targets))
    return PartitionResult(layout, targets, num_splits, model)


def assign_curve_spans_columnar(
    ordered: BoxList,
    targets: np.ndarray,
    work_of: WorkModel | None,
    constraints: SplitConstraints,
) -> tuple[Layout, np.ndarray, int]:
    """Deal an SFC-ordered box list into contiguous per-rank spans.

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
    columns, so no per-box Python objects are created for unsplit boxes.
    Split remainders ride a small deque of ``(lower, upper, level)`` rows
    at the current curve position, each with the row it was cut from.
    """
    model = as_work_model(work_of)
    arr = ordered.array
    works = model.vector(ordered)
    n = len(works)
    num_ranks = len(targets)
    rank = 0
    remaining = targets[0]
    num_splits = 0
    # Output: contiguous runs of base rows interleaved with explicit split
    # rows, in exact assignment order.  Runs keep the bulk of the output as
    # array slices; split rows are O(num_ranks), not O(n).  Ranks are
    # run-length encoded for the same reason: whole spans land at once.
    segments: list[tuple] = []  # ("run", i0, i1) | ("row", row, origin)
    rank_runs: list[list[int]] = []  # [rank, count]
    run_start = 0
    # (row, work, origin) split remainders at the curve position
    front: deque = deque()
    i = 0

    def flush_run(stop: int) -> None:
        nonlocal run_start
        if stop > run_start:
            segments.append(("run", run_start, stop))
        run_start = stop

    def emit(r: int, count: int = 1) -> None:
        if rank_runs and rank_runs[-1][0] == r:
            rank_runs[-1][1] += count
        else:
            rank_runs.append([r, count])

    while front or i < n:
        if rank == num_ranks - 1:
            # The last rank drains the curve: front rows first (they sit
            # at the current position), then the rest of the bulk run.
            while front:
                row, _, origin = front.popleft()
                segments.append(("row", row, origin))
                emit(rank)
            if i < n:
                emit(rank, n - i)
                i = n
            break
        if front:
            row, w, origin = front[0]
            if w <= remaining + 1e-9:
                front.popleft()
                segments.append(("row", row, origin))
                emit(rank)
                remaining -= w
                if remaining <= 0:
                    rank += 1
                    remaining += targets[rank]
                continue
        else:
            # Bulk boxes: scan whole spans per event instead of per box.
            accepted, remaining, event = _scan_span(works, i, remaining)
            if accepted:
                emit(rank, accepted)
                i += accepted  # stays inside the current run
            if event == "advance":
                rank += 1
                remaining += targets[rank]
                continue
            if event == "end":
                continue
            row, origin = arr.row(i), i
        split = (
            split_row_to_target(row, remaining, model, constraints)
            if remaining > 0
            else None
        )
        if split is None:
            rank += 1
            remaining += targets[rank]
            continue
        piece, rest = split
        num_splits += len(rest)
        if front:
            front.popleft()
        else:
            flush_run(i)
            i += 1
            run_start = i
        segments.append(("row", piece, origin))
        emit(rank)
        remaining -= model.work_row(*piece)
        # Remainders stay at the current curve position.
        front.extendleft(
            (r, model.work_row(*r), origin) for r in reversed(rest)
        )
        if remaining <= 0 and rank < num_ranks - 1:
            rank += 1
            remaining += targets[rank]
    flush_run(n)

    lowers: list[np.ndarray] = []
    uppers: list[np.ndarray] = []
    levels: list[np.ndarray] = []
    sources: list[np.ndarray] = []
    for seg in segments:
        if seg[0] == "run":
            _, i0, i1 = seg
            lowers.append(arr.lower[i0:i1])
            uppers.append(arr.upper[i0:i1])
            levels.append(arr.level[i0:i1])
            sources.append(np.arange(i0, i1))
        else:
            (lo, up, lvl), origin = seg[1], seg[2]
            lowers.append(np.array([lo], dtype=np.int64))
            uppers.append(np.array([up], dtype=np.int64))
            levels.append(np.array([lvl], dtype=np.int64))
            sources.append(np.array([origin]))
    assigned = BoxArray(
        np.concatenate(lowers) if lowers else arr.lower[:0],
        np.concatenate(uppers) if uppers else arr.upper[:0],
        np.concatenate(levels) if levels else arr.level[:0],
    )
    if rank_runs:
        out_ranks = np.repeat(
            np.array([r for r, _ in rank_runs], dtype=np.intp),
            np.array([c for _, c in rank_runs]),
        )
    else:
        out_ranks = np.zeros(0, dtype=np.intp)
    source = np.concatenate(sources) if sources else np.zeros(0, np.intp)
    return Layout(BoxList.from_array(assigned), out_ranks), source, num_splits


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
