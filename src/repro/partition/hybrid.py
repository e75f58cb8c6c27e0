"""SFCHybrid: capacity-proportional spans on the space-filling curve.

An extension beyond the paper combining the strengths of its two schemes:
like ACEComposite, boxes are dealt out as *contiguous* spans of the
Hilbert-ordered list (locality: each rank's data is one curve segment, so
ghost neighbours are usually on the same or the adjacent rank); like
ACEHeterogeneous, span sizes are proportional to the relative capacities
rather than equal.

This is the natural "fix" GrACE's own partitioner would receive for
heterogeneous clusters, and the panel ablation measures what the paper's
sorted smallest-box-first assignment gains or loses against it.
"""

from __future__ import annotations

from typing import Sequence

from repro.partition.base import (
    Partitioner,
    PartitionResult,
    WorkModel,
    as_work_model,
)
from repro.partition.composite import assign_curve_spans_columnar
from repro.partition.splitting import SplitConstraints
from repro.util.geometry import BoxList, Layout
from repro.util.sfc import sfc_order_boxes

__all__ = ["SFCHybrid"]


class SFCHybrid(Partitioner):
    """Capacity-weighted contiguous spans along a space-filling curve."""

    name = "SFCHybrid"

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
        caps = self._check_inputs(boxes, capacities)
        model = as_work_model(work_of)
        total = model.total(boxes)
        targets = caps * total  # the one change vs ACEComposite
        if len(boxes) == 0:
            return PartitionResult(Layout(boxes, ()), targets, work_model=model)
        ordered = sfc_order_boxes(boxes, curve=self.curve)
        layout, num_splits = assign_curve_spans_columnar(
            ordered, targets, model, self.constraints
        )
        result = PartitionResult(layout, targets, num_splits, model)
        result.validate_covers(boxes)
        return result
