"""Constrained box splitting for the partitioners (paper section 5.3).

When the work of a bounding box exceeds what a processor should receive,
the box is broken in two such that at least one piece fits.  Constraints:

- **Minimum box size** -- no side may drop below ``min_box_size`` (kernel
  stencils and per-box overheads make slivers worthless); enforcing it is
  the paper's stated source of residual load imbalance.
- **Aspect ratio** -- boxes are always cut along their *longest* dimension,
  which keeps the ratio of longest to shortest side from growing.
- **Snapping** -- cut planes land on multiples of ``snap`` (the refinement
  factor), so split fine boxes stay coarsen-compatible for restriction.

``allow_multi_axis=True`` enables the paper's future-work extension
("if the box is instead cut along more axes, it could lead to finer
partitioning granularity and hence better work assignments"): when the
longest-axis cut cannot get close to the target work, other axes are
considered as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.partition.workmodel import WorkModel
from repro.util.errors import PartitionError

__all__ = ["SplitConstraints", "split_row_to_target", "BoxRow", "PricedRow"]

#: Object-free box currency of the columnar partitioners: plain
#: ``(lower, upper, level)`` tuples.
BoxRow = tuple[tuple[int, ...], tuple[int, ...], int]

#: A row and its work, as :func:`split_row_to_target` returns each piece.
PricedRow = tuple[BoxRow, float]


@dataclass(frozen=True, slots=True)
class SplitConstraints:
    """Knobs of the box-splitting step."""

    min_box_size: int = 2
    snap: int = 2
    allow_multi_axis: bool = False

    def __post_init__(self) -> None:
        if self.min_box_size < 1:
            raise PartitionError(
                f"min_box_size must be >= 1, got {self.min_box_size}"
            )
        if self.snap < 1:
            raise PartitionError(f"snap must be >= 1, got {self.snap}")


def _candidate_cut_coords(
    lo_ax: int,
    up_ax: int,
    target_work: float,
    box_work: float,
    c: SplitConstraints,
) -> int | None:
    """Cut of ``[lo_ax, up_ax)`` giving the low piece as many whole planes
    as fit ``target_work``, clamped into the admissible band.

    The clamp works both ways: *up* to ``min_box_size`` planes, so for a
    target below one minimum slab the low piece exceeds the target by up
    to that slab's work (ROADMAP item 1), and down so the high piece
    keeps ``min_box_size`` planes too.  Snapping then moves the cut down
    to a ``snap`` multiple, or up when down would break the low piece's
    minimum.

    Returns an absolute cut coordinate, or ``None`` when the axis admits no
    cut satisfying the min-size and snap constraints.
    """
    least, snap = c.min_box_size, c.snap
    extent = up_ax - lo_ax
    if extent < 2 * least:
        return None
    work_per_plane = box_work / extent
    want = int(target_work / work_per_plane)  # planes in the low piece
    # Clamp to the admissible band, then snap the absolute coordinate down.
    if want > extent - least:
        want = extent - least
    if want < least:
        want = least
    cut = lo_ax + want
    if snap > 1:
        snapped = (cut // snap) * snap
        # Snapping down may violate the low piece's min size; snap up then.
        if snapped - lo_ax < least:
            snapped = -(-cut // snap) * snap
        cut = snapped
    if not (lo_ax + least <= cut <= up_ax - least):
        return None
    return cut


def split_row_to_target(
    row: BoxRow,
    work: float,
    target_work: float,
    model: WorkModel,
    constraints: SplitConstraints | None = None,
    _depth: int = 0,
) -> tuple[PricedRow, list[PricedRow]] | None:
    """Split ``row`` of known ``work`` so the first returned piece's work
    is as close to (and preferably at most) ``target_work`` as the
    constraints allow; the second element lists the remainders (one for
    a single cut, several in multi-axis mode).  Every returned row comes
    with its work: ``model.work_row`` prices each new row exactly once,
    and the caller hands that price back in when it cuts the row again,
    so no row is ever re-priced and no memo is needed.  Rows are plain
    ``(lower, upper, level)`` tuples, so the array-sliced partitioners
    build no per-box objects while splitting.

    With ``allow_multi_axis`` the piece is *recursively* re-cut along its
    own longest axis while its work still exceeds the target -- single cuts
    along the longest axis already have the finest per-plane granularity,
    so the extension's value is sub-plane pieces, exactly the "finer
    partitioning granularity" of the paper's future-work note.

    Returns ``None`` when no admissible split exists (the box is at or near
    the minimum size) -- the caller then assigns the box whole, accepting
    imbalance (paper: "the total work load W_k that is assigned to processor
    k may differ from L_k thus leading to a 'slight' load imbalance").
    """
    c = constraints or SplitConstraints()
    if not 0.0 <= target_work < math.inf:
        if not math.isfinite(target_work):
            raise PartitionError(f"non-finite target work {target_work}")
        raise PartitionError(f"negative target work {target_work}")
    if work <= 0:
        raise PartitionError(f"box {row} has non-positive work {work}")
    lower, upper, level = row
    ndim = len(lower)
    axis, longest = 0, upper[0] - lower[0]  # longest axis, first on ties
    for d in range(1, ndim):
        if upper[d] - lower[d] > longest:
            axis, longest = d, upper[d] - lower[d]
    cut = _candidate_cut_coords(lower[axis], upper[axis], target_work, work, c)
    if cut is None:
        return None
    lo_up = list(upper)
    lo_up[axis] = cut
    hi_lo = list(lower)
    hi_lo[axis] = cut
    lo: BoxRow = (lower, tuple(lo_up), level)
    hi: BoxRow = (tuple(hi_lo), upper, level)
    lo_work = model.work_row(*lo)
    rest = [(hi, model.work_row(*hi))]
    if c.allow_multi_axis and lo_work > target_work and _depth < 3 * ndim:
        deeper = split_row_to_target(
            lo, lo_work, target_work, model, c, _depth + 1
        )
        # Accept the recursive cut only when it actually lands closer.
        if deeper is not None and abs(deeper[0][1] - target_work) < abs(
            lo_work - target_work
        ):
            return deeper[0], deeper[1] + rest
    return (lo, lo_work), rest
