"""Tests for constrained box splitting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition.splitting import SplitConstraints, split_row_to_target
from repro.partition.workmodel import WorkModel
from repro.util.errors import PartitionError
from repro.util.geometry import Box, BoxArray, BoxList
from tests.conftest import box_row, box_work as work, boxes
from tests.partition import reference_splitter
from tests.partition.test_columnar_identity import StripedWorkModel
from tests.partition.test_workmodel import ScaledWork

MODEL = WorkModel()


def kernel(row, target, model=MODEL, constraints=None):
    """The kernel on a row whose work is the model's price of it; every
    returned work must be that model's price of the returned row."""
    out = split_row_to_target(row, model.work_row(*row), target, model, constraints)
    if out is not None:
        for r, w in [out[0], *out[1]]:
            assert w == model.work_row(*r)
    return out


def split(box: Box, target: float, model=MODEL, constraints=None):
    """:func:`kernel` with ``Box`` objects in and out."""
    out = kernel(box_row(box), target, model, constraints)
    if out is None:
        return None
    (piece, _), rest = out
    return Box(*piece), [Box(*r) for r, _ in rest]


class TestConstraints:
    def test_defaults(self):
        c = SplitConstraints()
        assert c.min_box_size == 2
        assert c.snap == 2
        assert not c.allow_multi_axis

    def test_guards(self):
        with pytest.raises(PartitionError):
            SplitConstraints(min_box_size=0)
        with pytest.raises(PartitionError):
            SplitConstraints(snap=0)


class TestSplitToTarget:
    def test_splits_along_longest_axis(self):
        box = Box((0, 0), (16, 4))
        out = split(box, 32.0, MODEL)
        assert out is not None
        lo, rest = out
        (hi,) = rest
        assert lo.shape[1] == 4 and hi.shape[1] == 4  # y untouched
        assert lo.num_cells + hi.num_cells == box.num_cells

    def test_piece_work_near_target(self):
        box = Box((0, 0), (16, 4))
        out = split(box, 24.0, MODEL)
        lo, _ = out
        # 24 work = 6 planes, snapped to 6 -> 24 exactly.
        assert work(lo) == pytest.approx(24.0)

    def test_snap_respected(self):
        box = Box((0, 0), (16, 4))
        out = split(box, 20.0, MODEL, SplitConstraints(snap=4))
        lo, (hi,) = out
        assert lo.upper[0] % 4 == 0

    def test_min_size_enforced_both_sides(self):
        box = Box((0, 0), (8, 4))
        c = SplitConstraints(min_box_size=3, snap=1)
        out = split(box, 1.0, MODEL, c)  # tiny target
        lo, (hi,) = out
        assert lo.shape[0] >= 3 and hi.shape[0] >= 3

    def test_unsplittable_returns_none(self):
        box = Box((0, 0), (3, 3))
        assert split(box, 1.0, MODEL, SplitConstraints(2, 1)) is None

    def test_aspect_ratio_does_not_grow_much(self):
        """Cutting the longest axis keeps the result's aspect ratio bounded
        by max(original ratio, 2x-ish)."""
        box = Box((0, 0, 0), (32, 8, 8))
        out = split(box, 1024.0, MODEL)
        lo, (hi,) = out

        def aspect_ratio(b: Box) -> float:
            return max(b.shape) / min(b.shape)

        assert aspect_ratio(lo) <= aspect_ratio(box)
        assert aspect_ratio(hi) <= aspect_ratio(box)

    def test_level_weighted_work(self):
        """Models weighting level are honoured (fine boxes split at
        positions reflecting subcycled work)."""
        box = Box((0, 0), (16, 4), level=1)
        out = split(box, 64.0, MODEL)  # work = cells * 2
        lo, _ = out
        assert work(lo) == pytest.approx(64.0)

    def test_multi_axis_reaches_sub_plane_targets(self):
        """Recursive multi-axis cuts produce pieces smaller than a single
        snapped plane of the longest axis -- the 'finer granularity' of the
        paper's future-work note."""
        box = Box((0, 0), (16, 16))
        c_single = SplitConstraints(min_box_size=2, snap=2)
        c_multi = SplitConstraints(min_box_size=2, snap=2, allow_multi_axis=True)
        target = 8.0  # half of one 2-cell-wide snapped slab (32 cells)
        lo_s, rest_s = split(box, target, MODEL, c_single)
        lo_m, rest_m = split(box, target, MODEL, c_multi)
        assert work(lo_s) > target  # single cut cannot get there
        assert abs(work(lo_m) - target) < abs(work(lo_s) - target)
        # Everything still tiles the box exactly.
        assert lo_m.num_cells + sum(b.num_cells for b in rest_m) == box.num_cells
        assert len(rest_m) >= 2

    def test_negative_target_rejected(self):
        with pytest.raises(PartitionError):
            split(Box((0,), (8,)), -1.0, MODEL)

    @pytest.mark.parametrize("target", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_target_rejected(self, target):
        # Not a bare ValueError / OverflowError from the plane count.
        with pytest.raises(PartitionError, match="non-finite target work"):
            kernel(((0, 0), (8, 8), 0), target)


# The paper's RM3D base grid, asked for less than one minimum slab
# (2 planes x 32 x 32 = 2 048 units): ROADMAP item 1's shrunk case.
RM3D_BASE = ((0, 0, 0), (128, 32, 32), 0)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: splitter overshoots when min_box_size clamps up",
)
def test_piece_fits_target_or_no_split():
    out = kernel(RM3D_BASE, 143.0)
    assert out is None or out[0][1] <= 143.0


def test_piece_fits_target_with_multi_axis():
    c = SplitConstraints(allow_multi_axis=True)
    (_, piece_work), _ = kernel(RM3D_BASE, 143.0, MODEL, c)
    assert piece_work == 128.0


@settings(max_examples=200)
@given(boxes(max_side=64), st.floats(0.01, 1.0))
def test_split_invariants(box: Box, frac: float):
    """Any successful split partitions the box, respects min sizes and
    keeps both pieces inside the original."""
    c = SplitConstraints(min_box_size=2, snap=2)
    target = frac * work(box)
    out = split(box, target, MODEL, c)
    if out is None:
        # Only legitimate when every admissible cut is blocked.
        assert max(box.shape) < 2 * c.min_box_size or (
            c.snap > 1
        )
        return
    lo, rest = out
    pieces = [lo, *rest]
    assert sum(b.num_cells for b in pieces) == box.num_cells
    for b in pieces:
        assert box.contains_box(b)
        assert min(b.shape) >= min(c.min_box_size, min(box.shape))
    assert BoxList(pieces).is_disjoint()


@settings(max_examples=200)
@given(boxes(max_side=64), st.floats(0.01, 1.0))
def test_multi_axis_split_invariants(box: Box, frac: float):
    """Recursive multi-axis splitting still tiles the box exactly with
    min-size-respecting disjoint pieces, and its piece is never further
    from the target than the single-cut piece."""
    c1 = SplitConstraints(min_box_size=2, snap=2)
    cm = SplitConstraints(min_box_size=2, snap=2, allow_multi_axis=True)
    target = frac * work(box)
    single = split(box, target, MODEL, c1)
    multi = split(box, target, MODEL, cm)
    assert (single is None) == (multi is None)
    if multi is None:
        return
    lo_m, rest_m = multi
    pieces = [lo_m, *rest_m]
    assert sum(b.num_cells for b in pieces) == box.num_cells
    assert BoxList(pieces).is_disjoint()
    for b in pieces:
        assert box.contains_box(b)
        assert min(b.shape) >= min(cm.min_box_size, min(box.shape))
    lo_s, _ = single
    err_m = abs(work(lo_m) - target)
    err_s = abs(work(lo_s) - target)
    assert err_m <= err_s + 1e-9


@settings(max_examples=300)
@given(
    boxes(max_side=48),
    st.floats(0.0, 1.2),
    st.integers(1, 4),
    st.sampled_from([1, 2, 4]),
    st.booleans(),
)
def test_split_row_property(box: Box, frac, min_box_size, snap, multi_axis):
    """The splitter that runs, over rows x targets x constraints."""
    lower, upper, level = row = box_row(box)
    c = SplitConstraints(min_box_size, snap, multi_axis)
    target = frac * MODEL.work_row(*row)
    out = kernel(row, target, MODEL, c)

    axis = int(np.argmax(box.shape))
    admissible = [
        cut
        for cut in range(lower[axis] + min_box_size, upper[axis] - min_box_size + 1)
        if cut % snap == 0
    ]
    assert (out is None) == (not admissible)
    if out is None:
        return

    (piece, piece_work), rest = out
    rows = [piece, *(r for r, _ in rest)]
    tiles = BoxArray(
        [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows]
    )
    assert tiles.total_cells() == box.num_cells
    assert tiles.is_disjoint()
    for lo, up, lvl in rows:
        assert lvl == level
        for d, (a, b) in enumerate(zip(lo, up)):
            assert lower[d] <= a < b <= upper[d]
            # An axis is either untouched or cut under the constraints.
            assert b - a == upper[d] - lower[d] or b - a >= min_box_size
            assert a == lower[d] or a % snap == 0
            assert b == upper[d] or b % snap == 0

    single = kernel(row, target, MODEL, SplitConstraints(min_box_size, snap))
    err = abs(piece_work - target)
    assert err <= abs(single[0][1] - target)


MODELS = [WorkModel(), ScaledWork(), StripedWorkModel()]


@settings(max_examples=300)
@given(
    boxes(max_side=48),
    st.floats(0.0, 1.2),
    st.integers(1, 4),
    st.sampled_from([1, 2, 4]),
    st.booleans(),
    st.sampled_from(range(len(MODELS))),
)
def test_kernel_matches_reference_splitter(
    box: Box, frac, min_box_size, snap, multi_axis, which
):
    """The priced kernel cuts exactly as the pre-kernel splitter did --
    same piece, same remainders in the same order -- and every work it
    returns is the model's price of its row, under three models."""
    model = MODELS[which]
    row = box_row(box)
    c = SplitConstraints(min_box_size, snap, multi_axis)
    target = frac * model.work_row(*row)
    got = kernel(row, target, model, c)
    want = reference_splitter.split_row_to_target(row, target, model, c)
    if want is None:
        assert got is None
        return
    (piece, _), rest = got
    assert (piece, [r for r, _ in rest]) == want
