"""Property tests for partition metrics: redistribution volume and
exchange planning."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.ghost import plan_exchange_volumes
from repro.kernels.workloads import moving_blob_trace
from repro.partition import ACEHeterogeneous, ACEComposite
from repro.partition.base import PartitionResult
from repro.partition.metrics import (
    load_imbalance,
    redistribution_volume_columns,
)
from repro.util.errors import PartitionError
from repro.util.geometry import Box, Layout


def redistribution_volume(prev, new, bytes_per_cell=8.0):
    """The library diffs layouts; these cases are written as pair lists."""
    return redistribution_volume_columns(
        Layout.from_pairs(prev), Layout.from_pairs(new), bytes_per_cell
    )


def tiles(n: int) -> list[Box]:
    return [Box((2 * i, 0), (2 * i + 2, 2)) for i in range(n)]


class TestRedistributionVolume:
    def test_identity_assignment_moves_nothing(self):
        ts = tiles(6)
        a = [(b, i % 3) for i, b in enumerate(ts)]
        assert redistribution_volume(a, a) == {}

    def test_full_swap_moves_everything(self):
        ts = tiles(4)
        before = [(b, 0) for b in ts]
        after = [(b, 1) for b in ts]
        moved = redistribution_volume(before, after, bytes_per_cell=8.0)
        assert moved == {(0, 1): 4 * 4 * 8.0}

    def test_resplit_counts_only_changed_cells(self):
        """A box re-split differently but with the same owner moves zero;
        split across owners moves exactly the foreign part."""
        big = Box((0, 0), (8, 4))
        before = [(big, 0)]
        left, right = big.halve(axis=0)
        assert redistribution_volume(before, [(left, 0), (right, 0)]) == {}
        moved = redistribution_volume(
            before, [(left, 0), (right, 1)], bytes_per_cell=1.0
        )
        assert moved == {(0, 1): right.num_cells * 1.0}

    def test_new_regions_free(self):
        """Cells with no previous owner (fresh refinement) cost nothing."""
        moved = redistribution_volume([], [(Box((0, 0), (4, 4)), 2)])
        assert moved == {}


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=10),
    st.lists(st.integers(0, 3), min_size=1, max_size=10),
)
def test_redistribution_conservation(first, second):
    """Total bytes moved equals bytes of cells whose owner changed --
    independent of direction bookkeeping."""
    ts = tiles(max(len(first), len(second)))
    a = [(ts[i], r) for i, r in enumerate(first)]
    b = [(ts[i], r) for i, r in enumerate(second)]
    moved = redistribution_volume(a, b, bytes_per_cell=1.0)
    expected = sum(
        ts[i].num_cells
        for i in range(min(len(first), len(second)))
        if first[i] != second[i]
    )
    assert sum(moved.values()) == expected
    for (src, dst), v in moved.items():
        assert src != dst and v > 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 5), st.sampled_from(["het", "comp"]))
def test_exchange_volume_nonnegative_and_self_free(epoch_idx, which):
    """Exchange plans never charge a rank for talking to itself, and a
    one-rank cluster exchanges nothing."""
    bl = moving_blob_trace(
        domain_shape=(64, 64), num_regrids=6, max_levels=3
    ).epoch(epoch_idx)
    part = {"het": ACEHeterogeneous(), "comp": ACEComposite()}[which]
    result = part.partition(bl, [0.25] * 4)
    vols = plan_exchange_volumes(result.boxes(), result.rank_vector())
    for (src, dst), v in vols.items():
        assert src != dst
        assert v > 0
    solo = part.partition(bl, [1.0])
    assert plan_exchange_volumes(solo.boxes(), solo.rank_vector()) == {}


class TestLoadImbalanceEdgeCases:
    def test_no_targets_raises(self):
        result = PartitionResult(Layout.from_pairs([]), targets=np.zeros(0))
        with pytest.raises(PartitionError, match="no targets"):
            load_imbalance(result)

    def test_target_count_mismatch_raises(self):
        box = Box((0, 0), (2, 2))
        result = PartitionResult(
            Layout.from_pairs([(box, 0)]), targets=np.array([2.0, 2.0])
        )
        with pytest.raises(PartitionError, match="targets for"):
            load_imbalance(result, targets=[4.0])

    def test_single_node_perfect_balance(self):
        box = Box((0, 0), (2, 2))
        result = PartitionResult(
            Layout.from_pairs([(box, 0)]), targets=np.array([float(box.num_cells)])
        )
        assert load_imbalance(result).tolist() == [0.0]

    def test_zero_total_load_scores_full_imbalance(self):
        # Nothing assigned but positive targets: every rank missed its
        # ideal share entirely -- 100% off, not a division error.
        result = PartitionResult(
            Layout.from_pairs([]), targets=np.array([3.0, 5.0])
        )
        assert load_imbalance(result).tolist() == [100.0, 100.0]

    def test_zero_capacity_rank_balanced_only_when_idle(self):
        box = Box((0, 0), (2, 2))
        idle = PartitionResult(
            Layout.from_pairs([(box, 0)]),
            targets=np.array([float(box.num_cells), 0.0]),
        )
        imb = load_imbalance(idle)
        assert imb.tolist() == [0.0, 0.0]
        loaded = PartitionResult(
            Layout.from_pairs([(box, 1)]),
            targets=np.array([float(box.num_cells), 0.0]),
        )
        imb = load_imbalance(loaded)
        assert imb[1] == float("inf")


class TestRedistributionVolumeEdgeCases:
    def test_both_empty(self):
        assert redistribution_volume([], []) == {}

    def test_empty_previous_assignment_is_free(self):
        # Newly refined regions have no prior owner; their data is
        # prolonged locally, never migrated.
        new = [(Box((0, 0), (4, 4)), 1)]
        assert redistribution_volume([], new) == {}

    def test_empty_new_assignment(self):
        prev = [(Box((0, 0), (4, 4)), 0)]
        assert redistribution_volume(prev, []) == {}

    def test_single_node_never_moves(self):
        boxes = [Box((0, 0), (4, 4)), Box((4, 0), (8, 4))]
        prev = [(b, 0) for b in boxes]
        new = [(b, 0) for b in reversed(boxes)]
        assert redistribution_volume(prev, new) == {}

    def test_disjoint_levels_do_not_interact(self):
        coarse = Box((0, 0), (4, 4), level=0)
        fine = Box((0, 0), (4, 4), level=1)
        assert redistribution_volume([(coarse, 0)], [(fine, 1)]) == {}
