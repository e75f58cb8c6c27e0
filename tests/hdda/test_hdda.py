"""Tests for the HDDA facade: registration, redistribution, invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdda import HDDA, HierarchicalIndexSpace
from repro.util.errors import HDDAError
from repro.util.geometry import Box, Layout


def make_hdda(num_procs: int = 4) -> HDDA:
    space = HierarchicalIndexSpace(Box((0, 0), (32, 32)), max_levels=3)
    return HDDA(space, num_procs=num_procs)


def tile_boxes(n: int, side: int = 4, level: int = 0) -> list[Box]:
    """n disjoint tiles in a row at the given level."""
    return [
        Box((i * side, 0), ((i + 1) * side, side), level) for i in range(n)
    ]


class TestRegistration:
    def test_register_and_lookup(self):
        h = make_hdda()
        b = Box((0, 0), (4, 4))
        key = h.register_box(b, rank=2, payload="x")
        assert h.owner_of(b) == 2
        assert h.get_block(b).payload == "x"
        assert h.get_block(b).nbytes == 16 * 8
        assert h.total_blocks == 1
        assert key == h.index_space.key_for_box(b)

    def test_double_register_rejected(self):
        h = make_hdda()
        b = Box((0, 0), (4, 4))
        h.register_box(b, 0)
        with pytest.raises(HDDAError):
            h.register_box(b, 1)

    def test_unregister(self):
        h = make_hdda()
        b = Box((0, 0), (4, 4))
        h.register_box(b, 0)
        h.unregister_box(b)
        assert h.total_blocks == 0
        with pytest.raises(HDDAError):
            h.get_block(b)

    def test_boxes_of_in_index_order(self):
        h = make_hdda(2)
        boxes = tile_boxes(4)
        for b in boxes:
            h.register_box(b, 0)
        owned = h.boxes_of(0)
        keys = [h.index_space.key_for_box(b) for b in owned]
        assert keys == sorted(keys)
        assert len(h.boxes_of(1)) == 0

    def test_cells_per_rank(self):
        h = make_hdda(2)
        h.register_box(Box((0, 0), (4, 4)), 0)
        h.register_box(Box((8, 0), (16, 8)), 1)
        np.testing.assert_array_equal(h.cells_per_rank(), [16, 64])

    def test_clear(self):
        h = make_hdda()
        h.register_box(Box((0, 0), (4, 4)), 0)
        h.clear()
        assert h.total_blocks == 0
        h.check_invariants()


class TestRedistribution:
    def test_plan_counts_moves_and_bytes(self):
        h = make_hdda(2)
        boxes = tile_boxes(4)
        for b in boxes:
            h.register_box(b, 0)
        # Move the last two tiles to rank 1.
        plan = h.plan_redistribution(
            Layout.from_pairs({boxes[2]: 1, boxes[3]: 1, boxes[0]: 0}.items())
        )
        assert plan.total_blocks == 2
        assert plan.total_bytes == 2 * 16 * 8
        assert set(plan.moves) == {(0, 1)}

    def test_plan_ignores_unregistered(self):
        h = make_hdda(2)
        plan = h.plan_redistribution(
            Layout.from_pairs({Box((0, 0), (4, 4)): 1}.items())
        )
        assert plan.is_empty()

    def test_plan_rejects_bad_rank(self):
        h = make_hdda(2)
        b = Box((0, 0), (4, 4))
        h.register_box(b, 0)
        with pytest.raises(HDDAError):
            h.plan_redistribution(Layout.from_pairs({b: 7}.items()))

    def test_apply_moves_creates_and_drops(self):
        h = make_hdda(2)
        old = tile_boxes(3)
        for b in old:
            h.register_box(b, 0)
        new_box = Box((0, 8), (4, 12))
        assignment = {old[0]: 1, old[1]: 0, new_box: 1}  # old[2] disappears
        plan = h.apply_assignment(Layout.from_pairs(assignment.items()))
        assert plan.total_blocks == 1  # old[0] moved
        assert h.owner_of(old[0]) == 1
        assert h.owner_of(old[1]) == 0
        assert h.owner_of(new_box) == 1
        assert h.total_blocks == 3
        with pytest.raises(HDDAError):
            h.owner_of(old[2])
        h.check_invariants()

    def test_apply_is_idempotent(self):
        h = make_hdda(3)
        boxes = tile_boxes(6)
        assignment = {b: i % 3 for i, b in enumerate(boxes)}
        h.apply_assignment(Layout.from_pairs(assignment.items()))
        plan2 = h.apply_assignment(Layout.from_pairs(assignment.items()))
        assert plan2.is_empty()
        h.check_invariants()

    def test_locality_score_extremes(self):
        h = make_hdda(2)
        boxes = list(h.index_space.order_boxes(tile_boxes(8)))
        # Contiguous halves -> one boundary crossing out of 7.
        for b in boxes[:4]:
            h.register_box(b, 0)
        for b in boxes[4:]:
            h.register_box(b, 1)
        assert h.locality_score() == pytest.approx(6 / 7)
        # Alternating ownership -> zero adjacency.
        h.clear()
        for i, b in enumerate(boxes):
            h.register_box(b, i % 2)
        assert h.locality_score() == 0.0

    def test_locality_score_trivial_cases(self):
        h = make_hdda(2)
        assert h.locality_score() == 1.0
        h.register_box(Box((0, 0), (4, 4)), 0)
        assert h.locality_score() == 1.0


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=16),
    st.lists(st.integers(0, 3), min_size=1, max_size=16),
)
def test_apply_assignment_reaches_target_state(first, second):
    """After apply_assignment, ownership matches the assignment exactly,
    whatever the previous state was."""
    h = make_hdda(4)
    tiles = tile_boxes(16, side=2)
    a1 = {tiles[i]: r for i, r in enumerate(first)}
    a2 = {tiles[i]: r for i, r in enumerate(second)}
    h.apply_assignment(Layout.from_pairs(a1.items()))
    h.apply_assignment(Layout.from_pairs(a2.items()))
    assert h.total_blocks == len(a2)
    for box, rank in a2.items():
        assert h.owner_of(box) == rank
    h.check_invariants()
