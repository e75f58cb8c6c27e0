"""Tests for the HDDA facade: placement, redistribution, invariants."""

from __future__ import annotations

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


def owner(h: HDDA, box: Box) -> int:
    return h.ownership.owner(h.index_space.key_for_box(box))


def place(h: HDDA, assignment) -> None:
    h.apply_assignment(Layout.from_pairs(dict(assignment).items()))


class TestRegistration:
    def test_register_and_lookup(self):
        h = make_hdda()
        b = Box((0, 0), (4, 4))
        place(h, {b: 2})
        key = h.index_space.key_for_box(b)
        assert owner(h, b) == 2
        assert h.stores[2].get(key).nbytes == 16 * 8
        assert h.total_blocks == 1

    def test_unregister(self):
        h = make_hdda()
        b, kept = Box((0, 0), (4, 4)), Box((8, 0), (12, 4))
        place(h, {b: 0, kept: 1})
        place(h, {kept: 1})
        assert h.total_blocks == 1
        with pytest.raises(HDDAError):
            owner(h, b)
        h.check_invariants()

    def test_cells_per_rank(self):
        h = make_hdda(2)
        place(h, {Box((0, 0), (4, 4)): 0, Box((8, 0), (16, 8)): 1})
        assert [store.total_cells for store in h.stores] == [16, 64]

    def test_clear(self):
        h = make_hdda()
        place(h, {b: i % 4 for i, b in enumerate(tile_boxes(4))})
        place(h, {})
        assert h.total_blocks == 0
        h.check_invariants()


class TestRedistribution:
    def test_plan_counts_moves_and_bytes(self):
        h = make_hdda(2)
        boxes = tile_boxes(4)
        place(h, {b: 0 for b in boxes})
        # Move the last two tiles to rank 1.
        plan = h.apply_assignment(
            Layout.from_pairs({boxes[2]: 1, boxes[3]: 1, boxes[0]: 0}.items())
        )
        assert plan.total_blocks == 2
        assert plan.total_bytes == 2 * 16 * 8
        assert set(plan.moves) == {(0, 1)}

    def test_plan_ignores_unregistered(self):
        h = make_hdda(2)
        plan = h.apply_assignment(
            Layout.from_pairs({Box((0, 0), (4, 4)): 1}.items())
        )
        assert not plan.moves

    def test_plan_rejects_bad_rank(self):
        h = make_hdda(2)
        b = Box((0, 0), (4, 4))
        place(h, {b: 0})
        with pytest.raises(HDDAError):
            h.apply_assignment(Layout.from_pairs({b: 7}.items()))
        assert owner(h, b) == 0

    def test_apply_moves_creates_and_drops(self):
        h = make_hdda(2)
        old = tile_boxes(3)
        place(h, {b: 0 for b in old})
        new_box = Box((0, 8), (4, 12))
        assignment = {old[0]: 1, old[1]: 0, new_box: 1}  # old[2] disappears
        plan = h.apply_assignment(Layout.from_pairs(assignment.items()))
        assert plan.total_blocks == 1  # old[0] moved
        assert owner(h, old[0]) == 1
        assert owner(h, old[1]) == 0
        assert owner(h, new_box) == 1
        assert h.total_blocks == 3
        with pytest.raises(HDDAError):
            owner(h, old[2])
        h.check_invariants()

    def test_apply_is_idempotent(self):
        h = make_hdda(3)
        boxes = tile_boxes(6)
        assignment = {b: i % 3 for i, b in enumerate(boxes)}
        h.apply_assignment(Layout.from_pairs(assignment.items()))
        plan2 = h.apply_assignment(Layout.from_pairs(assignment.items()))
        assert not plan2.moves
        h.check_invariants()


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
        assert owner(h, box) == rank
    h.check_invariants()
