"""HDDA from a ``Layout``'s columns equals HDDA from ``(Box, rank)`` pairs.

``HDDA.apply_assignment`` used to take a Box-keyed mapping (or an
iterable of pairs), materialise every Box and lower the lot back to a
``BoxArray`` to batch the index keys.  It now keys a ``Layout`` straight
off its columns.  The deleted pair path is kept
here verbatim as the reference: same ``MigrationPlan`` (values *and* key
insertion order), same final ownership, same error before anything moved.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdda import HDDA, HierarchicalIndexSpace
from repro.hdda.hdda import MigrationPlan
from repro.util.errors import HDDAError
from repro.util.geometry import Box, BoxArray, BoxList, Layout

from tests.hdda.test_stateful import _TILES

NUM_PROCS = 3


class ReferenceHDDA(HDDA):
    """The pair-path redistribution, verbatim from before the Layout."""

    def _keyed_items(
        self, assignment: Mapping[Box, int] | Iterable[tuple[Box, int]]
    ) -> tuple[list[tuple[Box, int]], list[int]]:
        """The ``(box, rank)`` items and each box's index key, encoded once
        in one batch: plan, move, register and drop all work from these."""
        items = list(
            assignment.items()
            if isinstance(assignment, Mapping)
            else assignment
        )
        keys = self.index_space.keys_for_boxes(BoxList(b for b, _ in items))
        return items, keys

    def _plan(self, items: list[tuple[Box, int]], keys: list[int]) -> MigrationPlan:
        plan = MigrationPlan()
        for (_, dst), key in zip(items, keys):
            if not 0 <= dst < self.num_procs:
                raise HDDAError(f"rank {dst} out of range")
            if key not in self.ownership:
                continue
            src = self.ownership.owner(key)
            if src != dst:
                nbytes = self.stores[src].get(key).nbytes
                plan.add(src, dst, key, nbytes)
        return plan

    def apply_assignment(self, assignment) -> MigrationPlan:
        items, keys = self._keyed_items(assignment)
        plan = self._plan(items, keys)
        # Execute moves.
        for (src, dst), moving in plan.moves.items():
            for key in moving:
                blk = self.stores[src].pop(key)
                self.stores[dst].put(blk)
                self.ownership.assign(key, dst)
        # Create new blocks.
        for (box, rank), key in zip(items, keys):
            if key not in self.ownership:
                self._create_block(key, box, rank)
        # Drop stale blocks: everything outside the desired final key set.
        desired = set(keys)
        for key in list(self.ownership._owner):
            if key not in desired:
                rank = self.ownership.owner(key)
                self.stores[rank].pop(key)
                self.ownership.drop(key)
        return plan


def _space() -> HierarchicalIndexSpace:
    return HierarchicalIndexSpace(Box((0, 0), (16, 16)), max_levels=2)


#: A tile -> rank dict over a shuffled subset of the stateful suite's 4x4
#: tiles: two draws give moved, new and vanished boxes in every mix.
assignments = st.dictionaries(
    st.sampled_from(_TILES), st.integers(0, NUM_PROCS - 1), max_size=len(_TILES)
)


def _layouts(assignment: dict[Box, int]) -> list[Layout]:
    """The same assignment backed by Box objects and purely by columns."""
    objects = Layout.from_pairs(assignment.items())
    columns = Layout(
        BoxList.from_array(BoxArray.from_boxes(list(assignment))),
        np.array(list(assignment.values()), dtype=np.intp),
    )
    return [objects, columns]


def _state(h: HDDA) -> tuple:
    """Ownership in insertion order, plus what every store holds."""
    blocks = [
        sorted((k, store.get(k).box, store.get(k).nbytes) for k in store.keys())
        for store in h.stores
    ]
    return list(h.ownership._owner.items()), blocks


def _assert_same_plan(got: MigrationPlan, want: MigrationPlan) -> None:
    assert list(got.moves.items()) == list(want.moves.items())
    assert list(got.bytes_moved.items()) == list(want.bytes_moved.items())


@settings(max_examples=80, deadline=None)
@given(assignments, assignments)
def test_columns_equal_pairs(first, second):
    for backing in (0, 1):
        ref = ReferenceHDDA(_space(), num_procs=NUM_PROCS)
        new = HDDA(_space(), num_procs=NUM_PROCS)
        _assert_same_plan(
            new.apply_assignment(_layouts(first)[backing]),
            ref.apply_assignment(first),
        )
        assert _state(new) == _state(ref)
        _assert_same_plan(
            new.apply_assignment(_layouts(second)[backing]),
            ref.apply_assignment(second),
        )
        assert _state(new) == _state(ref)
        assert new.total_blocks == len(second)
        for box, rank in second.items():
            assert new.ownership.owner(new.index_space.key_for_box(box)) == rank
        new.check_invariants()
        ref.check_invariants()


@settings(max_examples=40, deadline=None)
@given(assignments, assignments.filter(bool), st.data())
def test_out_of_range_rank_raises_before_any_block_moves(first, second, data):
    victim = data.draw(st.sampled_from(list(second)))
    second = {**second, victim: NUM_PROCS}
    for backing in (0, 1):
        ref = ReferenceHDDA(_space(), num_procs=NUM_PROCS)
        new = HDDA(_space(), num_procs=NUM_PROCS)
        ref.apply_assignment(first)
        new.apply_assignment(_layouts(first)[backing])
        before = _state(new)
        with pytest.raises(HDDAError, match=f"rank {NUM_PROCS} out of range"):
            new.apply_assignment(_layouts(second)[backing])
        with pytest.raises(HDDAError, match=f"rank {NUM_PROCS} out of range"):
            ref.apply_assignment(second)
        assert _state(new) == before == _state(ref)
        new.check_invariants()
