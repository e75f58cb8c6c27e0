"""Stateful property tests: the HDDA and the extendible hash table under
arbitrary operation sequences.

hypothesis drives random interleavings of register / unregister /
reassign / lookup operations against a plain-dict model; after every step
the structural invariants must hold and lookups must agree with the
model.  This is the strongest guarantee we have that regrid-time churn
(the paper's every-5-iterations repartitioning) can never corrupt the
distributed array's ownership state.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.hdda import HDDA, HierarchicalIndexSpace
from repro.util.errors import HDDAError
from repro.util.geometry import Box, Layout
from repro.util.hashing import ExtendibleHashTable

# ---------------------------------------------------------------------------
# Extendible hash table vs dict model
# ---------------------------------------------------------------------------


class HashTableMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.table = ExtendibleHashTable(bucket_capacity=2)
        self.model: dict[int, int] = {}

    keys = Bundle("keys")

    @rule(target=keys, k=st.integers(0, 2**40))
    def add_key(self, k):
        return k

    @rule(k=keys, v=st.integers())
    def put(self, k, v):
        self.table.put(k, v)
        self.model[k] = v

    @rule(k=keys)
    def get(self, k):
        assert self.table.get(k, None) == self.model.get(k, None)

    @rule(k=keys)
    def remove(self, k):
        if k in self.model:
            assert self.table.remove(k) == self.model.pop(k)
        else:
            with pytest.raises(KeyError):
                self.table.remove(k)

    @invariant()
    def sizes_agree(self):
        assert len(self.table) == len(self.model)

    @invariant()
    def structure_sound(self):
        self.table.check_invariants()

    @invariant()
    def contents_agree(self):
        assert dict(self.table.items()) == self.model


TestHashTableStateful = HashTableMachine.TestCase
TestHashTableStateful.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)


# ---------------------------------------------------------------------------
# HDDA ownership under register / unregister / reassign churn
# ---------------------------------------------------------------------------

_TILES = [
    Box((4 * i, 4 * j), (4 * i + 4, 4 * j + 4))
    for i in range(4)
    for j in range(4)
]


class HddaMachine(RuleBasedStateMachine):
    NUM_PROCS = 3

    def __init__(self):
        super().__init__()
        space = HierarchicalIndexSpace(Box((0, 0), (16, 16)), max_levels=2)
        self.hdda = HDDA(space, num_procs=self.NUM_PROCS)
        self.model: dict[int, int] = {}  # tile index -> rank

    @rule(tile=st.integers(0, 15), rank=st.integers(0, NUM_PROCS - 1))
    def register(self, tile, rank):
        box = _TILES[tile]
        if tile in self.model:
            with pytest.raises(HDDAError):
                self.hdda.register_box(box, rank)
        else:
            self.hdda.register_box(box, rank)
            self.model[tile] = rank

    @rule(tile=st.integers(0, 15))
    def unregister(self, tile):
        box = _TILES[tile]
        if tile in self.model:
            self.hdda.unregister_box(box)
            del self.model[tile]
        else:
            with pytest.raises(HDDAError):
                self.hdda.unregister_box(box)

    @rule(data=st.data())
    def reassign_everything(self, data):
        """Full repartition: every registered tile gets a (new) rank."""
        assignment = {}
        for tile in self.model:
            rank = data.draw(
                st.integers(0, self.NUM_PROCS - 1), label=f"rank[{tile}]"
            )
            assignment[_TILES[tile]] = rank
            self.model[tile] = rank
        self.hdda.apply_assignment(Layout.from_pairs(assignment.items()))

    @rule(tile=st.integers(0, 15))
    def lookup(self, tile):
        box = _TILES[tile]
        if tile in self.model:
            assert self.hdda.owner_of(box) == self.model[tile]
        else:
            with pytest.raises(HDDAError):
                self.hdda.owner_of(box)

    @invariant()
    def block_count_agrees(self):
        assert self.hdda.total_blocks == len(self.model)

    @invariant()
    def structure_sound(self):
        self.hdda.check_invariants()


TestHddaStateful = HddaMachine.TestCase
TestHddaStateful.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
