"""Tests for the HDDA block store."""

from __future__ import annotations

import pytest

from repro.hdda.storage import Block, BlockStore
from repro.util.errors import HDDAError
from repro.util.geometry import Box


def make_block(key: int, side: int = 4) -> Block:
    box = Box((0,) * 2, (side, side))
    return Block(key=key, box=box, payload=f"data-{key}", nbytes=side * side * 8)


class TestBlock:
    def test_negative_size_rejected(self):
        with pytest.raises(HDDAError):
            Block(key=0, box=Box((0,), (1,)), nbytes=-1)


class TestBlockStore:
    def test_put_get_pop(self):
        s = BlockStore()
        s.put(make_block(10))
        assert s.get(10).payload == "data-10"
        assert 10 in s
        blk = s.pop(10)
        assert blk.key == 10
        assert 10 not in s and len(s) == 0

    def test_get_missing_raises(self):
        s = BlockStore()
        with pytest.raises(HDDAError):
            s.get(99)
        with pytest.raises(HDDAError):
            s.pop(99)

    def test_replace_under_same_key(self):
        s = BlockStore()
        s.put(make_block(5, side=2))
        s.put(make_block(5, side=8))
        assert len(s) == 1
        assert s.get(5).box.shape == (8, 8)

    def test_totals(self):
        s = BlockStore()
        for k in range(10):
            s.put(make_block(k, side=2))
        assert s.total_cells == 10 * 4
        assert s.total_bytes == 10 * 4 * 8

    def test_iteration(self):
        s = BlockStore()
        for k in (3, 1, 7):
            s.put(make_block(k))
        assert sorted(s.keys()) == [1, 3, 7]
        assert sorted(b.key for b in s.blocks()) == [1, 3, 7]

    def test_grows_past_bucket_capacity(self):
        s = BlockStore(bucket_capacity=2)
        for k in range(100):
            s.put(make_block(k))
        assert len(s) == 100
        s.check_invariants()
        stats = s.stats()
        assert stats["num_items"] == 100
        assert stats["total_bytes"] == 100 * 16 * 8

    def test_invariant_detects_key_mismatch(self):
        s = BlockStore()
        blk = make_block(4)
        s.put(blk)
        blk.key = 5  # corrupt it
        with pytest.raises(HDDAError):
            s.check_invariants()
