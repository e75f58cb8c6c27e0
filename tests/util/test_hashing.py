"""Tests for extendible hashing."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.util.errors import HDDAError
from repro.util.hashing import ExtendibleHashTable


class TestBasicOps:
    def test_put_get(self):
        t = ExtendibleHashTable(bucket_capacity=2)
        t.put(1, "a")
        t.put(2, "b")
        assert t.get(1) == "a"
        assert t[2] == "b"
        assert t.get(99) is None
        assert t.get(99, "dflt") == "dflt"

    def test_len_and_contains(self):
        t = ExtendibleHashTable()
        for k in range(10):
            t[k] = k * k
        assert len(t) == 10
        assert 5 in t and 10 not in t

    def test_overwrite_does_not_grow(self):
        t = ExtendibleHashTable()
        t.put(7, "x")
        t.put(7, "y")
        assert len(t) == 1
        assert t[7] == "y"

    def test_missing_getitem_raises(self):
        t = ExtendibleHashTable()
        with pytest.raises(KeyError):
            t[3]

    def test_remove(self):
        t = ExtendibleHashTable()
        t[4] = "v"
        assert t.remove(4) == "v"
        assert len(t) == 0
        with pytest.raises(KeyError):
            t.remove(4)

    def test_negative_key_rejected(self):
        t = ExtendibleHashTable()
        with pytest.raises(HDDAError):
            t.put(-1, "x")
        with pytest.raises(HDDAError):
            t.get(-5)

    def test_bad_capacity_rejected(self):
        with pytest.raises(HDDAError):
            ExtendibleHashTable(bucket_capacity=0)


class TestGrowth:
    def test_directory_doubles_under_load(self):
        t = ExtendibleHashTable(bucket_capacity=2)
        for k in range(64):
            t[k] = k
        s = t.stats()
        assert s["global_depth"] > 1
        assert s["num_items"] == 64
        t.check_invariants()
        for k in range(64):
            assert t[k] == k

    def test_sequential_and_sparse_keys(self):
        t = ExtendibleHashTable(bucket_capacity=4)
        keys = [i * 1_000_003 for i in range(200)]
        for k in keys:
            t[k] = -k
        t.check_invariants()
        assert all(t[k] == -k for k in keys)

    def test_iteration_covers_all(self):
        t = ExtendibleHashTable(bucket_capacity=3)
        for k in range(40):
            t[k] = str(k)
        assert sorted(t.keys()) == list(range(40))
        assert dict(t.items()) == {k: str(k) for k in range(40)}

    def test_max_depth_guard(self):
        # Two keys whose hashes agree in the single discriminating bit force
        # a doubling beyond max_global_depth=1.
        from repro.util.hashing import mix64

        same_bit = [k for k in range(64) if mix64(k) & 1 == 0][:2]
        t = ExtendibleHashTable(bucket_capacity=1, max_global_depth=1)
        with pytest.raises(HDDAError):
            for k in same_bit:
                t.put(k, k)

    def test_mix64_is_deterministic_and_64bit(self):
        from repro.util.hashing import mix64

        assert mix64(12345) == mix64(12345)
        assert 0 <= mix64(0) < 2**64
        # Low-bit-identical keys should land in different slots with high
        # probability once mixed.
        slots = {mix64(i << 40) & 0xFF for i in range(64)}
        assert len(slots) > 32

    def test_invariants_after_removals(self):
        t = ExtendibleHashTable(bucket_capacity=2)
        for k in range(32):
            t[k] = k
        for k in range(0, 32, 2):
            t.remove(k)
        t.check_invariants()
        assert len(t) == 16
        assert sorted(t.keys()) == list(range(1, 32, 2))


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(st.integers(0, 2**40), st.integers()),
        max_size=200,
    ),
    st.integers(1, 8),
)
# mix64 of 2161 and 5058 agree in their low 17 bits: the directory grows to
# 2**18 slots, so every walk linear in slots shows up against the deadline.
@example(pairs=[(0, 0), (2161, 0), (5058, 0)], capacity=1)
def test_table_matches_dict_semantics(pairs, capacity):
    """Extendible hash table behaves exactly like a dict under put/overwrite."""
    t = ExtendibleHashTable(bucket_capacity=capacity)
    ref: dict[int, int] = {}
    for k, v in pairs:
        t.put(k, v)
        ref[k] = v
    assert len(t) == len(ref)
    assert dict(t.items()) == ref
    t.check_invariants()


@settings(max_examples=50)
@given(st.sets(st.integers(0, 2**30), max_size=120), st.integers(1, 4))
def test_insert_then_remove_all(keys, capacity):
    t = ExtendibleHashTable(bucket_capacity=capacity)
    for k in keys:
        t[k] = k
    for k in keys:
        assert t.remove(k) == k
    assert len(t) == 0
    t.check_invariants()
