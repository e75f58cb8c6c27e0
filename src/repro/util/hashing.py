"""Extendible hashing (Fagin et al., ACM TODS 1979).

The GrACE HDDA uses extendible hashing as its distributed dynamic storage and
access mechanism: SFC-derived index keys are hashed into buckets, the bucket
directory doubles on demand, and individual buckets split locally without
rehashing the whole table.  That property -- incremental growth with no global
reorganisation -- is what makes it suitable for a grid hierarchy that grows
and shrinks at every regrid.

:class:`ExtendibleHashTable` is a faithful in-memory implementation: a
directory of ``2**global_depth`` bucket pointers, each bucket carrying a
``local_depth`` and at most ``bucket_capacity`` entries.  Keys are
non-negative integers (SFC indices); values are arbitrary.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterator

import numpy as np

from repro.util.errors import HDDAError

__all__ = ["Bucket", "ExtendibleHashTable", "checksum_bytes", "mix64"]

_MASK64 = (1 << 64) - 1


def mix64(key: int) -> int:
    """SplitMix64 finalizer: a cheap, high-quality 64-bit bit mixer.

    Extendible hashing takes directory bits from a *hash* of the key, not the
    key itself (Fagin et al. use a pseudo-random hash function); without this,
    two keys that agree in many low-order bits would force the directory to
    double once per agreeing bit, i.e. exponential memory for O(1) items.
    """
    z = (key + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def checksum_bytes(data: bytes, seed: int = 0) -> int:
    """64-bit content checksum built from :func:`mix64`.

    The payload is read as little-endian 64-bit words (zero-padded tail),
    each word is salted with its position and pushed through the same
    SplitMix64 finalizer the HDDA hashes with (vectorized over numpy
    ``uint64``, so MB-scale checkpoint payloads hash at memory speed), and
    the mixed words are XOR-folded with the length and seed.  Position
    salting means swapped blocks change the sum, unlike a plain XOR.  Not
    cryptographic -- it detects corruption and truncation, which is what a
    checkpoint integrity check needs.
    """
    n = len(data)
    acc = 0
    if n:
        pad = (-n) % 8
        words = np.frombuffer(
            data + b"\x00" * pad if pad else data, dtype="<u8"
        ).astype(np.uint64)
        words ^= np.arange(len(words), dtype=np.uint64) * np.uint64(
            0x9E3779B97F4A7C15
        )
        # SplitMix64 finalizer, elementwise (wrapping uint64 arithmetic).
        words += np.uint64(0x9E3779B97F4A7C15)
        words = (words ^ (words >> np.uint64(30))) * np.uint64(
            0xBF58476D1CE4E5B9
        )
        words = (words ^ (words >> np.uint64(27))) * np.uint64(
            0x94D049BB133111EB
        )
        words ^= words >> np.uint64(31)
        acc = int(np.bitwise_xor.reduce(words))
    return mix64(acc ^ mix64(seed ^ n))


class Bucket:
    """A storage bucket: bounded dict plus the local depth that tells the
    directory how many low-order key bits this bucket discriminates."""

    __slots__ = ("local_depth", "items", "capacity")

    def __init__(self, local_depth: int, capacity: int):
        self.local_depth = local_depth
        self.capacity = capacity
        self.items: dict[int, Any] = {}

    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Bucket(depth={self.local_depth}, n={len(self.items)})"


class ExtendibleHashTable:
    """Dynamically growing hash table with directory doubling and bucket splits.

    Parameters
    ----------
    bucket_capacity:
        Maximum entries per bucket before it splits.
    max_global_depth:
        Safety bound on directory doubling (the directory has
        ``2**global_depth`` slots).

    Notes
    -----
    The low ``global_depth`` bits of ``mix64(key)`` select the directory
    slot, following Fagin's use of a pseudo-random hash: mixing guarantees
    that directory depth grows with table *size*, never with accidental
    bit-pattern collisions between keys.
    """

    def __init__(self, bucket_capacity: int = 8, max_global_depth: int = 24):
        if bucket_capacity < 1:
            raise HDDAError(f"bucket_capacity must be >= 1, got {bucket_capacity}")
        self.bucket_capacity = bucket_capacity
        self.max_global_depth = max_global_depth
        self.global_depth = 1
        b0 = Bucket(1, bucket_capacity)
        b1 = Bucket(1, bucket_capacity)
        self._directory: list[Bucket] = [b0, b1]
        self._size = 0

    # ------------------------------------------------------------------
    def _slot(self, key: int) -> int:
        return mix64(key) & ((1 << self.global_depth) - 1)

    def _bucket_for(self, key: int) -> Bucket:
        return self._directory[self._slot(key)]

    @staticmethod
    def _check_key(key: int) -> int:
        k = int(key)
        if k < 0:
            raise HDDAError(f"keys must be non-negative integers, got {key!r}")
        return k

    # ------------------------------------------------------------------
    def put(self, key: int, value: Any) -> None:
        """Insert or overwrite ``key``; splits buckets / doubles the directory
        as needed."""
        key = self._check_key(key)
        while True:
            bucket = self._bucket_for(key)
            if key in bucket.items:
                bucket.items[key] = value
                return
            if not bucket.is_full():
                bucket.items[key] = value
                self._size += 1
                return
            self._split(bucket)

    def get(self, key: int, default: Any = None) -> Any:
        key = self._check_key(key)
        return self._bucket_for(key).items.get(key, default)

    def __contains__(self, key: int) -> bool:
        key = self._check_key(key)
        return key in self._bucket_for(key).items

    def __getitem__(self, key: int) -> Any:
        key = self._check_key(key)
        bucket = self._bucket_for(key)
        if key not in bucket.items:
            raise KeyError(key)
        return bucket.items[key]

    def __setitem__(self, key: int, value: Any) -> None:
        self.put(key, value)

    def remove(self, key: int) -> Any:
        """Delete ``key`` and return its value; raises ``KeyError`` if absent.

        Buckets are not merged on deletion (Fagin leaves coalescing optional;
        GrACE relies on regrid-time rebuilds instead).
        """
        key = self._check_key(key)
        bucket = self._bucket_for(key)
        if key not in bucket.items:
            raise KeyError(key)
        self._size -= 1
        return bucket.items.pop(key)

    def __len__(self) -> int:
        return self._size

    def _buckets(self) -> list[Bucket]:
        """Each distinct bucket once, in directory order (``Bucket`` hashes
        by identity, so ``dict.fromkeys`` drops the repeated pointers)."""
        return list(dict.fromkeys(self._directory))

    def keys(self) -> Iterator[int]:
        for bucket in self._buckets():
            yield from bucket.items.keys()

    def items(self) -> Iterator[tuple[int, Any]]:
        for bucket in self._buckets():
            yield from bucket.items.items()

    # ------------------------------------------------------------------
    def _split(self, bucket: Bucket) -> None:
        """Split a full bucket; double the directory first when the bucket is
        already at global depth."""
        if bucket.local_depth == self.global_depth:
            if self.global_depth >= self.max_global_depth:
                raise HDDAError(
                    "directory growth exceeded max_global_depth="
                    f"{self.max_global_depth}; all {self.bucket_capacity} "
                    "slots of a bucket collide on every discriminating bit"
                )
            self._directory = self._directory + self._directory
            self.global_depth += 1

        new_depth = bucket.local_depth + 1
        mask_bit = 1 << bucket.local_depth
        zero = Bucket(new_depth, self.bucket_capacity)
        one = Bucket(new_depth, self.bucket_capacity)
        for k, v in bucket.items.items():
            (one if mix64(k) & mask_bit else zero).items[k] = v
        # The bucket owns exactly the slots that share its low local_depth
        # bits (read off any key it holds): every mask_bit-th slot from
        # those bits up.
        low = mix64(next(iter(bucket.items))) & (mask_bit - 1)
        for slot in range(low, len(self._directory), mask_bit):
            self._directory[slot] = one if slot & mask_bit else zero

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, float]:
        """Occupancy statistics (used by HDDA diagnostics and tests)."""
        buckets = self._buckets()
        sizes = [len(b.items) for b in buckets]
        return {
            "global_depth": self.global_depth,
            "directory_slots": len(self._directory),
            "num_buckets": len(buckets),
            "num_items": self._size,
            "max_bucket_fill": max(sizes) if sizes else 0,
            "mean_bucket_fill": (sum(sizes) / len(sizes)) if sizes else 0.0,
        }

    def check_invariants(self) -> None:
        """Raise :class:`HDDAError` when a structural invariant is violated.

        Invariants checked: directory size is ``2**global_depth``; every
        bucket's ``local_depth <= global_depth``; each bucket is referenced by
        exactly ``2**(global_depth - local_depth)`` slots; every key lives in
        the bucket its low bits select.
        """
        if len(self._directory) != (1 << self.global_depth):
            raise HDDAError("directory size != 2**global_depth")
        buckets = self._buckets()
        for bucket in buckets:
            if bucket.local_depth > self.global_depth:
                raise HDDAError("bucket local_depth exceeds global_depth")
            for k in bucket.items:
                if self._directory[self._slot(k)] is not bucket:
                    raise HDDAError(f"key {k} stored in the wrong bucket")
        refs = Counter(self._directory)
        for bucket in buckets:
            expect = 1 << (self.global_depth - bucket.local_depth)
            if refs[bucket] != expect:
                raise HDDAError(
                    f"bucket with local_depth={bucket.local_depth} referenced "
                    f"{refs[bucket]} times, expected {expect}"
                )
