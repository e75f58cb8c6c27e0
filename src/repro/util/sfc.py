"""Space-filling curves: Morton (Z-order) and Hilbert.

GrACE's HDDA derives its hierarchical index space directly from the
application domain using space-filling mappings; index locality on the curve
translates spatial application locality into storage locality.  The default
GrACE partitioner (ACEComposite) also walks the hierarchy in SFC order when it
deals out equal work shares.

Both curves map ``ndim``-dimensional non-negative integer coordinates (each
< 2**bits) to a single integer key, bijectively.  The Hilbert implementation
follows Skilling's transpose algorithm ("Programming the Hilbert curve",
AIP Conf. Proc. 707, 2004), which needs only bit operations and works in any
dimension.

Scalar helpers operate on tuples; the ``*_many`` variants are vectorized over
NumPy coordinate arrays for bulk ordering.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.util.errors import GeometryError
from repro.util.geometry import BoxArray

__all__ = [
    "morton_encode",
    "morton_encode_many",
    "hilbert_encode",
    "hilbert_encode_many",
    "sfc_keys_array",
    "sfc_sort_order",
]


def _check_coords(coords: Sequence[int], bits: int) -> tuple[int, ...]:
    if bits < 1 or bits > 62:
        raise GeometryError(f"bits must be in [1, 62], got {bits}")
    out = []
    for c in coords:
        ci = int(c)
        if ci < 0 or ci >= (1 << bits):
            raise GeometryError(
                f"coordinate {c} out of range [0, 2**{bits}) for SFC encoding"
            )
        out.append(ci)
    if not out:
        raise GeometryError("empty coordinate tuple")
    return tuple(out)


# ---------------------------------------------------------------------------
# Morton (Z-order)
# ---------------------------------------------------------------------------
def morton_encode(coords: Sequence[int], bits: int) -> int:
    """Interleave the bits of ``coords`` into a single Morton key.

    Bit ``b`` of axis ``d`` lands at key bit ``b * ndim + d``.
    """
    cs = _check_coords(coords, bits)
    ndim = len(cs)
    key = 0
    for b in range(bits):
        for d, c in enumerate(cs):
            key |= ((c >> b) & 1) << (b * ndim + d)
    return key


def morton_encode_many(coords: np.ndarray, bits: int) -> np.ndarray:
    """Vectorized Morton encoding.

    Parameters
    ----------
    coords:
        Integer array of shape ``(n, ndim)``.
    bits:
        Bits per axis; ``bits * ndim`` must be <= 62 so keys fit in int64.
    """
    coords = np.asarray(coords)
    if coords.ndim != 2:
        raise GeometryError("coords must have shape (n, ndim)")
    n, ndim = coords.shape
    if bits * ndim > 62:
        raise GeometryError(f"bits*ndim = {bits * ndim} exceeds int64 capacity")
    if n and (coords.min() < 0 or coords.max() >= (1 << bits)):
        raise GeometryError("coordinates out of range for the requested bits")
    keys = np.zeros(n, dtype=np.int64)
    c = coords.astype(np.int64)
    for b in range(bits):
        for d in range(ndim):
            keys |= ((c[:, d] >> b) & 1) << (b * ndim + d)
    return keys


# ---------------------------------------------------------------------------
# Hilbert (Skilling's transpose algorithm)
# ---------------------------------------------------------------------------
def _transpose_to_hilbert(x: Sequence[int], ndim: int, bits: int) -> int:
    key = 0
    for word in range(ndim):
        for bit in range(bits):
            if (x[word] >> (bits - 1 - bit)) & 1:
                b = bits * ndim - 1 - (bit * ndim + word)
                key |= 1 << b
    return key


def hilbert_encode(coords: Sequence[int], bits: int) -> int:
    """Map coordinates to their index along the Hilbert curve."""
    cs = list(_check_coords(coords, bits))
    ndim = len(cs)
    if ndim == 1:
        return cs[0]
    x = cs[:]
    m = 1 << (bits - 1)
    # Inverse undo excess work (Skilling, AxestoTranspose).
    q = m
    while q > 1:
        p = q - 1
        for i in range(ndim):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q >>= 1
    # Gray encode.
    for i in range(1, ndim):
        x[i] ^= x[i - 1]
    t = 0
    q = m
    while q > 1:
        if x[ndim - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(ndim):
        x[i] ^= t
    return _transpose_to_hilbert(x, ndim, bits)


def hilbert_encode_many(coords: np.ndarray, bits: int) -> np.ndarray:
    """Vectorized Hilbert encoding of an ``(n, ndim)`` coordinate array."""
    coords = np.asarray(coords)
    if coords.ndim != 2:
        raise GeometryError("coords must have shape (n, ndim)")
    n, ndim = coords.shape
    if ndim == 1:
        return coords[:, 0].astype(np.int64)
    if bits * ndim > 62:
        raise GeometryError(f"bits*ndim = {bits * ndim} exceeds int64 capacity")
    if n and (coords.min() < 0 or coords.max() >= (1 << bits)):
        raise GeometryError("coordinates out of range for the requested bits")
    out = np.empty(n, dtype=np.int64)
    # Process in cache-sized blocks: the bit walk is ~16 sequential
    # passes over its arrays, so keeping each block's temporaries
    # resident in cache beats streaming the full columns from memory.
    block = 1 << 16
    for b0 in range(0, max(n, 1), block):
        x = coords[b0 : b0 + block].T.astype(np.int64).copy()
        # Branchless Skilling walk: ``sel`` is an all-ones mask where the
        # pivot bit is set, so both sides of the per-bit conditional
        # reduce to pure integer ops on whole columns (no bool temps, no
        # where).  Word 0's else-branch is a no-op (``x0 ^ x0``), so it
        # only needs the bit-set side.
        shift = bits - 1
        while shift > 0:
            q = np.int64(1) << shift
            p = q - 1
            x[0] ^= p & -((x[0] & q) >> shift)
            for i in range(1, ndim):
                sel = -((x[i] & q) >> shift)
                t = (x[0] ^ x[i]) & p & ~sel
                x[0] ^= (p & sel) ^ t
                x[i] ^= t
            shift -= 1
        for i in range(1, ndim):
            x[i] ^= x[i - 1]
        # t has bit j set iff an odd number of bits above j are set in
        # the last word: a suffix-parity, computed by the doubling
        # prefix-xor ladder instead of a per-bit loop.
        g = x[ndim - 1].copy()
        for s in (1, 2, 4, 8, 16, 32):
            g ^= g >> s
        x ^= g >> 1
        out[b0 : b0 + block] = _interleave_msb_first(x, bits)
    return out


def _interleave_msb_first(x: np.ndarray, bits: int) -> np.ndarray:
    """Transpose words -> keys: MSB-first bit interleave across words.

    The 2-D case spreads bits with the classic magic-number doubling
    ladder (bit ``k`` of a word lands at position ``2k``), replacing the
    ``bits * ndim`` single-bit passes of the generic loop with ten
    whole-array ops.
    """
    ndim, n = x.shape
    if ndim == 2 and bits <= 31:

        def spread(v: np.ndarray) -> np.ndarray:
            v = (v | (v << 16)) & np.int64(0x0000FFFF0000FFFF)
            v = (v | (v << 8)) & np.int64(0x00FF00FF00FF00FF)
            v = (v | (v << 4)) & np.int64(0x0F0F0F0F0F0F0F0F)
            v = (v | (v << 2)) & np.int64(0x3333333333333333)
            return (v | (v << 1)) & np.int64(0x5555555555555555)

        return (spread(x[0]) << 1) | spread(x[1])
    keys = np.zeros(n, dtype=np.int64)
    for word in range(ndim):
        for bit in range(bits):
            b = bits * ndim - 1 - (bit * ndim + word)
            keys |= ((x[word] >> (bits - 1 - bit)) & 1) << b
    return keys


# ---------------------------------------------------------------------------
# Box ordering
# ---------------------------------------------------------------------------
def _required_bits(max_coord: int) -> int:
    bits = 1
    while (1 << bits) <= max_coord:
        bits += 1
    return bits


def sfc_keys_array(
    arr: BoxArray,
    curve: str = "hilbert",
    refine_factor: int = 2,
) -> np.ndarray:
    """SFC key of every box's lower corner, computed over whole columns.

    Corners are promoted to the index space of the finest level present
    (multiplying by ``refine_factor`` per level difference) so boxes from
    different levels interleave along one common curve.  Returns an
    ``(n,)`` int64 key array aligned with the rows of ``arr``.
    """
    n = len(arr)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    ndim = arr.ndim
    max_level = int(arr.level.max())
    scale = np.power(
        np.int64(refine_factor), (max_level - arr.level).astype(np.int64)
    )
    corners = arr.lower * scale[:, None]
    max_coord = int(corners.max(initial=0))
    bits = _required_bits(max(max_coord, 1))
    if bits * ndim > 62:
        raise GeometryError(
            f"domain too large for int64 SFC keys (bits={bits}, ndim={ndim})"
        )
    if curve == "hilbert":
        return hilbert_encode_many(corners, bits)
    if curve == "morton":
        return morton_encode_many(corners, bits)
    raise GeometryError(f"unknown curve {curve!r}; use 'hilbert' or 'morton'")


def sfc_sort_order(
    arr: BoxArray,
    curve: str = "hilbert",
    refine_factor: int = 2,
) -> np.ndarray:
    """Positional indices ordering ``arr`` along the space-filling curve.

    Stable tie-break on level so co-located multi-level boxes order
    deterministically coarse-to-fine (``np.lexsort`` is stable, matching
    the object path's ``sorted`` exactly).
    """
    keys = sfc_keys_array(arr, curve=curve, refine_factor=refine_factor)
    return np.lexsort((arr.level, keys))
