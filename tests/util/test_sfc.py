"""Tests for space-filling curves (Morton + Hilbert)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import itertools

from repro.util.errors import GeometryError
from repro.util.geometry import Box, BoxArray
from repro.util.sfc import (
    hilbert_encode,
    hilbert_encode_many,
    morton_encode,
    morton_encode_many,
    sfc_keys_array,
    sfc_sort_order,
)

from tests.conftest import sfc_ordered


# ---------------------------------------------------------------------------
# Reference decoders: the encoders' inverses, written out, so the tests can
# check that every key maps back to the point it came from.
# ---------------------------------------------------------------------------
def morton_decode(key: int, ndim: int, bits: int) -> tuple[int, ...]:
    """Inverse of ``morton_encode``."""
    if key < 0:
        raise GeometryError(f"negative Morton key {key}")
    coords = [0] * ndim
    for b in range(bits):
        for d in range(ndim):
            coords[d] |= ((key >> (b * ndim + d)) & 1) << b
    return tuple(coords)


def _hilbert_to_transpose(key: int, ndim: int, bits: int) -> list[int]:
    """Spread a Hilbert key into its 'transpose' form: ndim words of `bits`
    bits, where word d holds key bits d, d+ndim, d+2*ndim, ..."""
    x = [0] * ndim
    for b in range(bits * ndim):
        if (key >> b) & 1:
            # Most-significant key bits come first across the words.
            word = (bits * ndim - 1 - b) % ndim
            bit = (bits * ndim - 1 - b) // ndim
            x[word] |= 1 << (bits - 1 - bit)
    return x


def hilbert_decode(key: int, ndim: int, bits: int) -> tuple[int, ...]:
    """Inverse of ``hilbert_encode`` (Skilling, TransposetoAxes)."""
    if key < 0 or key >= (1 << (ndim * bits)):
        raise GeometryError(
            f"Hilbert key {key} out of range for ndim={ndim}, bits={bits}"
        )
    if ndim == 1:
        return (key,)
    x = _hilbert_to_transpose(key, ndim, bits)
    n = 1 << bits
    # Gray decode by H ^ (H/2).
    t = x[ndim - 1] >> 1
    for i in range(ndim - 1, 0, -1):
        x[i] ^= x[i - 1]
    x[0] ^= t
    # Undo excess work (Skilling, TransposetoAxes).
    q = 2
    while q != n:
        p = q - 1
        for i in range(ndim - 1, -1, -1):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q <<= 1
    return tuple(x)



class TestMorton:
    def test_known_2d_values(self):
        # Z-order in 2D: (0,0)=0 (1,0)=1 (0,1)=2 (1,1)=3
        assert morton_encode((0, 0), 1) == 0
        assert morton_encode((1, 0), 1) == 1
        assert morton_encode((0, 1), 1) == 2
        assert morton_encode((1, 1), 1) == 3

    def test_roundtrip_3d(self):
        for coords in [(0, 0, 0), (5, 3, 7), (7, 7, 7), (1, 0, 6)]:
            key = morton_encode(coords, 3)
            assert morton_decode(key, 3, 3) == coords

    def test_out_of_range_rejected(self):
        with pytest.raises(GeometryError):
            morton_encode((8,), 3)
        with pytest.raises(GeometryError):
            morton_encode((-1,), 3)
        with pytest.raises(GeometryError):
            morton_decode(-1, 2, 3)

    def test_bits_bounds(self):
        with pytest.raises(GeometryError):
            morton_encode((0,), 0)
        with pytest.raises(GeometryError):
            morton_encode((0,), 63)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        coords = rng.integers(0, 16, size=(50, 3))
        keys = morton_encode_many(coords, 4)
        for row, key in zip(coords, keys):
            assert morton_encode(tuple(row), 4) == key

    def test_vectorized_capacity_guard(self):
        with pytest.raises(GeometryError):
            morton_encode_many(np.zeros((1, 3), dtype=int), 21)

    def test_vectorized_shape_guard(self):
        with pytest.raises(GeometryError):
            morton_encode_many(np.zeros(5, dtype=int), 4)


class TestHilbert:
    def test_known_2d_order_bits1(self):
        # First-order 2D Hilbert visits (0,0),(0,1),(1,1),(1,0).
        order = sorted(
            [(0, 0), (0, 1), (1, 0), (1, 1)],
            key=lambda c: hilbert_encode(c, 1),
        )
        assert order == [(0, 0), (0, 1), (1, 1), (1, 0)]

    def test_bijective_2d(self):
        bits = 3
        seen = set()
        for x in range(8):
            for y in range(8):
                k = hilbert_encode((x, y), bits)
                assert 0 <= k < 64
                assert hilbert_decode(k, 2, bits) == (x, y)
                seen.add(k)
        assert len(seen) == 64

    def test_bijective_3d(self):
        bits = 2
        seen = set()
        for x in range(4):
            for y in range(4):
                for z in range(4):
                    k = hilbert_encode((x, y, z), bits)
                    assert hilbert_decode(k, 3, bits) == (x, y, z)
                    seen.add(k)
        assert len(seen) == 64

    def test_adjacency_2d(self):
        """Consecutive Hilbert indices are unit-distance neighbours."""
        bits = 4
        pts = [hilbert_decode(k, 2, bits) for k in range(1 << (2 * bits))]
        for a, b in zip(pts, pts[1:]):
            dist = abs(a[0] - b[0]) + abs(a[1] - b[1])
            assert dist == 1

    def test_adjacency_3d(self):
        bits = 2
        pts = [hilbert_decode(k, 3, bits) for k in range(1 << (3 * bits))]
        for a, b in zip(pts, pts[1:]):
            dist = sum(abs(x - y) for x, y in zip(a, b))
            assert dist == 1

    def test_1d_identity(self):
        assert hilbert_encode((5,), 4) == 5
        assert hilbert_decode(5, 1, 4) == (5,)

    def test_decode_out_of_range(self):
        with pytest.raises(GeometryError):
            hilbert_decode(64, 2, 3)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(1)
        coords = rng.integers(0, 32, size=(100, 2))
        keys = hilbert_encode_many(coords, 5)
        for row, key in zip(coords, keys):
            assert hilbert_encode(tuple(row), 5) == key

    def test_vectorized_3d_matches_scalar(self):
        rng = np.random.default_rng(2)
        coords = rng.integers(0, 8, size=(60, 3))
        keys = hilbert_encode_many(coords, 3)
        for row, key in zip(coords, keys):
            assert hilbert_encode(tuple(row), 3) == key


class TestHilbertTableWalk:
    """``hilbert_encode_many`` (the digit-table walk) against the scalar
    Skilling definition ``hilbert_encode``."""

    @staticmethod
    def scalar(coords: np.ndarray, bits: int) -> list[int]:
        return [hilbert_encode(row, bits) for row in coords.tolist()]

    @pytest.mark.parametrize("ndim", [2, 3])
    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_every_coordinate(self, ndim, bits):
        coords = np.array(
            list(itertools.product(range(1 << bits), repeat=ndim))
        )
        got = hilbert_encode_many(coords, bits)
        assert got.dtype == np.int64
        assert got.tolist() == self.scalar(coords, bits)

    @pytest.mark.parametrize(
        "ndim,bits", [(2, 31), (2, 30), (2, 17), (3, 20), (3, 19), (3, 11)]
    )
    def test_random_coordinates_up_to_the_int64_limit(self, ndim, bits):
        rng = np.random.default_rng(bits)
        coords = rng.integers(0, 1 << bits, size=(3000, ndim))
        # Corners of the cube: the widest keys.
        coords[:2] = [[0] * ndim, [(1 << bits) - 1] * ndim]
        assert hilbert_encode_many(coords, bits).tolist() == self.scalar(
            coords, bits
        )

    def test_more_rows_than_one_block(self):
        rng = np.random.default_rng(7)
        coords = rng.integers(0, 1 << 9, size=(40_000, 2))
        got = hilbert_encode_many(coords, 9)
        picks = rng.integers(0, len(coords), size=500)
        assert got[picks].tolist() == self.scalar(coords[picks], 9)

    def test_four_dimensions_row_by_row(self):
        rng = np.random.default_rng(4)
        coords = rng.integers(0, 1 << 5, size=(200, 4))
        assert hilbert_encode_many(coords, 5).tolist() == self.scalar(
            coords, 5
        )

    def test_empty(self):
        empty = np.zeros((0, 3), dtype=int)
        assert hilbert_encode_many(empty, 4).shape == (0,)


class TestSfcSortOrder:
    """One packed sort, or ``np.lexsort`` for wide keys: either way the
    order of ``np.lexsort((level, keys))``."""

    @staticmethod
    def expected(arr: BoxArray) -> list[int]:
        return np.lexsort((arr.level, sfc_keys_array(arr))).tolist()

    def test_co_located_multi_level_boxes(self):
        rng = np.random.default_rng(5)
        corner = rng.integers(0, 16, size=(300, 2)) * 4
        level = rng.integers(0, 3, size=300)
        # Every corner appears at several levels and several times.
        lower = np.concatenate([corner, corner, corner // 2])
        levels = np.concatenate([level, (level + 1) % 3, level])
        arr = BoxArray(lower, lower + 1, levels)
        order = sfc_sort_order(arr)
        assert order.tolist() == self.expected(arr)
        keys = sfc_keys_array(arr)[order]
        assert (np.diff(keys) >= 0).all()

    def test_wide_keys_fall_back_to_lexsort(self):
        # 31-bit promoted corners: 62-bit keys leave no room for level
        # and row bits in one int64.
        far = (1 << 30) - 1
        lower = np.array([[far, 5], [far, 5], [3, far - 1], [0, 0]])
        arr = BoxArray(lower, lower + 1, np.array([1, 0, 1, 0]))
        keys = sfc_keys_array(arr)
        assert int(keys.max()).bit_length() + 1 + 2 > 63
        assert sfc_sort_order(arr).tolist() == self.expected(arr)

    def test_empty(self):
        assert sfc_sort_order(BoxArray.empty(2)).tolist() == []


@settings(max_examples=150)
@given(
    st.integers(1, 3),
    st.integers(1, 6),
    st.data(),
)
def test_hilbert_roundtrip_property(ndim, bits, data):
    coords = tuple(
        data.draw(st.integers(0, (1 << bits) - 1)) for _ in range(ndim)
    )
    key = hilbert_encode(coords, bits)
    assert hilbert_decode(key, ndim, bits) == coords


@settings(max_examples=150)
@given(st.integers(1, 3), st.integers(1, 6), st.data())
def test_morton_roundtrip_property(ndim, bits, data):
    coords = tuple(
        data.draw(st.integers(0, (1 << bits) - 1)) for _ in range(ndim)
    )
    key = morton_encode(coords, bits)
    assert morton_decode(key, ndim, bits) == coords


class TestSfcOrderBoxes:
    def test_empty(self):
        assert len(sfc_ordered([])) == 0

    def test_preserves_membership(self):
        boxes = [
            Box((0, 0), (4, 4), 0),
            Box((8, 8), (12, 12), 0),
            Box((0, 8), (4, 12), 0),
            Box((8, 0), (12, 4), 0),
        ]
        out = sfc_ordered(boxes)
        assert len(out) == len(boxes) and set(out) == set(boxes)

    def test_hilbert_order_is_locality_preserving(self):
        """Adjacent quadrant boxes must be adjacent on the curve."""
        boxes = [
            Box((0, 0), (4, 4), 0),
            Box((4, 0), (8, 4), 0),
            Box((0, 4), (4, 8), 0),
            Box((4, 4), (8, 8), 0),
        ]
        out = list(sfc_ordered(boxes, curve="hilbert"))
        lowers = [b.lower for b in out]
        assert lowers == [(0, 0), (0, 4), (4, 4), (4, 0)]

    def test_multi_level_interleaving(self):
        coarse = Box((0, 0), (8, 8), 0)
        fine = Box((0, 0), (8, 8), 1)  # overlays lower-left quadrant
        out = list(sfc_ordered([fine, coarse]))
        # Same promoted corner: coarse first (lower level tie-break).
        assert out[0].level == 0 and out[1].level == 1

    def test_morton_curve_option(self):
        boxes = [Box((2, 2), (3, 3)), Box((0, 0), (1, 1))]
        out = list(sfc_ordered(boxes, curve="morton"))
        assert out[0].lower == (0, 0)

    def test_unknown_curve_rejected(self):
        with pytest.raises(GeometryError):
            sfc_ordered([Box((0,), (1,))], curve="peano")

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        boxes = [
            Box(tuple(lo), tuple(lo + 1), 0)
            for lo in rng.integers(0, 50, size=(30, 2))
        ]
        a = list(sfc_ordered(boxes))
        b = list(sfc_ordered(boxes))
        assert a == b
