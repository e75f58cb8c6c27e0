"""Property suite: the columnar BoxArray is equivalent to per-box objects.

Every query the partitioners and the SFC ordering run over the columns must
agree exactly with the same query phrased over ``Box`` objects -- these
properties are the migration contract of the struct-of-arrays refactor.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.errors import GeometryError
from repro.util.geometry import Box, BoxArray, BoxList
from repro.util.sfc import (
    hilbert_encode_many,
    morton_encode_many,
    sfc_keys_array,
    sfc_sort_order,
)

from tests.conftest import bounding_box, boxes, corner_key


def box_lists(min_size: int = 0, max_size: int = 16):
    """Lists of boxes sharing one dimensionality (a BoxArray invariant)."""
    return st.integers(1, 3).flatmap(
        lambda d: st.lists(boxes(ndim=d), min_size=min_size, max_size=max_size)
    )


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(box_lists(min_size=1))
    def test_boxes_to_columns_to_boxes(self, bs):
        arr = BoxArray.from_boxes(bs)
        assert len(arr) == len(bs)
        assert arr.ndim == bs[0].ndim
        assert list(arr.to_boxes()) == bs
        for i, b in enumerate(bs):
            assert arr.box(i) == b
            assert arr.row(i) == (b.lower, b.upper, b.level)

    @settings(max_examples=60, deadline=None)
    @given(box_lists(min_size=1))
    def test_cell_and_level_queries_match_objects(self, bs):
        arr = BoxArray.from_boxes(bs)
        assert arr.num_cells().tolist() == [b.num_cells for b in bs]
        assert arr.total_cells() == sum(b.num_cells for b in bs)
        assert arr.unique_levels().tolist() == sorted({b.level for b in bs})
        by_level: dict[int, int] = {}
        for b in bs:
            by_level[b.level] = by_level.get(b.level, 0) + b.num_cells
        assert arr.cells_by_level() == by_level

    @settings(max_examples=60, deadline=None)
    @given(box_lists(min_size=1), st.data())
    def test_take_matches_object_indexing(self, bs, data):
        arr = BoxArray.from_boxes(bs)
        idx = data.draw(
            st.lists(st.integers(0, len(bs) - 1), max_size=2 * len(bs))
        )
        assert list(arr.take(np.array(idx, dtype=np.intp)).to_boxes()) == [
            bs[i] for i in idx
        ]

    @settings(max_examples=60, deadline=None)
    @given(box_lists(min_size=1), st.data())
    def test_take_matches_fancy_indexing(self, bs, data):
        """Negative, repeated and empty index vectors alike."""
        arr = BoxArray.from_boxes(bs)
        n = len(bs)
        idx = np.array(
            data.draw(st.lists(st.integers(-n, n - 1), max_size=2 * n)),
            dtype=np.intp,
        )
        got = arr.take(idx)
        assert got.lower.shape == (len(idx), arr.ndim)
        assert np.array_equal(got.lower, arr.lower[idx])
        assert np.array_equal(got.upper, arr.upper[idx])
        assert np.array_equal(got.level, arr.level[idx])

    def test_take_out_of_range_raises_like_fancy_indexing(self):
        arr = BoxArray.from_boxes([Box((0,), (1,))])
        for idx in ([1], [-2]):
            with pytest.raises(IndexError):
                arr.lower[np.array(idx)]
            with pytest.raises(IndexError):
                arr.take(idx)

    @settings(max_examples=60, deadline=None)
    @given(box_lists(min_size=1), st.data())
    def test_concatenate_matches_list_concat(self, bs, data):
        cut = data.draw(st.integers(0, len(bs)))
        merged = BoxArray.concatenate(
            [BoxArray.from_boxes(bs[:cut]), BoxArray.from_boxes(bs[cut:])]
        )
        assert list(merged.to_boxes()) == bs

    @settings(max_examples=60, deadline=None)
    @given(box_lists(min_size=1))
    def test_columns_are_frozen(self, bs):
        arr = BoxArray.from_boxes(bs)
        for col in (arr.lower, arr.upper, arr.level):
            with pytest.raises(ValueError):
                col[...] = 0


class TestOrderingEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(box_lists(min_size=1))
    def test_corner_lexsort_matches_sorted_by_corner_key(self, bs):
        arr = BoxArray.from_boxes(bs)
        order = arr.corner_lexsort()
        assert [bs[i] for i in order.tolist()] == sorted(
            bs, key=corner_key
        )

    @settings(max_examples=60, deadline=None)
    @given(box_lists(min_size=1), st.data())
    def test_corner_lexsort_with_primary_matches_object_sort(self, bs, data):
        primary = np.array(
            data.draw(
                st.lists(
                    st.integers(-5, 5),
                    min_size=len(bs),
                    max_size=len(bs),
                )
            ),
            dtype=np.int64,
        )
        arr = BoxArray.from_boxes(bs)
        order = arr.corner_lexsort(primary=primary)
        expected = sorted(
            range(len(bs)),
            key=lambda i: (primary[i], *corner_key(bs[i])),
        )
        assert order.tolist() == expected

    @settings(max_examples=40, deadline=None)
    @given(box_lists(min_size=1, max_size=12), st.sampled_from(["hilbert", "morton"]))
    def test_sfc_keys_match_per_box_promotion(self, bs, curve):
        """Array-sliced keys equal the per-box corner-promotion walk."""
        arr = BoxArray.from_boxes(bs)
        keys = sfc_keys_array(arr, curve=curve)
        max_level = max(b.level for b in bs)
        corners = np.array(
            [
                [c * 2 ** (max_level - b.level) for c in b.lower]
                for b in bs
            ],
            dtype=np.int64,
        )
        bits = max(int(corners.max(initial=0)), 1).bit_length()
        encode = hilbert_encode_many if curve == "hilbert" else morton_encode_many
        assert keys.tolist() == encode(corners, bits).tolist()
        order = sfc_sort_order(arr, curve=curve)
        expected = np.lexsort((arr.level, keys))
        assert order.tolist() == expected.tolist()

    @settings(max_examples=60, deadline=None)
    @given(box_lists())
    def test_is_disjoint_matches_pairwise_objects(self, bs):
        expected = all(
            not a.intersects(b)
            for i, a in enumerate(bs)
            for b in bs[i + 1 :]
            if a.level == b.level
        )
        assert BoxList(bs).is_disjoint() == expected

    def test_is_disjoint_sweep_path_matches_objects(self, rng):
        """Exercise the >32-box sweep-line branch against the O(n^2) walk."""
        for trial in range(5):
            bs = []
            for _ in range(120):
                lo = tuple(int(x) for x in rng.integers(0, 200, size=2))
                side = tuple(int(x) for x in rng.integers(1, 6, size=2))
                lvl = int(rng.integers(0, 3))
                bs.append(
                    Box(lo, tuple(a + b for a, b in zip(lo, side)), lvl)
                )
            expected = all(
                not a.intersects(b)
                for i, a in enumerate(bs)
                for b in bs[i + 1 :]
                if a.level == b.level
            )
            assert BoxList(bs).is_disjoint() == expected

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize(
        "bins_per_box", [0, 10**9], ids=["binary-search", "bin-table"]
    )
    def test_is_disjoint_bucket_lookups_match_objects(
        self, monkeypatch, rng, ndim, bins_per_box
    ):
        """Both bucket lookups of the grid hash agree with the O(n^2) walk.

        A lattice of small boxes is disjoint; one more box dropped at
        random may overlap lattice boxes in any direction from its bin --
        including the diagonal ones only a -1 offset component reaches.
        """
        monkeypatch.setattr(BoxArray, "_DENSE_BINS_PER_BOX", bins_per_box)
        side = {1: 64, 2: 8, 3: 4}[ndim]
        lattice = 4 * np.indices((side,) * ndim).reshape(ndim, -1).T
        verdicts = set()
        for trial in range(80):
            lo = lattice + rng.integers(0, 2, size=lattice.shape)
            up = lo + rng.integers(1, 3, size=lattice.shape)
            if trial % 2:
                extra = rng.integers(0, 4 * side, size=(1, ndim))
                lo = np.vstack([lo, extra])
                up = np.vstack([up, extra + rng.integers(1, 3, size=ndim)])
            bs = [Box(tuple(a), tuple(b)) for a, b in zip(lo.tolist(), up.tolist())]
            expected = all(
                not a.intersects(b) for i, a in enumerate(bs) for b in bs[i + 1 :]
            )
            verdicts.add(expected)
            assert BoxArray.from_boxes(bs).is_disjoint() == expected
        assert verdicts == {True, False}


class TestBoxListViewContract:
    """A BoxList is exactly its BoxArray: Box objects are a view built on
    demand, and every list query agrees with the same query over a
    tuple of boxes."""

    @settings(max_examples=60, deadline=None)
    @given(box_lists(min_size=1))
    def test_lazy_view_equals_object_list(self, bs):
        assert BoxList.__slots__ == ("array",)
        eager = BoxList(bs)
        lazy = BoxList.from_array(BoxArray.from_boxes(bs))
        assert lazy == eager
        assert hash(lazy) == hash(eager)
        assert list(lazy) == bs
        assert [lazy[i] for i in range(len(lazy))] == bs
        assert lazy[1:] == eager[1:]
        assert lazy.total_cells == eager.total_cells
        assert lazy.levels == eager.levels
        assert lazy.cells_by_level() == eager.cells_by_level()
        for level in eager.levels:
            assert lazy.at_level(level) == eager.at_level(level)
            assert list(eager.at_level(level)) == [
                b for b in bs if b.level == level
            ]

    @settings(max_examples=40, deadline=None)
    @given(box_lists(min_size=1), st.data())
    def test_take_preserves_contents_both_paths(self, bs, data):
        idx = data.draw(
            st.lists(st.integers(0, len(bs) - 1), min_size=1, max_size=8)
        )
        idx = idx + idx  # every index at least twice
        eager = BoxList(bs)
        lazy = BoxList.from_array(BoxArray.from_boxes(bs))
        assert eager.take(idx) == lazy.take(idx) == BoxList(bs[i] for i in idx)
        assert list(eager.take(idx)) == [bs[i] for i in idx]

    @settings(max_examples=60, deadline=None)
    @given(
        box_lists(),
        st.integers(-20, 20) | st.none(),
        st.integers(-20, 20) | st.none(),
        st.sampled_from([None, 1, 2, 3, -1, -2, -3]),
    )
    def test_slices_match_tuple_slices(self, bs, start, stop, step):
        lst = BoxList(bs)
        sl = slice(start, stop, step)
        assert list(lst[sl]) == bs[sl]
        assert lst[sl] == BoxList(bs[sl])

    @settings(max_examples=60, deadline=None)
    @given(box_lists())
    def test_integer_indices_match_tuple_indices(self, bs):
        lst = BoxList(bs)
        n = len(bs)
        for i in range(-n, n):
            assert lst[i] == bs[i]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                lst[i]

    @settings(max_examples=60, deadline=None)
    @given(box_lists(min_size=1))
    def test_bounding_box_matches_object_fold(self, bs):
        """Folding a level's boxes with ``Box.bounding_union`` (how
        flagging and regridding frame a level) is the corner min/max."""
        same_level = [Box(b.lower, b.upper, bs[0].level) for b in bs]
        lo = tuple(min(c) for c in zip(*(b.lower for b in same_level)))
        up = tuple(max(c) for c in zip(*(b.upper for b in same_level)))
        assert bounding_box(BoxList(same_level)) == Box(lo, up, bs[0].level)
        if len({b.level for b in bs}) > 1:
            with pytest.raises(GeometryError, match="level mismatch"):
                bounding_box(BoxList(bs))

    @pytest.mark.parametrize("a, b", [(1, 2), (2, 3), (1, 3), (3, 3)])
    def test_empty_lists_of_any_dimensionality_are_equal(self, a, b):
        x = BoxList.from_array(BoxArray.empty(a))
        y = BoxList.from_array(BoxArray.empty(b))
        assert x == y == BoxList()
        assert hash(x) == hash(y) == hash(BoxList())

    def test_same_rows_on_another_level_differ(self):
        a = BoxList([Box((0, 0), (2, 2), 0)])
        assert a != BoxList([Box((0, 0), (2, 2), 1)])
        assert a != BoxList([Box((0, 0, 0), (2, 2, 2), 0)])
