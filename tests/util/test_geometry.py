"""Unit and property tests for Box / BoxList geometry."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.errors import GeometryError
from repro.util.geometry import Box, BoxArray, BoxList
from tests.conftest import boxes


class TestBoxConstruction:
    def test_basic_shape_and_cells(self):
        b = Box((0, 0, 0), (4, 2, 8))
        assert b.shape == (4, 2, 8)
        assert b.num_cells == 64
        assert b.ndim == 3
        assert b.level == 0

    def test_negative_coordinates_allowed(self):
        b = Box((-4, -2), (0, 2))
        assert b.shape == (4, 4)

    def test_empty_box_rejected(self):
        with pytest.raises(GeometryError):
            Box((0, 0), (0, 4))

    def test_inverted_box_rejected(self):
        with pytest.raises(GeometryError):
            Box((5,), (2,))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(GeometryError):
            Box((0, 0), (4,))

    def test_zero_dim_rejected(self):
        with pytest.raises(GeometryError):
            Box((), ())

    def test_negative_level_rejected(self):
        with pytest.raises(GeometryError):
            Box((0,), (1,), level=-1)

    def test_non_integral_coordinate_rejected(self):
        with pytest.raises(GeometryError):
            Box((0.5, 0), (4, 4))

    def test_numpy_ints_coerced(self):
        import numpy as np

        b = Box(np.array([0, 0]), np.array([4, 4]))
        assert b.lower == (0, 0)
        assert isinstance(b.lower[0], int)

    def test_immutability(self):
        b = Box((0,), (4,))
        with pytest.raises(AttributeError):
            b.level = 3  # type: ignore[misc]

    def test_equality_and_hash(self):
        a = Box((0, 0), (4, 4), 1)
        b = Box((0, 0), (4, 4), 1)
        c = Box((0, 0), (4, 4), 2)
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestBoxMeasures:
    def test_contains_point(self):
        b = Box((0, 0), (4, 4))
        assert (0, 0) in b
        assert (3, 3) in b
        assert (4, 0) not in b
        assert (0,) not in b  # wrong arity


class TestBoxSetOps:
    def test_intersection_overlap(self):
        a = Box((0, 0), (4, 4))
        b = Box((2, 2), (6, 6))
        i = a.intersection(b)
        assert i == Box((2, 2), (4, 4))

    def test_intersection_disjoint(self):
        a = Box((0, 0), (4, 4))
        b = Box((4, 0), (8, 4))  # touching faces share no cell
        assert a.intersection(b) is None
        assert not a.intersects(b)

    def test_level_mismatch_raises(self):
        a = Box((0,), (4,), 0)
        b = Box((0,), (4,), 1)
        with pytest.raises(GeometryError):
            a.intersection(b)

    def test_contains_box(self):
        outer = Box((0, 0), (10, 10))
        inner = Box((2, 2), (5, 5))
        assert outer.contains_box(inner)
        assert not inner.contains_box(outer)

    def test_bounding_union(self):
        a = Box((0, 0), (2, 2))
        b = Box((5, 5), (6, 7))
        u = a.bounding_union(b)
        assert u == Box((0, 0), (6, 7))

    def test_difference_disjoint_returns_self(self):
        a = Box((0, 0), (2, 2))
        b = Box((10, 10), (12, 12))
        d = a.difference(b)
        assert len(d) == 1 and d[0] == a

    def test_difference_covers_exactly(self):
        a = Box((0, 0), (6, 6))
        b = Box((2, 2), (4, 4))
        d = a.difference(b)
        assert d.is_disjoint()
        assert d.total_cells == a.num_cells - b.num_cells
        for piece in d:
            assert a.contains_box(piece)
            assert piece.intersection(b) is None

    def test_difference_full_overlap_is_empty(self):
        a = Box((1, 1), (3, 3))
        cover = Box((0, 0), (4, 4))
        assert len(a.difference(cover)) == 0


class TestBoxSplit:
    def test_split_partitions_cells(self):
        b = Box((0, 0), (10, 4))
        lo, hi = b.split(0, 3)
        assert lo.num_cells + hi.num_cells == b.num_cells
        assert lo.intersection(hi) is None
        assert lo.bounding_union(hi) == b

    def test_split_bad_axis(self):
        with pytest.raises(GeometryError):
            Box((0,), (4,)).split(1, 2)

    def test_split_at_boundary_rejected(self):
        b = Box((0,), (4,))
        with pytest.raises(GeometryError):
            b.split(0, 0)
        with pytest.raises(GeometryError):
            b.split(0, 4)

class TestBoxLevelOps:
    def test_refine_roundtrip(self):
        b = Box((1, 2), (3, 5), level=0)
        r = b.refine(2)
        assert r == Box((2, 4), (6, 10), level=1)
        assert r.coarsen(2) == b

    def test_coarsen_rounds_outward(self):
        b = Box((1,), (3,), level=1)
        c = b.coarsen(2)
        assert c == Box((0,), (2,), level=0)

    def test_coarsen_level0_rejected(self):
        with pytest.raises(GeometryError):
            Box((0,), (2,), level=0).coarsen()

    def test_refine_factor_below_two_rejected(self):
        with pytest.raises(GeometryError):
            Box((0,), (2,)).refine(1)

    def test_grow_and_shrink(self):
        b = Box((2, 2), (4, 4))
        g = b.grow(1)
        assert g == Box((1, 1), (5, 5))
        assert g.grow(-1) == b

    def test_grow_to_empty_rejected(self):
        with pytest.raises(GeometryError):
            Box((0, 0), (2, 2)).grow(-1)

    def test_slices_local_and_global(self):
        b = Box((2, 4), (5, 6))
        assert b.slices() == (slice(0, 3), slice(0, 2))
        assert b.slices(origin=(0, 0)) == (slice(2, 5), slice(4, 6))

class TestBoxList:
    def test_total_cells_and_levels(self):
        bl = BoxList([Box((0,), (4,), 0), Box((0,), (8,), 1)])
        assert bl.total_cells == 12
        assert bl.levels == (0, 1)
        assert bl.at_level(1).total_cells == 8

    def test_empty(self):
        bl = BoxList()
        assert len(bl) == 0
        assert bl.total_cells == 0
        assert bl.is_disjoint()
        with pytest.raises(GeometryError):
            bl.bounding_box()

    def test_mixed_ndim_rejected(self):
        with pytest.raises(GeometryError):
            BoxList([Box((0,), (4,)), Box((0, 0), (4, 4))])

    def test_non_box_rejected(self):
        with pytest.raises(GeometryError):
            BoxList(["not a box"])  # type: ignore[list-item]

    @pytest.mark.parametrize("build", [BoxList, BoxArray.from_boxes])
    def test_lowering_names_the_bad_input(self, build):
        # One validation site: the columns refuse what the list refuses,
        # with the same message instead of a bare numpy shape error.
        with pytest.raises(GeometryError, match="mixed dimensionality"):
            build([Box((0, 0), (1, 1)), Box((0, 0, 0), (1, 1, 1))])
        with pytest.raises(GeometryError, match="items must be Box"):
            build([Box((0, 0), (1, 1)), "x"])  # type: ignore[list-item]

    def test_is_disjoint_cross_level_ok(self):
        # Same footprint on different levels is fine.
        bl = BoxList([Box((0,), (4,), 0), Box((0,), (4,), 1)])
        assert bl.is_disjoint()

    def test_is_disjoint_detects_overlap(self):
        bl = BoxList([Box((0,), (4,)), Box((3,), (6,))])
        assert not bl.is_disjoint()

    def test_slicing_returns_boxlist(self):
        bl = BoxList([Box((i,), (i + 1,)) for i in range(5)])
        assert isinstance(bl[1:3], BoxList)
        assert len(bl[1:3]) == 2


class TestDisjointMemo:
    """``BoxArray.is_disjoint`` is computed once per (frozen) array; only a
    ``True`` verdict travels, and only through row-distinct selections."""

    @staticmethod
    def spy(monkeypatch) -> list:
        calls = []
        real = BoxArray._is_disjoint

        def counted(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(BoxArray, "_is_disjoint", counted)
        return calls

    @staticmethod
    def two_levels(overlap: bool) -> BoxArray:
        return BoxList(
            [
                Box((0, 0), (4, 4), 0),
                Box((3, 0) if overlap else (4, 0), (8, 4), 0),
                Box((0, 0), (2, 2), 1),
            ]
        ).array

    def test_runs_once_per_array(self, monkeypatch):
        calls = self.spy(monkeypatch)
        for overlap in (False, True):
            arr = self.two_levels(overlap)
            assert [arr.is_disjoint() for _ in range(3)] == [not overlap] * 3
        assert len(calls) == 2

    def test_at_level_inherits_only_true(self, monkeypatch):
        calls = self.spy(monkeypatch)
        good = self.two_levels(overlap=False)
        assert good.is_disjoint()
        assert good.at_level(0).is_disjoint()
        assert len(calls) == 1
        bad = self.two_levels(overlap=True)
        assert not bad.is_disjoint()
        assert bad.at_level(1).is_disjoint()  # recomputed, not inherited
        assert not bad.at_level(0).is_disjoint()
        assert len(calls) == 4

    def test_unknown_verdict_is_not_inherited(self):
        arr = self.two_levels(overlap=True)
        assert arr.at_level(0)._disjoint is None
        assert not arr.at_level(0).is_disjoint()

    def test_take_never_inherits(self):
        arr = BoxList([Box((0,), (4,)), Box((4,), (8,))]).array
        assert arr.is_disjoint()
        dup = arr.take([0, 0])
        assert dup._disjoint is None
        assert not dup.is_disjoint()

    def test_boxlist_delegates_to_the_memo(self, monkeypatch):
        calls = self.spy(monkeypatch)
        for bl in (
            BoxList([Box((0,), (4,), 0), Box((4,), (8,), 0)]),
            BoxList.from_array(self.two_levels(overlap=False)),
        ):
            assert bl.is_disjoint() and bl.is_disjoint()
            assert bl.array._disjoint is True
            assert bl.at_level(0).is_disjoint()
        assert len(calls) == 2


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------
@settings(max_examples=200)
@given(boxes(), st.data())
def test_split_conserves_cells_any_position(b: Box, data):
    axis = data.draw(st.integers(0, b.ndim - 1))
    if b.shape[axis] < 2:
        return
    pos = data.draw(st.integers(b.lower[axis] + 1, b.upper[axis] - 1))
    lo, hi = b.split(axis, pos)
    assert lo.num_cells + hi.num_cells == b.num_cells
    assert lo.bounding_union(hi) == b


@settings(max_examples=200)
@given(boxes(ndim=2), boxes(ndim=2))
def test_intersection_symmetric_and_contained(a: Box, b: Box):
    b = Box(b.lower, b.upper, a.level)  # force level compatibility
    iab = a.intersection(b)
    iba = b.intersection(a)
    assert iab == iba
    if iab is not None:
        assert a.contains_box(iab) and b.contains_box(iab)
        assert iab.num_cells <= min(a.num_cells, b.num_cells)


@settings(max_examples=200)
@given(boxes(ndim=3), boxes(ndim=3))
def test_difference_partition_property(a: Box, b: Box):
    b = Box(b.lower, b.upper, a.level)
    diff = a.difference(b)
    inter = a.intersection(b)
    inter_cells = inter.num_cells if inter else 0
    assert diff.total_cells == a.num_cells - inter_cells
    assert diff.is_disjoint()
    for piece in diff:
        assert a.contains_box(piece)
        if inter:
            assert piece.intersection(inter) is None


@settings(max_examples=200)
@given(boxes(), st.integers(2, 4))
def test_refine_coarsen_roundtrip(b: Box, factor: int):
    assert b.refine(factor).coarsen(factor) == b
    assert b.refine(factor).num_cells == b.num_cells * factor**b.ndim


@settings(max_examples=100)
@given(boxes(), st.integers(2, 4))
def test_coarsen_refine_covers(b: Box, factor: int):
    """Coarsening then refining yields a (possibly larger) cover of b."""
    if b.level == 0:
        return
    cover = b.coarsen(factor).refine(factor)
    cover = Box(cover.lower, cover.upper, b.level)
    assert cover.contains_box(b)
