"""Tests for the hierarchical index space."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdda.index import HierarchicalIndexSpace
from repro.util.errors import HDDAError
from repro.util.geometry import Box, BoxList


@pytest.fixture
def space2d() -> HierarchicalIndexSpace:
    return HierarchicalIndexSpace(Box((0, 0), (16, 16)), max_levels=3)


class TestConstruction:
    def test_domain_must_be_level0_at_origin(self):
        with pytest.raises(HDDAError):
            HierarchicalIndexSpace(Box((0, 0), (8, 8), level=1))
        with pytest.raises(HDDAError):
            HierarchicalIndexSpace(Box((2, 0), (8, 8)))

    def test_bad_params_rejected(self):
        dom = Box((0, 0), (8, 8))
        with pytest.raises(HDDAError):
            HierarchicalIndexSpace(dom, max_levels=0)
        with pytest.raises(HDDAError):
            HierarchicalIndexSpace(dom, refine_factor=1)
        with pytest.raises(HDDAError):
            HierarchicalIndexSpace(dom, curve="peano")

    def test_capacity_guard(self):
        # 3D with enormous refinement depth must refuse 62-bit overflow.
        with pytest.raises(HDDAError):
            HierarchicalIndexSpace(
                Box((0, 0, 0), (1024, 1024, 1024)), max_levels=12
            )

    def test_bits_cover_finest_level(self, space2d):
        # 16 cells at level 0, x4 at level 2 -> 64 cells -> 6 bits.
        assert space2d.bits_per_axis == 6


class TestKeys:
    def test_distinct_keys_per_level(self, space2d):
        k0 = space2d.key_for_point((3, 3), 0)
        k1 = space2d.key_for_point((6, 6), 1)  # same physical location
        k2 = space2d.key_for_point((12, 12), 2)
        assert len({k0, k1, k2}) == 3
        assert space2d.level_of_key(k0) == 0
        assert space2d.level_of_key(k1) == 1
        assert space2d.level_of_key(k2) == 2

    def test_colocated_levels_are_curve_adjacent(self, space2d):
        """Same physical point on different levels differs only in level bits."""
        k0 = space2d.key_for_point((3, 3), 0)
        k1 = space2d.key_for_point((6, 6), 1)
        assert k0 >> 2 == k1 >> 2  # level_bits == 2 for 3 levels

    def test_key_for_box_uses_lower_corner(self, space2d):
        b = Box((4, 4), (8, 8), 0)
        assert space2d.key_for_box(b) == space2d.key_for_point((4, 4), 0)

    def test_invalid_level_rejected(self, space2d):
        with pytest.raises(HDDAError):
            space2d.key_for_point((0, 0), 3)
        with pytest.raises(HDDAError):
            space2d.key_for_box(Box((0, 0), (2, 2), level=5))

    def test_out_of_domain_point_rejected(self, space2d):
        with pytest.raises(HDDAError):
            space2d.key_for_point((-1, 0), 0)

    def test_level_of_key_guards(self, space2d):
        with pytest.raises(HDDAError):
            space2d.level_of_key(-1)
        with pytest.raises(HDDAError):
            space2d.level_of_key(3)  # level bits say 3, invalid

    def test_keys_unique_over_small_domain(self):
        space = HierarchicalIndexSpace(Box((0, 0), (4, 4)), max_levels=2)
        keys = set()
        for level, extent in ((0, 4), (1, 8)):
            for x in range(extent):
                for y in range(extent):
                    keys.add(space.key_for_point((x, y), level))
        assert len(keys) == 4 * 4 + 8 * 8


class TestBatchKeys:
    @settings(max_examples=60, deadline=None)
    @given(
        ndim=st.integers(1, 3),
        curve=st.sampled_from(["hilbert", "morton"]),
        refine_factor=st.sampled_from([2, 4]),
        data=st.data(),
    )
    def test_keys_for_boxes_matches_scalar(self, ndim, curve, refine_factor, data):
        space = HierarchicalIndexSpace(
            Box((0,) * ndim, (16,) * ndim),
            max_levels=3,
            refine_factor=refine_factor,
            curve=curve,
        )
        corner = st.tuples(
            st.integers(0, 2), *[st.integers(0, 15) for _ in range(ndim)]
        )
        boxes = BoxList(
            Box(
                tuple(c * refine_factor**lvl for c in lo),
                tuple(c * refine_factor**lvl + 1 for c in lo),
                lvl,
            )
            for lvl, *lo in data.draw(st.lists(corner, max_size=12))
        )
        keys = space.keys_for_boxes(boxes)
        assert keys == [space.key_for_box(b) for b in boxes]
        assert all(type(k) is int for k in keys)

    def test_first_unaddressable_box_raises_the_scalar_error(self, space2d):
        fine = Box((0, 0), (2, 2))
        for bad in (Box((0, 0), (2, 2), level=5), Box((-1, 0), (2, 2))):
            with pytest.raises(HDDAError) as scalar:
                space2d.key_for_box(bad)
            with pytest.raises(HDDAError) as batch:
                space2d.keys_for_boxes(BoxList([fine, bad, fine]))
            assert str(batch.value) == str(scalar.value)


class TestOrdering:
    def test_order_boxes_locality(self, space2d):
        quads = [
            Box((8, 8), (16, 16)),
            Box((0, 0), (8, 8)),
            Box((8, 0), (16, 8)),
            Box((0, 8), (8, 16)),
        ]
        ordered = list(space2d.order_boxes(quads))
        lowers = [b.lower for b in ordered]
        assert lowers == [(0, 0), (0, 8), (8, 8), (8, 0)]  # Hilbert tour

    def test_span_for_boxes(self, space2d):
        boxes = [Box((0, 0), (4, 4)), Box((8, 8), (12, 12))]
        lo, hi = space2d.span_for_boxes(boxes)
        assert lo == space2d.key_for_box(boxes[0])
        assert hi == space2d.key_for_box(boxes[1])
        assert lo < hi

    def test_span_empty_rejected(self, space2d):
        with pytest.raises(HDDAError):
            space2d.span_for_boxes([])

    def test_morton_space(self):
        space = HierarchicalIndexSpace(
            Box((0, 0), (8, 8)), max_levels=1, curve="morton"
        )
        assert space.key_for_point((0, 0), 0) == 0
