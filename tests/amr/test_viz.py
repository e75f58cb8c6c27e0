"""Tests for the text hierarchy renderer."""

from __future__ import annotations

import pytest

from repro.amr.viz import render_levels, render_owners
from repro.util.errors import GeometryError
from repro.util.geometry import Box, BoxList, Layout


class TestRenderLevels:
    def test_2d_levels(self):
        domain = Box((0, 0), (8, 4))
        # Fine box over base cells x in [4, 8): the right half.
        boxes = BoxList([domain, Box((8, 0), (16, 8), 1)])
        out = render_levels(boxes, domain)
        rows = out.splitlines()
        assert len(rows) == 4
        assert all(len(r) == 8 for r in rows)
        assert rows[0] == "....1111"
        assert rows[-1] == "....1111"

    def test_level2_digit(self):
        domain = Box((0, 0), (4, 4))
        boxes = BoxList(
            [domain, Box((0, 0), (8, 8), 1), Box((0, 0), (4, 4), 2)]
        )
        out = render_levels(boxes, domain)
        # Bottom-left base cell is covered by level 2 (printed row-major
        # with y upward: last row, first char).
        assert out.splitlines()[-1][0] == "2"

    def test_3d_slice(self):
        domain = Box((0, 0, 0), (4, 4, 4))
        fine = Box((0, 0, 0), (4, 4, 2), 1)  # only z in [0,1)
        boxes = BoxList([domain, fine])
        hit = render_levels(boxes, domain, slice_axis=2, slice_index=0)
        miss = render_levels(boxes, domain, slice_axis=2, slice_index=3)
        assert "1" in hit
        assert "1" not in miss

    def test_1d_rejected(self):
        with pytest.raises(GeometryError):
            render_levels(BoxList([Box((0,), (4,))]), Box((0,), (4,)))


class TestRenderOwners:
    def test_2d_ownership(self):
        domain = Box((0, 0), (4, 2))
        left, right = domain.halve(axis=0)
        out = render_owners(Layout.from_pairs([(left, 0), (right, 1)]), domain)
        rows = out.splitlines()
        assert rows[0] == "aabb"
        assert rows[1] == "aabb"

    def test_uncovered_cells_blank(self):
        domain = Box((0, 0), (4, 2))
        fine = Box((0, 0), (4, 4), 1)  # covers left half of base
        out = render_owners(Layout.from_pairs([(fine, 2)]), domain, level=1)
        assert out.splitlines()[0] == "cc  "

    def test_list_input(self):
        domain = Box((0, 0), (2, 2))
        out = render_owners(Layout.from_pairs([(domain, 0)]), domain)
        assert out == "aa\naa"
