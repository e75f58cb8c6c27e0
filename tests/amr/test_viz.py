"""Tests for the text hierarchy renderer."""

from __future__ import annotations

import pytest

from repro.amr.viz import render_levels
from repro.util.errors import GeometryError
from repro.util.geometry import Box, BoxList


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
