"""Tests for GridPatch and GridLevel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.amr.level import GridLevel
from repro.amr.patch import GridPatch
from repro.util.errors import GeometryError
from repro.util.geometry import Box


class TestGridPatch:
    def test_allocation_shape(self):
        p = GridPatch(Box((0, 0), (4, 6)), num_fields=2, ghost_width=1)
        assert p.data.shape == (2, 6, 8)
        assert p.interior.shape == (2, 4, 6)
        assert p.work == 24

    def test_zero_ghost(self):
        p = GridPatch(Box((0, 0), (4, 4)), ghost_width=0)
        assert p.data.shape == (1, 4, 4)
        assert p.interior is p.data
        assert p.ghost_box() == p.box

    def test_interior_setter(self):
        p = GridPatch(Box((0, 0), (2, 2)))
        p.interior = np.ones((1, 2, 2))
        assert p.data.sum() == 4.0  # ghosts untouched (zero)

    def test_ghost_box(self):
        p = GridPatch(Box((2, 2), (4, 4)), ghost_width=2)
        assert p.ghost_box() == Box((0, 0), (6, 6))

    def test_existing_data_validated(self):
        with pytest.raises(GeometryError):
            GridPatch(Box((0,), (4,)), data=np.zeros((1, 4)))  # missing ghosts
        ok = GridPatch(Box((0,), (4,)), data=np.arange(6, dtype=float).reshape(1, 6))
        assert ok.interior.tolist() == [[1.0, 2.0, 3.0, 4.0]]

    def test_bad_params(self):
        with pytest.raises(GeometryError):
            GridPatch(Box((0,), (2,)), num_fields=0)
        with pytest.raises(GeometryError):
            GridPatch(Box((0,), (2,)), ghost_width=-1)

    def test_view_for_region_in_ghost_frame(self):
        p = GridPatch(Box((4, 4), (8, 8)), ghost_width=1)
        view = p.view_for(Box((3, 4), (4, 8)))  # left ghost column
        assert view.shape == (1, 1, 4)
        view[...] = 7.0
        assert p.data[0, 0, 1:5].tolist() == [7.0] * 4

    def test_view_for_outside_rejected(self):
        p = GridPatch(Box((4, 4), (8, 8)), ghost_width=1)
        with pytest.raises(GeometryError):
            p.view_for(Box((0, 0), (2, 2)))

    def test_copy_region_from(self):
        src = GridPatch(Box((0, 0), (4, 4)), ghost_width=1)
        src.interior = np.arange(16, dtype=float).reshape(1, 4, 4)
        dst = GridPatch(Box((4, 0), (8, 4)), ghost_width=1)
        region = Box((3, 0), (4, 4))  # src's last column = dst's ghost col
        dst.copy_region_from(src, region)
        np.testing.assert_array_equal(
            dst.data[0, 0, 1:5], src.interior[0, 3, :]
        )

    def test_copy_region_source_must_cover(self):
        src = GridPatch(Box((0, 0), (4, 4)), ghost_width=1)
        dst = GridPatch(Box((4, 0), (8, 4)), ghost_width=1)
        with pytest.raises(GeometryError):
            dst.copy_region_from(src, Box((3, 0), (5, 4)))  # exceeds src box


class TestGridLevel:
    def test_add_and_measure(self):
        lvl = GridLevel(1)
        lvl.add_patch(GridPatch(Box((0, 0), (4, 4), 1)))
        lvl.add_patch(GridPatch(Box((8, 0), (12, 4), 1)))
        assert len(lvl) == 2
        assert lvl.total_cells == 32
        assert len(lvl.boxes) == 2

    def test_level_mismatch_rejected(self):
        lvl = GridLevel(1)
        with pytest.raises(GeometryError):
            lvl.add_patch(GridPatch(Box((0, 0), (4, 4), 0)))

    def test_overlap_rejected(self):
        lvl = GridLevel(0)
        lvl.add_patch(GridPatch(Box((0, 0), (4, 4))))
        with pytest.raises(GeometryError):
            lvl.add_patch(GridPatch(Box((2, 2), (6, 6))))

    def test_negative_level_rejected(self):
        with pytest.raises(GeometryError):
            GridLevel(-1)

    def test_covers(self):
        lvl = GridLevel(0)
        lvl.add_patch(GridPatch(Box((0, 0), (4, 4))))
        lvl.add_patch(GridPatch(Box((4, 0), (8, 4))))
        assert lvl.covers(Box((0, 0), (8, 4)))
        assert lvl.covers(Box((2, 1), (6, 3)))
        assert not lvl.covers(Box((0, 0), (8, 5)))
