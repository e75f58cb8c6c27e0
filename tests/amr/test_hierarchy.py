"""Tests for GridHierarchy: setup, nesting, work accounting, level rebuild."""

from __future__ import annotations

import numpy as np
import pytest

from repro.amr.hierarchy import GridHierarchy
from repro.kernels.advection import AdvectionKernel
from repro.util.errors import GeometryError
from repro.util.geometry import Box, BoxList


def make_hierarchy(max_levels: int = 3) -> GridHierarchy:
    k = AdvectionKernel(velocity=(1.0, 0.5), pulse_center=(8.0, 8.0))
    h = GridHierarchy(Box((0, 0), (16, 16)), k, max_levels=max_levels)
    h.initialize()
    return h


class TestConstruction:
    def test_domain_validation(self):
        k = AdvectionKernel(velocity=(1.0, 0.0))
        with pytest.raises(GeometryError):
            GridHierarchy(Box((1, 0), (4, 4)), k)  # not at origin
        with pytest.raises(GeometryError):
            GridHierarchy(Box((0, 0), (4, 4), level=1), k)

    def test_ndim_mismatch(self):
        k = AdvectionKernel(velocity=(1.0, 0.0, 0.0))
        with pytest.raises(GeometryError):
            GridHierarchy(Box((0, 0), (4, 4)), k)

    def test_param_guards(self):
        k = AdvectionKernel(velocity=(1.0, 0.0))
        dom = Box((0, 0), (4, 4))
        with pytest.raises(GeometryError):
            GridHierarchy(dom, k, max_levels=0)
        with pytest.raises(GeometryError):
            GridHierarchy(dom, k, refine_factor=1)
        with pytest.raises(GeometryError):
            GridHierarchy(dom, k, dx0=0.0)

    def test_initialize_creates_level0(self):
        h = make_hierarchy()
        assert h.num_levels == 1
        assert h.levels[0].total_cells == 256
        assert h.time == 0.0
        ic = h.levels[0].patches[0].interior
        assert ic.max() == pytest.approx(1.0, abs=0.05)  # pulse peak


class TestGeometry:
    def test_cell_width_halves_per_level(self):
        h = make_hierarchy()
        assert h.cell_width(0) == 1.0
        assert h.cell_width(2) == 0.25

    def test_domain_at(self):
        h = make_hierarchy()
        assert h.domain_at(0) == Box((0, 0), (16, 16))
        assert h.domain_at(2) == Box((0, 0), (64, 64), level=2)

    def test_subcycles(self):
        h = make_hierarchy()
        assert [h.subcycles(l) for l in range(3)] == [1, 2, 4]

    def test_work_accounting(self):
        h = make_hierarchy()
        h.set_level_boxes(1, BoxList([Box((4, 4), (12, 12), 1)]))
        np.testing.assert_array_equal(h.work_by_level(), [256, 128])


class TestSetLevelBoxes:
    def test_level0_immutable(self):
        h = make_hierarchy()
        with pytest.raises(GeometryError):
            h.set_level_boxes(0, BoxList([Box((0, 0), (16, 16))]))

    def test_cannot_skip_levels(self):
        h = make_hierarchy()
        with pytest.raises(GeometryError):
            h.set_level_boxes(2, BoxList([Box((0, 0), (8, 8), 2)]))

    def test_max_levels_enforced(self):
        h = make_hierarchy(max_levels=2)
        h.set_level_boxes(1, BoxList([Box((0, 0), (8, 8), 1)]))
        with pytest.raises(GeometryError):
            h.set_level_boxes(2, BoxList([Box((0, 0), (8, 8), 2)]))

    def test_wrong_level_boxes_rejected(self):
        h = make_hierarchy()
        with pytest.raises(GeometryError):
            h.set_level_boxes(1, BoxList([Box((0, 0), (8, 8), 2)]))

    def test_outside_domain_rejected(self):
        h = make_hierarchy()
        with pytest.raises(GeometryError):
            h.set_level_boxes(1, BoxList([Box((0, 0), (40, 40), 1)]))

    def test_new_level_filled_by_prolongation(self):
        h = make_hierarchy()
        h.levels[0].patches[0].interior = np.full((1, 16, 16), 3.5)
        h.set_level_boxes(1, BoxList([Box((4, 4), (12, 12), 1)]))
        fine = h.levels[1].patches[0].interior
        assert fine.shape == (1, 8, 8)
        np.testing.assert_allclose(fine, 3.5)

    def test_old_data_copied_on_overlap(self):
        h = make_hierarchy()
        h.set_level_boxes(1, BoxList([Box((4, 4), (12, 12), 1)]))
        h.levels[1].patches[0].interior = np.full((1, 8, 8), 9.0)
        # New footprint overlaps [6,6)-(12,12) region of the old box.
        h.set_level_boxes(1, BoxList([Box((6, 6), (14, 14), 1)]))
        fine = h.levels[1].patches[0].interior
        # Overlapping part keeps the old fine value 9.0.
        assert fine[0, 0, 0] == 9.0  # (6,6) was inside old box
        # Fresh part comes from prolonged coarse data (pulse values < 9).
        assert fine[0, -1, -1] != 9.0

    def test_empty_boxlist_removes_trailing_level(self):
        h = make_hierarchy()
        h.set_level_boxes(1, BoxList([Box((4, 4), (12, 12), 1)]))
        assert h.num_levels == 2
        h.set_level_boxes(1, BoxList())
        assert h.num_levels == 1


class TestNesting:
    def test_nesting_holds_for_contained_fine_level(self):
        h = make_hierarchy()
        h.set_level_boxes(1, BoxList([Box((4, 4), (12, 12), 1)]))
        assert h.proper_nesting_ok()

    def test_nesting_fails_for_orphan_fine_box(self):
        h = make_hierarchy()
        h.set_level_boxes(1, BoxList([Box((0, 0), (8, 8), 1)]))
        h.set_level_boxes(2, BoxList([Box((0, 0), (8, 8), 2)]))
        assert h.proper_nesting_ok()
        # Move level 2 out from under level 1's footprint.
        h.set_level_boxes(2, BoxList([Box((24, 24), (32, 32), 2)]))
        assert not h.proper_nesting_ok()


class TestRestrictLevel:
    def test_fine_average_lands_on_coarse(self):
        h = make_hierarchy()
        h.set_level_boxes(1, BoxList([Box((4, 4), (8, 8), 1)]))
        h.levels[1].patches[0].interior = np.full((1, 4, 4), 10.0)
        h.restrict_level(1)
        coarse = h.levels[0].patches[0].interior
        # Fine box covers coarse cells (2,2)-(4,4).
        np.testing.assert_allclose(coarse[0, 2:4, 2:4], 10.0)
        assert coarse[0, 0, 0] != 10.0

    def test_misaligned_box_restricts_aligned_core_only(self):
        h = make_hierarchy()
        h.set_level_boxes(1, BoxList([Box((5, 4), (9, 8), 1)]))  # odd x-lo
        h.levels[1].patches[0].interior = np.full((1, 4, 4), 10.0)
        before = h.levels[0].patches[0].interior.copy()
        h.restrict_level(1)
        coarse = h.levels[0].patches[0].interior
        # Aligned core is x in [6, 8) fine = coarse cell 3.
        np.testing.assert_allclose(coarse[0, 3, 2:4], 10.0)
        # Cells under the misaligned fringe (coarse x=2) stay untouched.
        np.testing.assert_allclose(coarse[0, 2, :], before[0, 2, :])

    def test_no_fine_level_rejected(self):
        h = make_hierarchy()
        with pytest.raises(GeometryError):
            h.restrict_level(1)
