"""3-D ghost-filling coverage: periodic corners/edges and fine repatching."""

from __future__ import annotations

import numpy as np

from repro.amr.ghost import GhostFiller
from repro.amr.hierarchy import GridHierarchy
from repro.kernels.advection import AdvectionKernel
from repro.util.geometry import Box, BoxList
from tests.conftest import halves


def make_hierarchy(boundary: str = "periodic") -> GridHierarchy:
    k = AdvectionKernel(velocity=(1.0, 0.5, 0.25), boundary=boundary)
    h = GridHierarchy(Box((0, 0, 0), (4, 4, 4)), k, max_levels=2)
    h.initialize()
    i, j, l = np.meshgrid(*(np.arange(4),) * 3, indexing="ij")
    h.levels[0].patches[0].interior = (100 * i + 10 * j + l)[np.newaxis].astype(
        float
    )
    return h


class TestPeriodic3D:
    def test_corner_wraps_all_axes(self):
        h = make_hierarchy()
        patch = h.levels[0].patches[0]
        GhostFiller(h).fill_level_ghosts(0)
        # Ghost at (-1,-1,-1) wraps to (3,3,3) = 333.
        assert patch.data[0, 0, 0, 0] == 333.0
        # Ghost at (4,4,4) wraps to (0,0,0) = 0.
        assert patch.data[0, -1, -1, -1] == 0.0

    def test_edge_wraps_two_axes(self):
        h = make_hierarchy()
        patch = h.levels[0].patches[0]
        GhostFiller(h).fill_level_ghosts(0)
        # Ghost at (-1, -1, 1) wraps x and y only -> (3, 3, 1) = 331.
        assert patch.data[0, 0, 0, 2] == 331.0

    def test_outflow_corner_replicates(self):
        h = make_hierarchy(boundary="outflow")
        patch = h.levels[0].patches[0]
        GhostFiller(h).fill_level_ghosts(0)
        assert patch.data[0, 0, 0, 0] == 0.0  # replicates cell (0,0,0)
        assert patch.data[0, -1, -1, -1] == 333.0


class TestRepatchFineLevel:
    def test_repatch_level_one_preserves_data(self):
        h = make_hierarchy()
        h.set_level_boxes(1, BoxList([Box((0, 0, 0), (4, 4, 4), 1)]))
        h.levels[1].patches[0].interior = np.arange(64, dtype=float).reshape(
            1, 4, 4, 4
        )
        before = GhostFiller(h).fetch(Box((0, 0, 0), (4, 4, 4), 1), 1).copy()
        h.repatch_level(1, BoxList(halves(Box((0, 0, 0), (4, 4, 4), 1), 0)))
        assert len(h.levels[1]) == 2
        after = GhostFiller(h).fetch(Box((0, 0, 0), (4, 4, 4), 1), 1)
        np.testing.assert_array_equal(before, after)
        assert h.proper_nesting_ok()
