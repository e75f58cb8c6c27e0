"""Tests for ghost filling and exchange-volume planning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.amr.ghost import GhostFiller, plan_exchange_volumes
from repro.amr.hierarchy import GridHierarchy
from repro.kernels.advection import AdvectionKernel
from repro.util.errors import GeometryError
from repro.util.geometry import Box, BoxList


def make_hierarchy(boundary: str = "periodic") -> GridHierarchy:
    k = AdvectionKernel(velocity=(1.0, 0.5), boundary=boundary)
    h = GridHierarchy(Box((0, 0), (8, 8)), k, max_levels=3)
    h.initialize()
    # Deterministic, recognizable level-0 field: value = 10*i + j.
    i, j = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    h.levels[0].patches[0].interior = (10.0 * i + j)[np.newaxis]
    return h


class TestFetch:
    def test_level0_read(self):
        h = make_hierarchy()
        f = GhostFiller(h)
        out = f.fetch(Box((2, 3), (4, 5)), 0)
        np.testing.assert_array_equal(out[0], [[23.0, 24.0], [33.0, 34.0]])

    def test_fetch_outside_domain_rejected(self):
        h = make_hierarchy()
        with pytest.raises(GeometryError):
            GhostFiller(h).fetch(Box((-1, 0), (2, 2)), 0)

    def test_fine_fetch_prolongs_coarse(self):
        h = make_hierarchy()
        f = GhostFiller(h)
        out = f.fetch(Box((4, 4), (6, 6), 1), 1)  # no level-1 patches yet...
        # hierarchy has only level 0; fetching level-1 data falls back to
        # prolonged coarse values: fine (4,4) sits in coarse cell (2,2)=22.
        assert h.num_levels == 1
        np.testing.assert_allclose(out[0], 22.0)

    def test_fine_fetch_prefers_fine_truth(self):
        h = make_hierarchy()
        h.set_level_boxes(1, BoxList([Box((4, 4), (8, 8), 1)]))
        h.levels[1].patches[0].interior = np.full((1, 4, 4), -5.0)
        out = GhostFiller(h).fetch(Box((4, 4), (8, 8), 1), 1)
        np.testing.assert_allclose(out, -5.0)


class TestPeriodicGhosts:
    def test_interior_patch_unaffected_by_wrap(self):
        h = make_hierarchy()
        h.set_level_boxes(1, BoxList([Box((4, 4), (10, 10), 1)]))
        filler = GhostFiller(h)
        patch = h.levels[1].patches[0]
        filler.fill_level_ghosts(1)
        # Ghost column left of the patch = prolonged coarse data at fine
        # coords (3, 4..10) -> coarse (1, 2..5) -> values 12,12,13,13,14,14.
        got = patch.data[0, 0, 1:-1]
        np.testing.assert_array_equal(got, [12, 12, 13, 13, 14, 14])

    def test_domain_edge_wraps(self):
        h = make_hierarchy()
        filler = GhostFiller(h)
        patch = h.levels[0].patches[0]
        filler.fill_level_ghosts(0)
        # Left ghost column (i=-1) wraps to i=7 row: values 70..77.
        np.testing.assert_array_equal(
            patch.data[0, 0, 1:-1], [70, 71, 72, 73, 74, 75, 76, 77]
        )
        # Corner ghost (-1,-1) wraps to (7,7)=77.
        assert patch.data[0, 0, 0] == 77.0

    def test_outflow_replicates_edges(self):
        h = make_hierarchy(boundary="outflow")
        filler = GhostFiller(h)
        patch = h.levels[0].patches[0]
        filler.fill_level_ghosts(0)
        # Left ghost column replicates row i=0: 0..7.
        np.testing.assert_array_equal(
            patch.data[0, 0, 1:-1], [0, 1, 2, 3, 4, 5, 6, 7]
        )
        # Corner replicates the corner cell.
        assert patch.data[0, 0, 0] == 0.0
        assert patch.data[0, -1, -1] == 77.0

    def test_sibling_fill_beats_prolongation(self):
        h = make_hierarchy()
        h.set_level_boxes(
            1, BoxList([Box((4, 4), (8, 8), 1), Box((8, 4), (12, 8), 1)])
        )
        left, right = h.levels[1].patches
        left.interior = np.full((1, 4, 4), 1.0)
        right.interior = np.full((1, 4, 4), 2.0)
        GhostFiller(h).fill_level_ghosts(1)
        # Left patch's right ghost column must hold the sibling's value 2.
        np.testing.assert_allclose(left.data[0, -1, 1:-1], 2.0)


class TestExchangeVolumes:
    def test_two_rank_halves_share_one_face(self):
        a = Box((0, 0), (4, 8))
        b = Box((4, 0), (8, 8))
        vols = plan_exchange_volumes(
            BoxList([a, b]), [0, 1], ghost_width=1, bytes_per_cell=8
        )
        # Each box needs the facing column of the other: 8 cells * 8 B.
        assert vols[(0, 1)] == 64.0
        assert vols[(1, 0)] == 64.0

    def test_same_owner_no_traffic(self):
        a = Box((0, 0), (4, 8))
        b = Box((4, 0), (8, 8))
        vols = plan_exchange_volumes(BoxList([a, b]), [0, 0])
        assert vols == {}

    def test_disjoint_far_boxes_no_traffic(self):
        a = Box((0, 0), (2, 2))
        b = Box((6, 6), (8, 8))
        vols = plan_exchange_volumes(BoxList([a, b]), [0, 1])
        assert vols == {}

    def test_interlevel_prolongation_traffic(self):
        coarse = Box((0, 0), (8, 8), 0)
        fine = Box((4, 4), (12, 12), 1)
        vols = plan_exchange_volumes(
            BoxList([coarse, fine]),
            [0, 1],
            ghost_width=1,
            bytes_per_cell=8.0,
        )
        # Fine ghost footprint coarsened: ((3,3),(13,13))->coarse (1,1)-(7,7)
        # intersect coarse box = 36 cells.
        assert vols[(0, 1)] == 36 * 8.0
        assert (1, 0) not in vols

    def test_missing_owner_rejected(self):
        a = Box((0, 0), (2, 2))
        with pytest.raises(GeometryError):
            plan_exchange_volumes(BoxList([a]), [])

    def test_negative_ghost_rejected(self):
        a = Box((0, 0), (2, 2))
        with pytest.raises(GeometryError):
            plan_exchange_volumes(BoxList([a]), [0], ghost_width=-1)

    def test_zero_ghost_only_interlevel(self):
        a = Box((0, 0), (4, 8))
        b = Box((4, 0), (8, 8))
        vols = plan_exchange_volumes(BoxList([a, b]), [0, 1], ghost_width=0)
        assert vols == {}
