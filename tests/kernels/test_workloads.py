"""Tests for synthetic workload traces."""

from __future__ import annotations

import pytest

from repro.kernels.workloads import (
    SyntheticWorkload,
    paper_rm3d_trace,
)
from repro.util.errors import GeometryError
from repro.util.geometry import Box, BoxList
from tests.conftest import moving_blob_trace


def assert_valid_hierarchy_epoch(bl: BoxList, domain: Box, factor: int) -> None:
    """Structural invariants a real regrid would satisfy."""
    assert bl.is_disjoint()
    for b in bl:
        dom = domain
        for _ in range(b.level):
            dom = dom.refine(factor)
        assert dom.contains_box(b), f"{b} outside {dom}"
    # Proper nesting: each level-l box coarsened must intersect only
    # regions covered by level-(l-1) boxes.
    for level in bl.levels:
        if level == 0:
            continue
        parents = list(bl.at_level(level - 1))
        for b in bl.at_level(level):
            coarse = b.coarsen(factor)
            remaining = [coarse]
            for p in parents:
                nxt = []
                for r in remaining:
                    nxt.extend(r.difference(p))
                remaining = nxt
            assert not remaining, f"{b} not nested in level {level - 1}"


class TestSyntheticWorkload:
    def test_empty_epochs_rejected(self):
        with pytest.raises(GeometryError):
            SyntheticWorkload("x", Box((0,), (4,)), 2, box_lists=())
        with pytest.raises(GeometryError):
            SyntheticWorkload("x", Box((0,), (4,)), 2, box_lists=(BoxList(),))

    def test_iteration_and_epoch_access(self):
        w = moving_blob_trace(num_regrids=4)
        assert w.num_regrids == 4
        assert len(list(w)) == 4
        assert w.epoch(0) == w.box_lists[0]

    def test_work_weights_subcycling(self):
        w = moving_blob_trace(domain_shape=(16, 16), num_regrids=1, max_levels=2)
        bl = w.epoch(0)
        manual = sum(b.num_cells * 2**b.level for b in bl)
        assert w.work_of(0) == manual
        # The column sum equals the Python-int box loop on the paper's
        # three-level trace too, and stays a plain int.
        rm3d = paper_rm3d_trace(num_regrids=4)
        for r in range(rm3d.num_regrids):
            loop = sum(b.num_cells * 2**b.level for b in rm3d.epoch(r))
            assert type(rm3d.work_of(r)) is int and rm3d.work_of(r) == loop


class TestMovingBlob:
    def test_epochs_are_valid_hierarchies(self):
        w = moving_blob_trace(domain_shape=(64, 64), num_regrids=6, max_levels=3)
        for bl in w:
            assert_valid_hierarchy_epoch(bl, w.domain, w.refine_factor)

    def test_blob_moves(self):
        w = moving_blob_trace(domain_shape=(64, 64), num_regrids=5, max_levels=2)
        centers = []
        for bl in w:
            fine = bl.at_level(1)
            frame = fine.bounding_box()
            centers.append((frame.lower[0] + frame.upper[0]) / 2)
        assert centers[-1] > centers[0]

    def test_3d_works(self):
        w = moving_blob_trace(domain_shape=(16, 16, 16), num_regrids=3, max_levels=2)
        for bl in w:
            assert_valid_hierarchy_epoch(bl, w.domain, 2)

    def test_bad_params(self):
        with pytest.raises(GeometryError):
            moving_blob_trace(num_regrids=0)


class TestPaperTrace:
    def test_paper_scale_defaults(self):
        w = paper_rm3d_trace()
        assert w.domain == Box((0, 0, 0), (128, 32, 32))
        assert w.num_regrids == 8

    def test_epochs_are_valid_hierarchies(self):
        w = paper_rm3d_trace(num_regrids=6)
        for bl in w:
            assert_valid_hierarchy_epoch(bl, w.domain, w.refine_factor)

    def test_three_levels_present(self):
        w = paper_rm3d_trace(num_regrids=4)
        for bl in w:
            assert bl.levels == (0, 1, 2)

    def test_work_grows_with_instability(self):
        """Later epochs refine more cells (growing mixing zone)."""
        w = paper_rm3d_trace(num_regrids=8)
        assert w.work_of(w.num_regrids - 1) > w.work_of(0)

    def test_interface_slab_moves(self):
        w = paper_rm3d_trace(num_regrids=5)
        slab_x = []
        for bl in w:
            frame = bl.at_level(1).bounding_box()
            slab_x.append((frame.lower[0] + frame.upper[0]) / 2)
        assert slab_x == sorted(slab_x)
        assert slab_x[-1] > slab_x[0]

    def test_multiple_boxes_per_epoch(self):
        """The partitioner needs multiple assignable units."""
        w = paper_rm3d_trace(num_regrids=4)
        for bl in w:
            assert len(bl) >= 5

    def test_bad_params(self):
        with pytest.raises(GeometryError):
            paper_rm3d_trace(num_regrids=0)
        with pytest.raises(GeometryError):
            paper_rm3d_trace(max_levels=0)
