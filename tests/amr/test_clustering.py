"""Tests for Berger-Rigoutsos clustering."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.amr.clustering import berger_rigoutsos
from repro.util.errors import GeometryError
from repro.util.geometry import Box


def coverage_ok(mask: np.ndarray, boxes, origin=(0, 0)) -> bool:
    """Every flagged cell is inside some box."""
    covered = np.zeros_like(mask)
    for b in boxes:
        sl = tuple(
            slice(lo - o, hi - o)
            for lo, hi, o in zip(b.lower, b.upper, origin)
        )
        covered[sl] = True
    return bool((covered | ~mask).all())


class TestBasics:
    def test_empty_mask_gives_no_boxes(self):
        mask = np.zeros((8, 8), dtype=bool)
        assert len(berger_rigoutsos(mask)) == 0

    def test_single_cluster_tight_bounding(self):
        mask = np.zeros((16, 16), dtype=bool)
        mask[4:8, 5:9] = True
        boxes = berger_rigoutsos(mask)
        assert len(boxes) == 1
        assert boxes[0] == Box((4, 5), (8, 9))

    def test_two_separated_clusters_split(self):
        mask = np.zeros((32, 8), dtype=bool)
        mask[2:5, 2:5] = True
        mask[25:29, 2:5] = True
        boxes = berger_rigoutsos(mask, efficiency=0.8)
        assert len(boxes) == 2
        assert coverage_ok(mask, boxes)
        for b in boxes:
            assert b.num_cells <= 4 * 4  # tight, not the joint hull

    def test_efficiency_respected_or_atomic(self):
        rng = np.random.default_rng(0)
        mask = rng.random((32, 32)) < 0.15
        boxes = berger_rigoutsos(mask, efficiency=0.5, min_size=2)
        assert coverage_ok(mask, boxes)
        for b in boxes:
            sl = tuple(slice(lo, hi) for lo, hi in zip(b.lower, b.upper))
            eff = mask[sl].sum() / b.num_cells
            small = all(s <= 2 for s in b.shape)
            # Each accepted box met the target or could not shrink further.
            assert eff >= 0.5 or small or min(b.shape) <= 2

    def test_origin_offsets_boxes(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[0:2, 0:2] = True
        boxes = berger_rigoutsos(mask, origin=(10, 20))
        assert boxes[0] == Box((10, 20), (12, 22))

    def test_level_carried(self):
        mask = np.ones((4, 4), dtype=bool)
        boxes = berger_rigoutsos(mask, level=2)
        assert boxes[0].level == 2

    def test_3d_mask(self):
        mask = np.zeros((8, 8, 8), dtype=bool)
        mask[1:3, 1:3, 1:3] = True
        mask[5:8, 5:8, 5:8] = True
        boxes = berger_rigoutsos(mask, efficiency=0.9)
        assert coverage_ok(mask, boxes, origin=(0, 0, 0))
        assert len(boxes) == 2

    def test_l_shape_splits(self):
        """An L-shaped flag set is clustered into >1 box at high efficiency."""
        mask = np.zeros((16, 16), dtype=bool)
        mask[0:16, 0:4] = True
        mask[0:4, 0:16] = True
        boxes = berger_rigoutsos(mask, efficiency=0.85)
        assert len(boxes) >= 2
        assert coverage_ok(mask, boxes)
        total = sum(b.num_cells for b in boxes)
        flags = int(mask.sum())
        assert total <= 2 * flags  # far better than the 256-cell hull


class TestValidation:
    def test_non_bool_rejected(self):
        with pytest.raises(GeometryError):
            berger_rigoutsos(np.zeros((4, 4)))

    def test_bad_efficiency(self):
        mask = np.ones((4, 4), dtype=bool)
        with pytest.raises(GeometryError):
            berger_rigoutsos(mask, efficiency=0.0)
        with pytest.raises(GeometryError):
            berger_rigoutsos(mask, efficiency=1.5)

    def test_bad_min_size(self):
        with pytest.raises(GeometryError):
            berger_rigoutsos(np.ones((4, 4), dtype=bool), min_size=0)

    def test_bad_origin(self):
        with pytest.raises(GeometryError):
            berger_rigoutsos(np.ones((4, 4), dtype=bool), origin=(0,))


@settings(max_examples=80, deadline=None)
@given(
    arrays(bool, st.tuples(st.integers(1, 24), st.integers(1, 24))),
    st.sampled_from([0.5, 0.7, 0.9]),
)
def test_clustering_invariants(mask, efficiency):
    """Coverage, disjointness and containment hold for arbitrary masks."""
    boxes = berger_rigoutsos(mask, efficiency=efficiency, min_size=2)
    if not mask.any():
        assert len(boxes) == 0
        return
    assert coverage_ok(mask, boxes)
    assert boxes.is_disjoint()
    frame = Box((0, 0), mask.shape)
    for b in boxes:
        assert frame.contains_box(b)
