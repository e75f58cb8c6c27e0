"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.kernels.workloads import SyntheticWorkload, _chop
from repro.partition.splitting import split_row_to_target
from repro.util.errors import GeometryError
from repro.util.geometry import Box, BoxList, Layout
from repro.util.sfc import sfc_sort_order


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


def boxes(
    ndim: int | None = None,
    max_coord: int = 64,
    max_side: int = 32,
    max_level: int = 3,
) -> st.SearchStrategy[Box]:
    """Strategy producing valid Boxes of 1-3 dimensions."""

    def build(draw_ndim: int) -> st.SearchStrategy[Box]:
        lowers = st.tuples(
            *[st.integers(0, max_coord) for _ in range(draw_ndim)]
        )
        sides = st.tuples(
            *[st.integers(1, max_side) for _ in range(draw_ndim)]
        )
        lvl = st.integers(0, max_level)
        return st.builds(
            lambda lo, sd, lv: Box(lo, tuple(a + b for a, b in zip(lo, sd)), lv),
            lowers,
            sides,
            lvl,
        )

    if ndim is not None:
        return build(ndim)
    return st.integers(1, 3).flatmap(build)


def box_work(box: Box, refine_factor: int = 2) -> float:
    """Per-box oracle for the default work model: Berger-Oliger
    ``cells * refine_factor ** level``, written out."""
    return float(box.num_cells * refine_factor**box.level)


def box_row(box: Box) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """``box`` as the ``(lower, upper, level)`` row the splitter takes."""
    return box.lower, box.upper, box.level


def split_box(box: Box, target: float, model, constraints=None):
    """``split_row_to_target`` with ``Box`` objects in and out, for tests
    and per-box reference walks that state expectations as boxes."""
    out = split_row_to_target(box_row(box), target, model, constraints)
    if out is None:
        return None
    piece, rest = out
    return Box(*piece), [Box(*r) for r in rest]


def sfc_ordered(boxes, curve: str = "hilbert") -> BoxList:
    """``boxes`` in the order ``sfc_sort_order`` gives their columns: the
    SFC walk the HDDA index space and ACEComposite use."""
    bl = BoxList(boxes)
    return bl.take(sfc_sort_order(bl.array, curve=curve))


def layout_pairs(layout: Layout) -> list[tuple[Box, int]]:
    """The object view of a layout: ``(Box, rank)`` with plain-``int``
    ranks, the form per-box reference walks state expectations in."""
    return list(zip(layout.boxes, layout.ranks.tolist()))


def halves(box: Box, axis: int) -> tuple[Box, Box]:
    """``box`` split in two (near-)equal halves along ``axis``."""
    return box.split(axis, box.lower[axis] + box.shape[axis] // 2)


def corner_key(box: Box) -> tuple[int, ...]:
    """The canonical ``(level, lower...)`` sort key of one box."""
    return (box.level, *box.lower)


def moving_blob_trace(
    domain_shape: tuple[int, ...] = (64, 64),
    num_regrids: int = 10,
    max_levels: int = 3,
    refine_factor: int = 2,
    blob_cells: int = 12,
    chop_pieces: int = 2,
) -> SyntheticWorkload:
    """A refined blob sweeping diagonally across the domain.

    The generic moving-feature workload the tests run the runtime,
    partitioners and readers on: level-1 follows the blob loosely, level-2
    tightly.  Works in any dimensionality.
    """
    if num_regrids < 1:
        raise GeometryError(f"num_regrids must be >= 1, got {num_regrids}")
    domain = Box((0,) * len(domain_shape), domain_shape)
    epochs: list[BoxList] = []
    for r in range(num_regrids):
        frac = r / max(1, num_regrids - 1)
        center = tuple(
            int(frac * (s - blob_cells - 2)) + blob_cells // 2 + 1
            for s in domain_shape
        )
        boxes: list[Box] = [domain]
        parent_footprint = domain
        for level in range(1, max_levels):
            half = max(2, blob_cells // (2 * level))
            lo = tuple(max(0, c - half) for c in center)
            hi = tuple(
                min(s, c + half) for c, s in zip(center, domain_shape)
            )
            if any(h <= l for l, h in zip(lo, hi)):
                break
            coarse = Box(lo, hi)  # in level-0 coords
            nested = coarse.intersection(parent_footprint)
            if nested is None:
                break
            fine = nested
            for _ in range(level):
                fine = fine.refine(refine_factor)
            boxes.extend(_chop(fine, axis=0, pieces=chop_pieces))
            parent_footprint = nested
        epochs.append(BoxList(boxes))
    return SyntheticWorkload(
        name="moving-blob",
        domain=domain,
        refine_factor=refine_factor,
        box_lists=tuple(epochs),
    )
