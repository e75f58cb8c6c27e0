"""Golden identity: ghost fill from the cached copy plan vs the recursive walk.

``GhostFiller`` now resolves "which patch sources which ghost cell" once
per layout into copy ops and replays them.  The reference below is a
verbatim copy of the filler it replaced -- ``fetch`` recursing level by
level through ``prolong``, ``Box.difference`` slabs, one ``fetch`` per
periodic image.  On generated hierarchies both must leave every patch's
whole ``data`` array (interior, filled ghosts *and* the ghosts neither
touches) bitwise equal.  This is also the test that would catch a
non-injective ``prolong``: the plan reads a cell ``f**n`` levels down in
one ``prolong(block, f**n)``, the reference composes ``n`` prolongations.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.ghost import GhostFiller
from repro.amr.hierarchy import GridHierarchy
from repro.amr.intergrid import prolong
from repro.kernels.advection import AdvectionKernel
from repro.util.errors import GeometryError
from repro.util.geometry import Box, BoxList


def _translate(box: Box, offset) -> Box:
    """``box`` shifted by ``offset`` cells along each axis."""
    return Box(
        tuple(l + o for l, o in zip(box.lower, offset)),
        tuple(u + o for u, o in zip(box.upper, offset)),
        box.level,
    )


class ReferenceGhostFiller:
    """The recursive per-fill walk ``GhostFiller`` replaced, verbatim."""

    def __init__(self, hierarchy):
        self.hierarchy = hierarchy

    # ------------------------------------------------------------------
    def fetch(self, region: Box, level: int) -> np.ndarray:
        """Composite-grid read: data for ``region`` (inside the domain at
        ``level``), taken from the finest available source at each cell --
        same-level patches where they exist, prolonged ancestor data
        elsewhere.  Level 0 always covers the domain, so this never fails.
        """
        dom = self.hierarchy.domain_at(level)
        if not dom.contains_box(region):
            raise GeometryError(f"fetch region {region} outside domain {dom}")
        if level == 0:
            return self._read_level(region, 0)
        f = self.hierarchy.refine_factor
        coarse_region = region.coarsen(f)
        coarse = self.fetch(coarse_region, level - 1)
        fine_frame = coarse_region.refine(f)
        data = prolong(coarse, f)
        sl = (slice(None),) + region.slices(origin=fine_frame.lower)
        out = np.ascontiguousarray(data[sl])
        if level >= self.hierarchy.num_levels:
            return out  # level not instantiated yet: pure prolongation
        # Overlay same-level truth where patches cover the region.
        for patch in self.hierarchy.levels[level]:
            inter = patch.box.intersection(region)
            if inter is None:
                continue
            dst = (slice(None),) + inter.slices(origin=region.lower)
            out[dst] = patch.view_for(inter)
        return out

    def _read_level(self, region: Box, level: int) -> np.ndarray:
        """Read a region fully covered by one level's patches (level 0)."""
        shape = (self.hierarchy.kernel.num_fields,) + region.shape
        out = np.zeros(shape)
        for patch in self.hierarchy.levels[level]:
            inter = patch.box.intersection(region)
            if inter is None:
                continue
            dst = (slice(None),) + inter.slices(origin=region.lower)
            out[dst] = patch.view_for(inter)
        return out

    # ------------------------------------------------------------------
    def fill_patch_ghosts(self, patch, level: int) -> None:
        """Fill one patch's ghost frame (interior data left untouched)."""
        g = patch.ghost_width
        if g == 0:
            return
        dom = self.hierarchy.domain_at(level)
        gb = patch.ghost_box()
        boundary = self.hierarchy.kernel.boundary
        for piece in gb.difference(patch.box):
            if boundary == "periodic":
                self._fill_periodic_piece(patch, piece, level, dom)
            else:
                inside = piece.intersection(dom)
                if inside is not None:
                    patch.view_for(inside)[...] = self.fetch(inside, level)
        if boundary == "outflow":
            self._replicate_outflow(patch, dom)

    def _fill_periodic_piece(self, patch, piece: Box, level: int, dom: Box) -> None:
        """Fill a ghost slab, wrapping out-of-domain parts around the torus."""
        extents = dom.shape
        shifts = itertools.product(*[(-e, 0, e) for e in extents])
        for shift in shifts:
            shifted_dom = _translate(dom, shift)
            part = piece.intersection(shifted_dom)
            if part is None:
                continue
            source = _translate(part, tuple(-s for s in shift))
            patch.view_for(part)[...] = self.fetch(source, level)

    def _replicate_outflow(self, patch, dom: Box) -> None:
        """Zero-gradient boundary: copy the outermost in-domain plane into
        out-of-domain ghost planes, axis by axis (fills corners too)."""
        g = patch.ghost_width
        data = patch.data
        gb = patch.ghost_box()
        for axis in range(patch.box.ndim):
            ax = axis + 1  # account for the fields axis
            low_out = dom.lower[axis] - gb.lower[axis]  # ghosts below domain
            if low_out > 0:
                edge = np.take(data, [low_out], axis=ax)
                idx = [slice(None)] * data.ndim
                idx[ax] = slice(0, low_out)
                data[tuple(idx)] = edge
            high_out = gb.upper[axis] - dom.upper[axis]  # ghosts above domain
            if high_out > 0:
                n = data.shape[ax]
                edge = np.take(data, [n - high_out - 1], axis=ax)
                idx = [slice(None)] * data.ndim
                idx[ax] = slice(n - high_out, n)
                data[tuple(idx)] = edge

    def fill_level_ghosts(self, level: int) -> None:
        """Fill every patch of a level."""
        for patch in self.hierarchy.levels[level]:
            self.fill_patch_ghosts(patch, level)


# ---------------------------------------------------------------------------
# Generated hierarchies
# ---------------------------------------------------------------------------
def draw_sub_box(draw, frame: Box) -> Box:
    lo = tuple(
        draw(st.integers(l, u - 1)) for l, u in zip(frame.lower, frame.upper)
    )
    up = tuple(draw(st.integers(l + 1, u)) for l, u in zip(lo, frame.upper))
    return Box(lo, up, frame.level)


def draw_splits(draw, boxes: list[Box], max_cuts: int = 4) -> list[Box]:
    """Cut random boxes at random positions (aligned to nothing)."""
    pieces = list(boxes)
    for _ in range(draw(st.integers(0, max_cuts))):
        i = draw(st.integers(0, len(pieces) - 1))
        axis = draw(st.integers(0, pieces[i].ndim - 1))
        if pieces[i].shape[axis] < 2:
            continue
        cut = draw(
            st.integers(pieces[i].lower[axis] + 1, pieces[i].upper[axis] - 1)
        )
        pieces[i : i + 1] = pieces[i].split(axis, cut)
    return pieces


@st.composite
def hierarchies(draw) -> GridHierarchy:
    """2-D/3-D, periodic/outflow, ghost width 1-2, 1-3 levels.

    Domain extents start at 1 (so an extent can equal -- or undercut --
    the ghost width and a ghost frame wraps onto its own patch).  Each
    finer level is a refined sub-box of the one below, cut at arbitrary
    positions, with some pieces dropped (sparse coverage: a ghost cell's
    finest cover may be two levels down); every level is then re-tiled
    once more through ``repatch_level``.  All of every ``data`` array,
    ghosts included, holds random bits.
    """
    ndim = draw(st.integers(2, 3))
    kernel = AdvectionKernel(
        velocity=(1.0, 0.5, 0.25)[:ndim],
        boundary=draw(st.sampled_from(["periodic", "outflow"])),
    )
    kernel.ghost_width = draw(st.integers(1, 2))
    kernel.num_fields = draw(st.integers(1, 2))
    domain = Box(
        (0,) * ndim, tuple(draw(st.integers(1, 6)) for _ in range(ndim))
    )
    h = GridHierarchy(domain, kernel, max_levels=3)
    h.initialize()
    region = domain
    for level in range(1, draw(st.integers(1, 3))):
        region = draw_sub_box(draw, region).refine(h.refine_factor)
        pieces = draw_splits(draw, [region])
        keep = draw(
            st.lists(
                st.booleans(), min_size=len(pieces), max_size=len(pieces)
            ).filter(any)
        )
        h.set_level_boxes(
            level, BoxList(itertools.compress(pieces, keep))
        )
    for level in range(h.num_levels):
        boxes = draw_splits(draw, [p.box for p in h.levels[level]])
        h.repatch_level(level, BoxList(boxes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for lvl in h.levels:
        for patch in lvl:
            patch.data[...] = rng.standard_normal(patch.data.shape)
    return h


def snapshot(h: GridHierarchy) -> list[list[bytes]]:
    return [[p.data.tobytes() for p in lvl] for lvl in h.levels]


def restore(h: GridHierarchy, saved: list[list[bytes]]) -> None:
    for lvl, rows in zip(h.levels, saved):
        for patch, raw in zip(lvl, rows):
            patch.data[...] = np.frombuffer(raw).reshape(patch.data.shape)


@settings(max_examples=150, deadline=None)
@given(h=hierarchies(), data=st.data())
def test_plan_matches_recursive_walk(h, data):
    start = snapshot(h)
    for level in range(h.num_levels):
        ReferenceGhostFiller(h).fill_level_ghosts(level)
    expected = snapshot(h)

    restore(h, start)
    for level in range(h.num_levels):
        GhostFiller(h).fill_level_ghosts(level)
    assert snapshot(h) == expected

    # Composite reads, up to the first level not instantiated yet.
    for level in range(h.num_levels + 1):
        region = draw_sub_box(data.draw, h.domain_at(level))
        got = GhostFiller(h).fetch(region, level)
        ref = ReferenceGhostFiller(h).fetch(region, level)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


class TestEdges:
    def make(self, boundary="periodic", size=8):
        k = AdvectionKernel(velocity=(1.0, 0.5), boundary=boundary)
        h = GridHierarchy(Box((0, 0), (size, size)), k, max_levels=3)
        h.initialize()
        return h

    def test_fetch_outside_domain_raises_the_same_error(self):
        h = self.make()
        region = Box((6, 6), (9, 8))
        with pytest.raises(GeometryError) as new:
            GhostFiller(h).fetch(region, 0)
        with pytest.raises(GeometryError) as ref:
            ReferenceGhostFiller(h).fetch(region, 0)
        assert str(new.value) == str(ref.value)

    def test_fetch_two_levels_above_the_finest(self):
        h = self.make()
        region = Box((3, 5), (17, 30), 2)
        np.testing.assert_array_equal(
            GhostFiller(h).fetch(region, 2),
            ReferenceGhostFiller(h).fetch(region, 2),
        )

    def test_fetch_before_initialize_is_an_error(self):
        k = AdvectionKernel(velocity=(1.0, 0.5))
        h = GridHierarchy(Box((0, 0), (8, 8)), k)
        with pytest.raises(GeometryError, match="no levels"):
            GhostFiller(h).fetch(h.domain, 0)
