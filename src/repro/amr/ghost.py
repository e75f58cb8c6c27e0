"""Ghost-cell filling and communication-volume planning.

Two jobs live here:

1. :class:`GhostFiller` -- before each kernel step, fill every patch's ghost
   frame from (in priority order) same-level sibling patches, then coarser
   ancestor levels via prolongation, with periodic wrapping or outflow
   replication at the physical domain boundary.  This is the sequential
   (in-memory) realization of what MPI ghost exchanges do on a real cluster.

2. :func:`plan_exchange_volumes` -- given the partitioner's box->rank
   assignment, compute how many bytes *would* cross each rank pair during
   one ghost exchange.  The runtime's time model prices this against the
   simulated interconnect, which is how partitioning locality shows up in
   execution time.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

import numpy as np

from repro.amr.intergrid import prolong
from repro.util.errors import GeometryError
from repro.util.geometry import (
    Box,
    BoxArray,
    BoxList,
    overlap_pairs,
    volumes_by_rank_pair,
)

__all__ = ["GhostFiller", "plan_exchange_volumes"]


class GhostFiller:
    """Fills ghost frames of hierarchy patches.

    Parameters
    ----------
    hierarchy:
        The :class:`~repro.amr.hierarchy.GridHierarchy` to serve.
    """

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
            shifted_dom = dom.translate(shift)
            part = piece.intersection(shifted_dom)
            if part is None:
                continue
            source = part.translate(tuple(-s for s in shift))
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
# Communication-volume planning
# ---------------------------------------------------------------------------
def plan_exchange_volumes(
    boxes: BoxList | BoxArray,
    owners: Mapping[Box, int] | Sequence[int] | np.ndarray,
    ghost_width: int = 1,
    bytes_per_cell: float = 8.0,
    refine_factor: int = 2,
) -> dict[tuple[int, int], float]:
    """Bytes crossing each rank pair in one ghost-exchange phase.

    Intra-level traffic: for same-level boxes A, B with different owners,
    the cells of ``B`` inside ``A.grow(ghost_width)`` must be shipped from
    B's owner to A's owner.  Inter-level traffic: each fine box needs a
    prolongation source -- its coarsened ghost footprint -- from every
    parent-level box it overlaps that lives on another rank.

    Parameters mirror the partitioner output: ``owners`` is the rank of
    every row of ``boxes`` (``result.rank_vector()``), or a Box-keyed
    mapping covering every box, lowered to that vector here.

    Key insertion order is part of the contract
    (:meth:`~repro.comm.simmpi.SimCommunicator.exchange_time` sums busy
    time in it): intra-level pairs first, levels in order of first
    appearance, grown box major and partner minor; then the inter-level
    pairs by ascending fine level, fine box major and parent minor.
    """
    if ghost_width < 0:
        raise GeometryError(f"negative ghost width {ghost_width}")
    bl = boxes if isinstance(boxes, BoxList) else BoxList.from_array(boxes)
    if isinstance(owners, Mapping):
        owners = list(map(owners.get, bl))
        if None in owners:
            raise GeometryError(
                f"box {bl[owners.index(None)]} missing from ownership map"
            )
    arr = bl.array
    ranks = np.asarray(owners, dtype=np.int64)
    if ranks.shape != (len(arr),):
        raise GeometryError(f"{ranks.size} owner ranks for {len(arr)} boxes")
    gw = int(ghost_width)
    levels, first_seen = np.unique(arr.level, return_index=True)
    rows = {lvl: arr.level_indices(lvl) for lvl in levels.tolist()}
    #: (src rank, dst rank, cells) columns, one entry per sweep
    flows: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    # Intra-level ghost traffic (none without a ghost frame; a box meeting
    # itself is same-rank traffic, dropped with the rest of it below).
    appearance = levels[np.argsort(first_seen)].tolist() if gw else []
    for lvl in appearance:
        pos = rows[lvl]
        lo, up = arr.lower[pos], arr.upper[pos]
        grown, partner, cells = overlap_pairs(lo - gw, up + gw, lo, up)
        flows.append((ranks[pos[partner]], ranks[pos[grown]], cells))

    # Inter-level prolongation traffic (fine pulls from coarse).
    for lvl in levels.tolist():
        parents = rows.get(lvl - 1)
        if parents is None:
            continue
        if refine_factor < 2:
            raise GeometryError(
                f"coarsening factor must be >= 2, got {refine_factor}"
            )
        pos = rows[lvl]
        fine, parent, cells = overlap_pairs(
            np.floor_divide(arr.lower[pos] - gw, refine_factor),
            -np.floor_divide(-(arr.upper[pos] + gw), refine_factor),  # ceil
            arr.lower[parents],
            arr.upper[parents],
        )
        flows.append((ranks[parents[parent]], ranks[pos[fine]], cells))
    if not flows:
        return {}
    src, dst, cells = map(np.concatenate, zip(*flows))
    return volumes_by_rank_pair(src, dst, cells, bytes_per_cell)
