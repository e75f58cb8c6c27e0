"""Ghost-cell filling and communication-volume planning.

Three jobs live here:

1. :class:`GhostFiller` -- before each kernel step, fill every patch's ghost
   frame from (in priority order) same-level sibling patches, then coarser
   ancestor levels via prolongation, with periodic wrapping or outflow
   replication at the physical domain boundary.  This is the sequential
   (in-memory) realization of what MPI ghost exchanges do on a real cluster.

   Because :func:`~repro.amr.intergrid.prolong` is pure injection, a fill
   is pure data movement: every ghost cell is a copy of exactly one
   interior cell of the finest patch covering its (periodically wrapped)
   position.  *Which* cell depends only on the patch layout, so it is
   resolved once per layout into a :class:`LevelPlan` -- a list of copy
   ops -- and every fill until the next regrid, migration or restore just
   replays that list.

2. :func:`plan_exchange_volumes` -- given the partitioner's box->rank
   assignment, compute how many bytes *would* cross each rank pair during
   one ghost exchange.  The runtime's time model prices this against the
   simulated interconnect, which is how partitioning locality shows up in
   execution time.

3. :func:`ghost_plan_bytes` -- the same question asked of a
   :class:`LevelPlan`: the bytes the executor *actually* moves between
   ranks, split by term, so the charge model can be held against it.
"""

from __future__ import annotations

import itertools
import operator
from typing import Mapping, Sequence

import numpy as np

from repro.amr.intergrid import prolong
from repro.amr.patch import GridPatch
from repro.util.errors import GeometryError
from repro.util.geometry import (
    Box,
    BoxArray,
    BoxList,
    overlap_pairs,
    volumes_by_rank_pair,
)

__all__ = [
    "GhostFiller",
    "GhostPlanCache",
    "LevelPlan",
    "ghost_plan_bytes",
    "plan_exchange_volumes",
]

#: One copy: ``dst.data[dst_slices] = src.data[src_slices]``, the source
#: block first injected ``k`` times per axis and cut to ``sub_slices`` when
#: it comes from a coarser level (``k = refine_factor ** level gap > 1``).
CopyOp = tuple[GridPatch, tuple, GridPatch, tuple, int, tuple]


def _columns(
    patches: Sequence[GridPatch],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(n, ndim)`` lower/upper corner columns of the patches' boxes and
    the level coordinate of each patch's ``data`` index 0."""
    boxes = BoxArray.from_boxes([p.box for p in patches])
    ghost = np.array([p.ghost_width for p in patches], dtype=np.int64)
    return boxes.lower, boxes.upper, boxes.lower - ghost[:, None]


def _slices(lower: np.ndarray, upper: np.ndarray) -> list[tuple]:
    """Rows of corner offsets as NumPy index tuples (fields axis leading)."""
    return [
        (slice(None), *map(slice, lo, up))
        for lo, up in zip(lower.tolist(), upper.tolist())
    ]


def _copy_ops(
    hierarchy,
    level: int,
    src_lo: np.ndarray,
    src_up: np.ndarray,
    dst_lo: np.ndarray,
    targets: Sequence[GridPatch],
    target_of: np.ndarray,
) -> tuple[list[CopyOp], np.ndarray]:
    """Which patch sources which cell: regions of ``level`` -> copy ops.

    Row ``r`` is the in-domain region ``[src_lo[r], src_up[r])`` of
    ``level`` index space; its data lands in ``targets[target_of[r]].data``
    starting at array index ``dst_lo[r]``.  Every cell is served by the
    finest patch (of a level ``<= level``) covering it: one
    :func:`~repro.util.geometry.overlap_pairs` sweep per source level of the
    rows coarsened by ``k = f ** (level - l)`` (floor/ceil, the composition
    of ``Box.coarsen``) against that level's patch columns.  A row that one
    level covers completely (patches of a level are disjoint, so the
    overlap volumes just add up) asks nothing of the coarser ones.

    Returns the ops sorted by target, each target's run *coarsest source
    first* so that replaying it in order lets finer data overwrite
    coarser, and the run boundaries (``ops[bounds[i]:bounds[i + 1]]``
    writes ``targets[i]``).
    """
    f = hierarchy.refine_factor
    levels = hierarchy.levels
    cells = (src_up - src_lo).prod(axis=1)
    active = np.arange(len(src_lo))
    #: (ops, target index of each) per source level, finest first
    found: list[tuple[list[CopyOp], np.ndarray]] = []
    for src_level in range(min(level, len(levels) - 1), -1, -1):
        if not active.size:
            break
        k = f ** (level - src_level)
        sources = levels[src_level].patches
        p_lo, p_up, p_origin = _columns(sources)
        hit, patch, _ = overlap_pairs(
            np.floor_divide(src_lo[active], k),
            -np.floor_divide(-src_up[active], k),
            p_lo,
            p_up,
        )
        row = active[hit]
        # The cells of the row this patch serves, in ``level`` coordinates,
        # and the source cells they are copies of.
        part_lo = np.maximum(src_lo[row], p_lo[patch] * k)
        part_up = np.minimum(src_up[row], p_up[patch] * k)
        block_lo = np.floor_divide(part_lo, k)
        block_up = -np.floor_divide(-part_up, k)
        shift = (dst_lo - src_lo)[row]
        target = target_of[row]
        ops = [
            (targets[t], dst, sources[p], src, k, sub)
            for t, dst, p, src, sub in zip(
                target.tolist(),
                _slices(part_lo + shift, part_up + shift),
                patch.tolist(),
                _slices(block_lo - p_origin[patch], block_up - p_origin[patch]),
                _slices(part_lo - block_lo * k, part_up - block_lo * k),
            )
        ]
        found.append((ops, target))
        served = np.bincount(
            hit, weights=(part_up - part_lo).prod(axis=1), minlength=active.size
        )
        active = active[served < cells[active]]
    found.reverse()
    ops = [op for chunk, _ in found for op in chunk]
    target = np.concatenate([target_of[:0], *(t for _, t in found)])
    by_target = np.argsort(target, kind="stable")
    return (
        [ops[i] for i in by_target.tolist()],
        np.searchsorted(target[by_target], np.arange(len(targets) + 1)),
    )


def _replay(ops: Sequence[CopyOp]) -> None:
    for dst, dst_slices, src, src_slices, k, sub_slices in ops:
        block = src.data[src_slices]
        if k > 1:
            block = prolong(block, k)[sub_slices]
        dst.data[dst_slices] = block


class LevelPlan:
    """Everything one level's ghost fill and restriction need that depends
    only on the patch layout.

    Attributes
    ----------
    sources:
        The patch objects of levels ``0..level`` the plan was built from;
        the plan is valid exactly as long as the hierarchy still holds
        these objects (regrid, ``repatch_level`` and checkpoint restore
        all create new ones).
    ops, bounds:
        The fill: copy ops grouped by destination patch
        (``ops[bounds[i]:bounds[i + 1]]`` fills ``sources[level][i]``),
        coarsest source first within a patch.
    restrictions:
        The fine->coarse sync: ``(fine patch, aligned-core slices,
        ((parent patch, parent slices, coarsened sub-slices), ...))`` in
        fine-major / parent-minor order.
    """

    __slots__ = ("sources", "ops", "bounds", "restrictions")

    def __init__(self, hierarchy, level: int):
        self.sources = tuple(
            tuple(lvl.patches) for lvl in hierarchy.levels[: level + 1]
        )
        patches = self.sources[level]
        box_lo, box_up, origin = _columns(patches)
        self.ops, self.bounds = self._fill_ops(
            hierarchy, level, patches, box_lo, box_up, origin
        )
        self.restrictions = (
            self._restriction_partners(
                hierarchy.refine_factor,
                patches,
                self.sources[level - 1],
                box_lo,
                box_up,
                origin,
            )
            if level
            else []
        )

    def built_from(self, levels) -> bool:
        """True while ``levels`` still holds exactly the recorded patches."""
        return len(levels) >= len(self.sources) and all(
            len(lvl.patches) == len(recorded)
            and all(map(operator.is_, lvl.patches, recorded))
            for lvl, recorded in zip(levels, self.sources)
        )

    @staticmethod
    def _fill_ops(hierarchy, level, patches, box_lo, box_up, origin):
        ndim = box_lo.shape[1]
        # The ghost frame of every patch as 2 * ndim disjoint slabs (the
        # decomposition of ``Box.difference``): peel both sides off one
        # axis, shrink that axis to the interior, go on to the next.
        lo, up = origin.copy(), box_up + (box_lo - origin)
        slab_lo, slab_up = [], []
        for axis in range(ndim):
            below_up, above_lo = up.copy(), lo.copy()
            below_up[:, axis] = box_lo[:, axis]
            above_lo[:, axis] = box_up[:, axis]
            slab_lo += [lo.copy(), above_lo]
            slab_up += [below_up, up.copy()]
            lo[:, axis], up[:, axis] = box_lo[:, axis], box_up[:, axis]
        slab_lo, slab_up = np.concatenate(slab_lo), np.concatenate(slab_up)
        owner = np.tile(np.arange(len(patches)), 2 * ndim)
        # Each slab meets the domain and, on a torus, its 3**ndim - 1
        # translated images; the part inside an image is read from the
        # position shifted back.  Outside every image (outflow) nothing is
        # copied -- ``_replicate_outflow`` fills those cells.
        dom = hierarchy.domain_at(level)
        shifts = np.zeros((1, ndim), dtype=np.int64)
        if hierarchy.kernel.boundary == "periodic":
            shifts = np.array(
                list(itertools.product(*[(-e, 0, e) for e in dom.shape])),
                dtype=np.int64,
            )
        part_lo = np.maximum(slab_lo, (np.array(dom.lower) + shifts)[:, None])
        part_up = np.minimum(slab_up, (np.array(dom.upper) + shifts)[:, None])
        image, slab = np.nonzero((part_up > part_lo).all(axis=2))
        part_lo, part_up = part_lo[image, slab], part_up[image, slab]
        target_of = owner[slab]
        return _copy_ops(
            hierarchy,
            level,
            part_lo - shifts[image],
            part_up - shifts[image],
            part_lo - origin[target_of],
            patches,
            target_of,
        )

    @staticmethod
    def _restriction_partners(f, patches, parents, box_lo, box_up, origin):
        # Aligned core: lower corner rounded up, upper corner rounded down
        # to coarse-cell boundaries; boxes thinner than one coarse cell
        # have none.
        core_lo = -np.floor_divide(-box_lo, f) * f
        core_up = np.floor_divide(box_up, f) * f
        has_core = np.flatnonzero((core_lo < core_up).all(axis=1))
        coarse_lo, coarse_up = core_lo[has_core] // f, core_up[has_core] // f
        p_lo, p_up, p_origin = _columns(parents)
        fine, parent, _ = overlap_pairs(coarse_lo, coarse_up, p_lo, p_up)
        inter_lo = np.maximum(coarse_lo[fine], p_lo[parent])
        inter_up = np.minimum(coarse_up[fine], p_up[parent])
        core = _slices(core_lo - origin, core_up - origin)
        into = _slices(inter_lo - p_origin[parent], inter_up - p_origin[parent])
        sub = _slices(inter_lo - coarse_lo[fine], inter_up - coarse_lo[fine])
        partners = [
            (parents[p], i, s) for p, i, s in zip(parent.tolist(), into, sub)
        ]
        starts = np.searchsorted(fine, np.arange(len(has_core) + 1)).tolist()
        return [
            (patches[i], core[i], tuple(partners[a:b]))
            for i, a, b in zip(has_core.tolist(), starts, starts[1:])
            if a < b
        ]


class GhostPlanCache:
    """A hierarchy's level plans, each checked against the live patch
    objects before every use (no invalidation hooks to forget)."""

    __slots__ = ("_plans", "builds", "replays")

    def __init__(self):
        self._plans: dict[int, LevelPlan] = {}
        #: level plans built / ghost fills replayed from one, since creation
        self.builds = 0
        self.replays = 0

    def level_plan(self, hierarchy, level: int) -> LevelPlan:
        """The plan for ``level``, rebuilt if any patch of levels
        ``0..level`` was replaced since it was built.  Plans of other
        levels that went stale (or whose level vanished) are dropped on
        the way, so a dead layout's patches are not kept alive."""
        levels = hierarchy.levels
        plans = self._plans
        for stale in [l for l, p in plans.items() if not p.built_from(levels)]:
            del plans[stale]
        plan = plans.get(level)
        if plan is None:
            plan = plans[level] = LevelPlan(hierarchy, level)
            self.builds += 1
        return plan


class GhostFiller:
    """Fills ghost frames of hierarchy patches.

    Parameters
    ----------
    hierarchy:
        The :class:`~repro.amr.hierarchy.GridHierarchy` to serve.  The
        copy plans live with it (``hierarchy.ghost_plans``), so every
        filler of one hierarchy shares them.
    """

    def __init__(self, hierarchy):
        self.hierarchy = hierarchy

    # ------------------------------------------------------------------
    def fetch(self, region: Box, level: int) -> np.ndarray:
        """Composite-grid read: data for ``region`` (inside the domain at
        ``level``), taken from the finest available source at each cell --
        same-level patches where they exist, prolonged ancestor data
        elsewhere (all of it for a level not instantiated yet).  Level 0
        always covers the domain, so this never fails.
        """
        h = self.hierarchy
        dom = h.domain_at(level)
        if not dom.contains_box(region):
            raise GeometryError(f"fetch region {region} outside domain {dom}")
        if not h.levels:
            raise GeometryError("fetch from a hierarchy that has no levels yet")
        out = GridPatch(region, num_fields=h.kernel.num_fields, ghost_width=0)
        lower = np.array([region.lower], dtype=np.int64)
        upper = np.array([region.upper], dtype=np.int64)
        ops, _ = _copy_ops(
            h, level, lower, upper, np.zeros_like(lower), [out], np.zeros(1, np.intp)
        )
        _replay(ops)
        return out.data

    # ------------------------------------------------------------------
    def fill_level_ghosts(self, level: int) -> None:
        """Fill every patch of a level."""
        plan = self._plan(level)
        _replay(plan.ops)
        self._replicate_outflow(plan.sources[level], level)

    def _plan(self, level: int) -> LevelPlan:
        cache = self.hierarchy.ghost_plans
        cache.replays += 1
        return cache.level_plan(self.hierarchy, level)

    def _replicate_outflow(self, patches, level: int) -> None:
        """Zero-gradient boundary: copy the outermost in-domain plane into
        out-of-domain ghost planes, axis by axis (fills corners too)."""
        if self.hierarchy.kernel.boundary != "outflow":
            return
        dom = self.hierarchy.domain_at(level)
        for patch in patches:
            g = patch.ghost_width
            data = patch.data
            for axis in range(patch.box.ndim):
                ax = axis + 1  # account for the fields axis
                # ghosts below the domain
                low_out = dom.lower[axis] - (patch.box.lower[axis] - g)
                if low_out > 0:
                    edge = np.take(data, [low_out], axis=ax)
                    idx = [slice(None)] * data.ndim
                    idx[ax] = slice(0, low_out)
                    data[tuple(idx)] = edge
                # ghosts above the domain
                high_out = patch.box.upper[axis] + g - dom.upper[axis]
                if high_out > 0:
                    n = data.shape[ax]
                    edge = np.take(data, [n - high_out - 1], axis=ax)
                    idx = [slice(None)] * data.ndim
                    idx[ax] = slice(n - high_out, n)
                    data[tuple(idx)] = edge


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


def ghost_plan_bytes(
    plan: LevelPlan,
    owners: Sequence[int] | np.ndarray,
    bytes_per_cell: float = 8.0,
) -> dict[str, dict[tuple[int, int], float]]:
    """Bytes one replay of ``plan`` moves between ranks, term by term.

    ``owners`` is the rank of every patch of levels ``0..level`` in
    flattened box-list order (the head of ``result.rank_vector()``).
    Three dicts in :func:`plan_exchange_volumes`' format, read off the op
    list alone:

    - ``"same_level"`` -- copies from a sibling at the same position, the
      traffic the charge model's intra-level term bills (and exactly it:
      the two agree key for key, byte for byte);
    - ``"wrap"`` -- same-level copies displaced by a domain period, which
      the charge model does not see;
    - ``"inter_level"`` -- cells injected from a coarser level: only the
      ghost cells no finer patch covers, counted in coarse source cells,
      where the charge model bills the whole coarsened footprint.
    """
    ranks = np.asarray(owners, dtype=np.int64)
    row = {
        patch: i for i, patch in enumerate(itertools.chain(*plan.sources))
    }
    if ranks.shape != (len(row),):
        raise GeometryError(
            f"{ranks.size} owner ranks for {len(row)} patches"
        )
    flows: dict[str, list[tuple[int, int, int]]] = {
        "same_level": [],
        "wrap": [],
        "inter_level": [],
    }
    for dst, dst_slices, src, src_slices, k, _ in plan.ops:
        cells = 1
        displaced = False
        for axis, (d, s) in enumerate(zip(dst_slices[1:], src_slices[1:])):
            cells *= s.stop - s.start
            displaced |= (
                d.start + dst.box.lower[axis] - dst.ghost_width
                != s.start + src.box.lower[axis] - src.ghost_width
            )
        term = "inter_level" if k > 1 else "wrap" if displaced else "same_level"
        flows[term].append((ranks[row[src]], ranks[row[dst]], cells))
    return {
        term: volumes_by_rank_pair(
            *np.array(rows, dtype=np.int64).reshape(-1, 3).T, bytes_per_cell
        )
        for term, rows in flows.items()
    }
