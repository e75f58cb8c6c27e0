"""The dynamic adaptive grid hierarchy (Berger-Oliger, paper fig. 2).

A :class:`GridHierarchy` owns the level stack: level 0 covers the whole
computational domain at base resolution; each finer level is a union of
patches overlaying flagged regions of its parent, refined by a fixed factor
in space (and, under Berger-Oliger subcycling, in time).

The hierarchy is what the partitioner sees: :meth:`GridHierarchy.box_list`
returns the flattened bounding-box list that GrACE hands to the partitioning
routine at every regrid.
"""

from __future__ import annotations

import numpy as np

from repro.amr.api import AmrKernel
from repro.amr.ghost import GhostPlanCache
from repro.amr.intergrid import prolong, restrict
from repro.amr.level import GridLevel
from repro.amr.patch import GridPatch
from repro.util.errors import GeometryError
from repro.util.geometry import Box, BoxList

__all__ = ["GridHierarchy"]


class GridHierarchy:
    """Dynamic hierarchy of refinement levels over a rectangular domain.

    Parameters
    ----------
    domain:
        Level-0 box, lower corner at the origin.
    kernel:
        The application kernel (fixes num_fields, ghost width, physics).
    max_levels:
        Maximum hierarchy depth (paper's RM3D runs use 3).
    refine_factor:
        Space (and time) refinement ratio between levels (paper: 2).
    dx0:
        Cell width on level 0.
    """

    def __init__(
        self,
        domain: Box,
        kernel: AmrKernel,
        max_levels: int = 3,
        refine_factor: int = 2,
        dx0: float = 1.0,
    ):
        if domain.level != 0 or any(l != 0 for l in domain.lower):
            raise GeometryError("domain must be a level-0 box at the origin")
        if domain.ndim != kernel.ndim:
            raise GeometryError(
                f"domain is {domain.ndim}-D but kernel expects {kernel.ndim}-D"
            )
        if max_levels < 1:
            raise GeometryError(f"max_levels must be >= 1, got {max_levels}")
        if refine_factor < 2:
            raise GeometryError(f"refine_factor must be >= 2, got {refine_factor}")
        if dx0 <= 0:
            raise GeometryError(f"dx0 must be > 0, got {dx0}")
        kernel.validate()
        self.domain = domain
        self.kernel = kernel
        self.max_levels = max_levels
        self.refine_factor = refine_factor
        self.dx0 = dx0
        self._levels: list[GridLevel] = []
        self._flat_cache: BoxList | None = None
        #: ghost-fill / restriction plans per level (see repro.amr.ghost)
        self.ghost_plans = GhostPlanCache()
        self._domains = [domain]  # domain_at(level), refined on demand
        self.time = 0.0
        self.step_count = 0

    @property
    def levels(self) -> list[GridLevel]:
        """The level stack (replacing it invalidates the box-list cache)."""
        return self._levels

    @levels.setter
    def levels(self, value: list[GridLevel]) -> None:
        self._levels = value
        self._flat_cache = None

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def initialize(self) -> None:
        """Create level 0 (one patch covering the domain) with initial data."""
        patch = GridPatch(
            self.domain,
            num_fields=self.kernel.num_fields,
            ghost_width=self.kernel.ghost_width,
        )
        patch.interior = self.kernel.initial_condition(self.domain, self.dx0)
        self.levels = [GridLevel(0, [patch])]
        self.time = 0.0
        self.step_count = 0

    # ------------------------------------------------------------------
    # Geometry queries
    # ------------------------------------------------------------------
    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def cell_width(self, level: int) -> float:
        """dx on the given level."""
        return self.dx0 / self.refine_factor**level

    def domain_at(self, level: int) -> Box:
        """The whole domain expressed in ``level`` index space."""
        domains = self._domains
        while len(domains) <= level:
            domains.append(domains[-1].refine(self.refine_factor))
        return domains[level]

    def box_list(self) -> BoxList:
        """Flattened bounding boxes of every level (what partitioners see).

        The list -- and through it the :class:`BoxArray` column cache every
        downstream consumer shares (SFC keys, work vectors, disjointness
        sweeps) -- is memoized until the hierarchy's geometry changes, so
        repeated repartitions of an unchanged hierarchy extract box
        coordinates exactly once.
        """
        cached = self._flat_cache
        if cached is not None and len(cached) == sum(
            len(lvl) for lvl in self._levels
        ):
            return cached
        cached = BoxList(p.box for lvl in self._levels for p in lvl.patches)
        self._flat_cache = cached
        return cached

    def subcycles(self, level: int) -> int:
        """Kernel steps taken on ``level`` per coarse (level-0) step."""
        return self.refine_factor**level

    def work_by_level(self) -> np.ndarray:
        """Work units per level for one coarse step: cells x subcycles.

        This is the paper's observation that finer grids "not only have a
        larger number of grid elements but are also updated more frequently".
        """
        return np.array(
            [lvl.total_cells * self.subcycles(lvl.level) for lvl in self.levels],
            dtype=np.int64,
        )

    # ------------------------------------------------------------------
    # Nesting
    # ------------------------------------------------------------------
    def proper_nesting_ok(self) -> bool:
        """Every fine box, coarsened, must be covered by its parent level
        and lie inside the domain."""
        for idx in range(1, self.num_levels):
            parent = self.levels[idx - 1]
            dom = self.domain_at(idx)
            for patch in self.levels[idx]:
                if not dom.contains_box(patch.box):
                    return False
                coarse = patch.box.coarsen(self.refine_factor)
                if not parent.covers(coarse):
                    return False
        return True

    # ------------------------------------------------------------------
    # Level rebuild (regrid step 3)
    # ------------------------------------------------------------------
    def set_level_boxes(self, level: int, boxes: BoxList) -> None:
        """Replace the patches of ``level`` with ``boxes``, transferring data.

        New patches are first filled by prolongation from the parent level,
        then overwritten with old same-level data wherever the footprints
        overlap -- the standard regrid data transfer.  Level 0 cannot be
        replaced (it always covers the domain).
        """
        if level == 0:
            raise GeometryError("level 0 is static; regrid finer levels only")
        if not 1 <= level <= self.num_levels:
            raise GeometryError(
                f"cannot set level {level}: hierarchy has {self.num_levels} "
                "levels (may extend by at most one)"
            )
        if level >= self.max_levels:
            raise GeometryError(
                f"level {level} exceeds max_levels={self.max_levels}"
            )
        dom = self.domain_at(level)
        self._check_level_boxes(boxes, level, dom)

        old_level = self.levels[level] if level < self.num_levels else None
        new_level = GridLevel(level)
        parent = self.levels[level - 1]
        for box in boxes:  # per-box ok: allocates GridPatch field storage
            patch = GridPatch(
                box,
                num_fields=self.kernel.num_fields,
                ghost_width=self.kernel.ghost_width,
            )
            self._fill_from_parent(patch, parent)
            if old_level is not None:
                for old in old_level:
                    inter = old.box.intersection(box)
                    if inter is not None:
                        patch.copy_region_from(old, inter)
            new_level.add_patch(patch)

        if level < self.num_levels:
            self.levels[level] = new_level
        else:
            self.levels.append(new_level)
        # Drop now-empty tail levels so num_levels reflects reality.
        while self.levels and len(self.levels[-1]) == 0:
            self.levels.pop()
        self._flat_cache = None

    def repatch_level(self, level: int, boxes: BoxList) -> None:
        """Re-tile an existing level's footprint with a new patch layout.

        This is how a partitioner's box splits become the hierarchy's patch
        structure (in GrACE the partitioner output *is* the decomposition).
        Unlike :meth:`set_level_boxes`, level 0 is allowed -- the new boxes
        must then tile the domain exactly -- and for finer levels the new
        boxes must cover exactly the old footprint (repatching never grows
        or shrinks a level; regridding does that).
        """
        if not 0 <= level < self.num_levels:
            raise GeometryError(f"cannot repatch non-existent level {level}")
        old_level = self.levels[level]
        old_cells = old_level.total_cells
        new_cells = boxes.total_cells
        if old_cells != new_cells:
            raise GeometryError(
                f"repatch changes level {level} coverage: "
                f"{old_cells} cells -> {new_cells}"
            )
        bad = np.flatnonzero(boxes.array.level != level)
        if bad.size:
            raise GeometryError(
                f"box {boxes[int(bad[0])]} is not at level {level}"
            )
        new_patches = GridLevel(level)
        for box in boxes:  # per-box ok: allocates GridPatch field storage
            patch = GridPatch(
                box,
                num_fields=self.kernel.num_fields,
                ghost_width=self.kernel.ghost_width,
            )
            covered = 0
            for old in old_level:
                inter = old.box.intersection(box)
                if inter is not None:
                    patch.copy_region_from(old, inter)
                    covered += inter.num_cells
            if covered != box.num_cells:
                raise GeometryError(
                    f"repatch box {box} not covered by the old level "
                    f"({covered}/{box.num_cells} cells)"
                )
            new_patches.add_patch(patch)
        self.levels[level] = new_patches
        self._flat_cache = None

    @staticmethod
    def _check_level_boxes(boxes: BoxList, level: int, dom: Box) -> None:
        """Columnar validation: every box at ``level`` and inside ``dom``.

        Raises for the first offending box in list order with the same
        message the old per-box walk produced (level mismatch reported
        before containment, as before).
        """
        if len(boxes) == 0:
            return
        arr = boxes.array
        bad_level = arr.level != level
        lo = np.asarray(dom.lower, dtype=arr.lower.dtype)
        up = np.asarray(dom.upper, dtype=arr.upper.dtype)
        outside = np.any(arr.lower < lo, axis=1) | np.any(arr.upper > up, axis=1)
        bad = np.flatnonzero(bad_level | outside)
        if bad.size:
            first = int(bad[0])
            if bad_level[first]:
                raise GeometryError(
                    f"box {boxes[first]} is not at level {level}"
                )
            raise GeometryError(f"box {boxes[first]} outside domain {dom}")

    def _fill_from_parent(self, patch: GridPatch, parent: GridLevel) -> None:
        """Initialize a new fine patch by prolonging parent data."""
        coarse_box = patch.box.coarsen(self.refine_factor)
        for pp in parent:
            inter = pp.box.intersection(coarse_box)
            if inter is None:
                continue
            coarse_data = pp.view_for(inter)
            fine_data = prolong(coarse_data, self.refine_factor)
            fine_region = inter.refine(self.refine_factor)
            target = fine_region.intersection(patch.box)
            if target is None:
                continue
            sl = (slice(None),) + target.slices(origin=fine_region.lower)
            patch.view_for(target)[...] = fine_data[sl]

    # ------------------------------------------------------------------
    # Restriction (fine -> coarse sync)
    # ------------------------------------------------------------------
    def restrict_level(self, fine_level: int) -> None:
        """Average fine data onto the parent level where they overlap.

        Fine boxes need not be refinement-aligned (the partitioner may have
        split them anywhere): only the aligned core of each box -- lower
        corner rounded up, upper corner rounded down to coarse-cell
        boundaries -- is restricted; the sub-cell fringe is covered by the
        sibling box that owns the other part of the coarse cell.
        """
        if not 1 <= fine_level < self.num_levels:
            raise GeometryError(f"no fine level {fine_level} to restrict")
        f = self.refine_factor
        plan = self.ghost_plans.level_plan(self, fine_level)
        for fine, core, partners in plan.restrictions:
            coarsened = restrict(fine.data[core], f)
            for parent, into, sub in partners:
                parent.data[into] = coarsened[sub]
