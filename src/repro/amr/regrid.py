"""The regrid operation (paper section 3): flag, cluster, regenerate.

``regrid_hierarchy`` rebuilds every refinable level of a hierarchy:

1. **Flagging** -- each parent level's cells are tagged with the kernel's
   error criterion (:mod:`repro.amr.flagging`), buffered so features stay
   refined between regrids;
2. **Clustering** -- flagged cells are clustered into boxes with
   Berger-Rigoutsos (:mod:`repro.amr.clustering`);
3. **Grid generation** -- clustered boxes are refined one level and
   installed with :meth:`GridHierarchy.set_level_boxes`, which transfers
   data from the old grids (copy where footprints overlap, prolongation
   elsewhere).

Levels are processed finest-parent-first so that the footprint of level
``l+2`` can be folded into level ``l``'s flags, preserving proper nesting.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.amr.clustering import berger_rigoutsos
from repro.amr.flagging import buffer_flags, flag_level
from repro.amr.hierarchy import GridHierarchy
from repro.util.geometry import Box, BoxList

__all__ = ["regrid_hierarchy", "RegridParams"]


class RegridParams:
    """Knobs of the regrid pipeline.

    Attributes
    ----------
    flag_threshold:
        Error-indicator value above which a cell is flagged.  Note the
        scale depends on the criterion: the kernel's gradient indicators
        are O(field range), Richardson estimates are O(truncation error).
    flag_buffer:
        Dilation (cells) applied to the flag mask.
    efficiency:
        Berger-Rigoutsos target flagged fraction per box.
    min_box_size:
        Minimum clustered box side (in parent-level cells).
    criterion:
        ``"gradient"`` -- the kernel's own error indicator (default) --
        or ``"richardson"`` -- Richardson-extrapolation truncation-error
        estimation (:func:`repro.amr.flagging.richardson_indicator`).
    """

    def __init__(
        self,
        flag_threshold: float = 0.1,
        flag_buffer: int = 1,
        efficiency: float = 0.7,
        min_box_size: int = 2,
        criterion: str = "gradient",
    ):
        if criterion not in ("gradient", "richardson"):
            raise ValueError(
                f"unknown criterion {criterion!r}; "
                "use 'gradient' or 'richardson'"
            )
        self.flag_threshold = flag_threshold
        self.flag_buffer = flag_buffer
        self.efficiency = efficiency
        self.min_box_size = min_box_size
        self.criterion = criterion


def _nesting_flags(
    hierarchy: GridHierarchy, parent_level: int, frame: Box, mask: np.ndarray
) -> np.ndarray:
    """Fold the (already regridded) level ``parent_level + 2`` footprint into
    ``mask`` so the new child level keeps covering its grandchildren."""
    grandchild = parent_level + 2
    if grandchild >= hierarchy.num_levels:
        return mask
    f = hierarchy.refine_factor
    out = mask.copy()
    for patch in hierarchy.levels[grandchild]:
        coarse = patch.box.coarsen(f).coarsen(f)  # down to parent level
        inter = coarse.intersection(frame)
        if inter is not None:
            out[inter.slices(origin=frame.lower)] = True
    return out


def regrid_hierarchy(
    hierarchy: GridHierarchy, params: RegridParams | None = None
) -> None:
    """Rebuild all refinable levels of ``hierarchy`` in place."""
    params = params or RegridParams()
    deepest_parent = min(hierarchy.num_levels - 1, hierarchy.max_levels - 2)
    for lvl in range(deepest_parent, -1, -1):
        _regrid_child_of(hierarchy, lvl, params)


def _regrid_child_of(
    hierarchy: GridHierarchy, parent: int, params: RegridParams
) -> None:
    from repro.amr.flagging import richardson_indicator
    from repro.amr.ghost import GhostFiller  # local import: regrid<->ghost

    child = parent + 1
    dx = hierarchy.cell_width(parent)
    indicator_fn = None
    if params.criterion == "richardson":
        indicator_fn = lambda data, d: richardson_indicator(  # noqa: E731
            hierarchy.kernel, data, d, factor=hierarchy.refine_factor
        )
    flagged = flag_level(
        hierarchy.kernel,
        hierarchy.levels[parent],
        dx,
        params.flag_threshold,
        buffer_cells=params.flag_buffer,
        bounding=hierarchy.domain_at(parent),
        fetch=GhostFiller(hierarchy).fetch,
        indicator_fn=indicator_fn,
    )
    if flagged is None:
        frame = functools.reduce(
            Box.bounding_union, (p.box for p in hierarchy.levels[parent])
        )
        mask = np.zeros(frame.shape, dtype=bool)
    else:
        mask, frame = flagged
    mask = _nesting_flags(hierarchy, parent, frame, mask)
    if not mask.any():
        # Nothing to refine: drop the child level if it exists and has no
        # grandchildren (the nesting fold guarantees that).
        if child < hierarchy.num_levels:
            hierarchy.set_level_boxes(child, BoxList())
        return
    # Re-buffer after folding nesting flags so grandchildren keep a margin.
    mask = buffer_flags(mask, 0)
    clusters = berger_rigoutsos(
        mask,
        origin=frame.lower,
        level=parent,
        efficiency=params.efficiency,
        min_size=params.min_box_size,
    )
    dom = hierarchy.domain_at(child)
    new_boxes = []
    for box in clusters:
        fine = box.refine(hierarchy.refine_factor)
        clipped = fine.intersection(dom)
        if clipped is not None:
            new_boxes.append(clipped)
    hierarchy.set_level_boxes(child, BoxList(new_boxes))


def build_initial_hierarchy(
    hierarchy: GridHierarchy, params: RegridParams | None = None
) -> None:
    """Initialize level 0 and regrid repeatedly until every admissible level
    exists (or no more cells are flagged)."""
    hierarchy.initialize()
    for _ in range(hierarchy.max_levels - 1):
        before = hierarchy.num_levels
        regrid_hierarchy(hierarchy, params)
        if hierarchy.num_levels == before:
            break
