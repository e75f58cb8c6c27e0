"""Plain-text visualization of grid hierarchies and partitions.

Renders a 2-D hierarchy (or an axis-plane slice of a 3-D one) as a
character map: digits mark the finest refinement level covering each base
cell, or -- given an assignment -- letters mark the owning rank.  Used by
examples and handy in a REPL; no plotting dependency.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import GeometryError
from repro.util.geometry import Box, BoxList, Layout

__all__ = ["render_levels", "render_owners"]

_RANK_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _slice_boxes(
    boxes: BoxList, axis: int, index: int, refine_factor: int
) -> list[tuple[Box, Box]]:
    """Project 3-D boxes crossing base-plane ``index`` on ``axis`` to 2-D.

    Returns (original, projected-2D-box) pairs; 2-D inputs pass through.
    """
    out = []
    for b in boxes:
        if b.ndim == 2:
            out.append((b, b))
            continue
        scale = refine_factor**b.level
        lo, hi = b.lower[axis], b.upper[axis]
        if not lo <= index * scale < hi:
            continue
        keep = [d for d in range(3) if d != axis]
        out.append(
            (
                b,
                Box(
                    tuple(b.lower[d] for d in keep),
                    tuple(b.upper[d] for d in keep),
                    b.level,
                ),
            )
        )
    return out


def _base_footprint(box2d: Box, refine_factor: int) -> tuple[slice, slice]:
    scale = refine_factor**box2d.level
    return tuple(
        slice(l // scale, -(-u // scale))
        for l, u in zip(box2d.lower, box2d.upper)
    )


def render_levels(
    boxes: BoxList,
    domain: Box,
    refine_factor: int = 2,
    slice_axis: int = 2,
    slice_index: int = 0,
) -> str:
    """Character map of the finest level covering each base cell.

    ``'.'`` = level 0 only, digits = deepest overlying refinement level.
    3-D hierarchies are sliced at base-cell ``slice_index`` along
    ``slice_axis``.
    """
    if domain.ndim not in (2, 3):
        raise GeometryError("render supports 2-D and 3-D hierarchies")
    if domain.ndim == 3:
        keep = [d for d in range(3) if d != slice_axis]
        shape = tuple(domain.shape[d] for d in keep)
    else:
        shape = domain.shape
    grid = np.zeros(shape, dtype=int)
    pairs = (
        _slice_boxes(boxes, slice_axis, slice_index, refine_factor)
        if domain.ndim == 3
        else [(b, b) for b in boxes]
    )
    for original, b2 in pairs:
        if original.level == 0:
            continue
        sl = _base_footprint(b2, refine_factor)
        grid[sl] = np.maximum(grid[sl], original.level)
    lines = []
    for j in range(shape[1] - 1, -1, -1):  # y upward
        row = "".join(
            "." if grid[i, j] == 0 else str(min(grid[i, j], 9))
            for i in range(shape[0])
        )
        lines.append(row)
    return "\n".join(lines)


def render_owners(
    layout: Layout,
    domain: Box,
    refine_factor: int = 2,
    level: int = 0,
    slice_axis: int = 2,
    slice_index: int = 0,
) -> str:
    """Character map of rank ownership at one refinement level.

    Letters a, b, c, ... mark ranks; ``' '`` marks base cells the level
    does not cover.
    """
    ranks = {b: r for b, r in layout.pairs() if b.level == level}
    level_boxes = BoxList(ranks)
    if domain.ndim == 3:
        keep = [d for d in range(3) if d != slice_axis]
        shape = tuple(domain.shape[d] for d in keep)
        pairs = _slice_boxes(level_boxes, slice_axis, slice_index, refine_factor)
    else:
        shape = domain.shape
        pairs = [(b, b) for b in level_boxes]
    grid = np.full(shape, -1, dtype=int)
    for original, b2 in pairs:
        sl = _base_footprint(b2, refine_factor)
        grid[sl] = ranks[original]
    lines = []
    for j in range(shape[1] - 1, -1, -1):
        row = "".join(
            " " if grid[i, j] < 0 else _RANK_CHARS[grid[i, j] % len(_RANK_CHARS)]
            for i in range(shape[0])
        )
        lines.append(row)
    return "\n".join(lines)
