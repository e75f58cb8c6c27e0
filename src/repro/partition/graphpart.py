"""Graph-based partitioning (the related-work quadrant of ParMETIS/Zoltan).

The paper's taxonomy (section 2) cites graph partitioners -- Karypis et
al.'s ParMETIS [18], Hendrickson & Devine's Zoltan [21] -- as the dynamic-
application/static-system state of the art.  :class:`GraphPartitioner`
implements that approach over the SAMR box graph, extended with
heterogeneous capacity targets so it can compete in this framework:

1. Build the **box connectivity graph**: one node per bounding box
   (weight = work), edges between boxes that would exchange ghost data,
   weighted by the exchange volume (shared-face cells, plus inter-level
   prolongation overlap).
2. **Recursive weighted bisection**: split the rank set in two, divide the
   target capacity accordingly, and grow one side of the graph by
   boundary-first BFS until its work matches its capacity share --
   minimizing the cut heuristically by always absorbing the frontier node
   with the largest connectivity into the growing part.
3. Recurse on both halves.

No box splitting is performed (graph partitioners move whole objects), so
granularity comes from the regrid -- comparing against ACEHeterogeneous
isolates what constrained splitting buys over pure graph methods.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.partition.base import (
    Partitioner,
    PartitionResult,
    WorkModel,
    as_work_model,
    check_tiling,
)
from repro.util.geometry import BoxList, Layout, overlap_pairs

__all__ = ["BoxGraph", "build_box_graph", "GraphPartitioner"]


class BoxGraph(NamedTuple):
    """Node ``i`` is row ``i`` of the box list it was built from."""

    #: work of each node
    works: list[float]
    #: ``adjacency[i][j]``: exchange volume (cells) of edge ``i -- j``;
    #: stored in both directions
    adjacency: list[dict[int, int]]


def build_box_graph(
    boxes: BoxList,
    work_of: WorkModel | None,
    ghost_width: int = 1,
    refine_factor: int = 2,
) -> BoxGraph:
    """Connectivity graph of a hierarchy's bounding boxes.

    Node work is priced in one vectorized pass.  Edge volume: cells that
    would cross between the two boxes in one ghost exchange (both
    directions), including coarse-fine prolongation overlap.

    Edges are generated over the list's columns: per level,
    :func:`~repro.util.geometry.overlap_pairs` (axis-0 sweep + exact
    extent test) yields the overlapping pairs and their cell counts --
    exact integers, identical to the old per-pair ``Box.intersection``
    walk.
    """
    arr = boxes.array
    g = BoxGraph(
        as_work_model(work_of).vector(boxes).tolist(),
        [{} for _ in range(len(arr))],
    )

    gw = int(ghost_width)
    rf = int(refine_factor)

    def add_edges(i: np.ndarray, j: np.ndarray, volume: np.ndarray) -> None:
        for a, b, v in zip(i.tolist(), j.tolist(), volume.tolist()):
            g.adjacency[a][b] = v
            g.adjacency[b][a] = v

    for lvl in np.unique(arr.level).tolist():
        pos = arr.level_indices(lvl)
        lo = arr.lower[pos]
        up = arr.upper[pos]
        # Intra-level ghost adjacency: the earlier box of each pair is
        # the grown operand (grow(a) & b, as the object path had it), and
        # the volume counts both directions.
        ai, bj, cells = overlap_pairs(lo - gw, up + gw, lo, up)
        earlier = ai < bj
        add_edges(pos[ai[earlier]], pos[bj[earlier]], 2 * cells[earlier])
        # Inter-level prolongation overlap: each fine box's grown
        # footprint, coarsened one level, against the parent level.
        parents = arr.level_indices(lvl - 1)
        fi, pj, cells = overlap_pairs(
            np.floor_divide(lo - gw, rf),
            -np.floor_divide(-(up + gw), rf),  # ceil division
            arr.lower[parents],
            arr.upper[parents],
        )
        add_edges(pos[fi], parents[pj], cells)
    return g


def _grow_part(
    g: BoxGraph, nodes: list[int], target_work: float
) -> tuple[list[int], list[int]]:
    """Carve a connected-ish subset with ~``target_work`` out of ``nodes``.

    Greedy boundary-first growth: seed with the heaviest node, then
    repeatedly absorb the frontier node with the strongest connection to
    the growing part (falling back to the heaviest remaining node when the
    frontier is empty), until the target is reached.
    """
    works, adjacency = g
    remaining = set(nodes)
    seed = max(remaining, key=lambda n: works[n])
    part = [seed]
    remaining.discard(seed)
    acc = works[seed]
    while remaining and acc < target_work:
        frontier: dict[int, float] = {}
        for p in part:
            for nbr, volume in adjacency[p].items():
                if nbr in remaining:
                    frontier[nbr] = frontier.get(nbr, 0.0) + volume
        if frontier:
            # Prefer the most-connected candidate; break ties on work so
            # growth fills the target quickly and deterministically.
            nxt = max(frontier, key=lambda n: (frontier[n], works[n], -n))
        else:
            nxt = max(remaining, key=lambda n: (works[n], -n))
        w = works[nxt]
        # Stop before a gross overshoot (better handled by the other side).
        if acc + w > target_work and acc > 0.5 * target_work:
            overshoot = acc + w - target_work
            undershoot = target_work - acc
            if overshoot > undershoot:
                break
        part.append(nxt)
        remaining.discard(nxt)
        acc += w
    return part, sorted(remaining)


class GraphPartitioner(Partitioner):
    """Recursive weighted bisection over the box connectivity graph."""

    name = "GraphPartitioner"

    def __init__(self, ghost_width: int = 1, refine_factor: int = 2):
        self.ghost_width = ghost_width
        self.refine_factor = refine_factor

    def partition(
        self,
        boxes: BoxList,
        capacities: Sequence[float],
        work_of: WorkModel | None = None,
    ) -> PartitionResult:
        caps = self._check_inputs(boxes, capacities)
        model = as_work_model(work_of)
        total = model.total(boxes)
        targets = caps * total
        if len(boxes) == 0:
            return PartitionResult(Layout(boxes, ()), targets, work_model=model)
        g = build_box_graph(
            boxes, model, self.ghost_width, self.refine_factor
        )
        assignment: dict[int, int] = {}

        def bisect(nodes: list[int], ranks: list[int]) -> None:
            if not nodes:
                return
            if len(ranks) == 1:
                for n in nodes:
                    assignment[n] = ranks[0]
                return
            half = len(ranks) // 2
            left_ranks, right_ranks = ranks[:half], ranks[half:]
            cap_left = float(sum(caps[r] for r in left_ranks))
            cap_right = float(sum(caps[r] for r in right_ranks))
            work_here = sum(g.works[n] for n in nodes)
            share = cap_left / max(cap_left + cap_right, 1e-300)
            left, right = _grow_part(g, nodes, share * work_here)
            bisect(left, left_ranks)
            bisect(right, right_ranks)

        # Process ranks in capacity order so recursive halves are balanced.
        rank_order = sorted(range(len(caps)), key=lambda r: -caps[r])
        bisect(list(range(len(boxes))), rank_order)
        # Node i is row i of the input list, so the assignment is the
        # input columns plus a rank per row -- no object materialization.
        ranks = np.empty(len(boxes), dtype=np.intp)
        for node, rank in assignment.items():
            ranks[node] = rank
        layout = Layout(boxes, ranks)
        check_tiling(boxes, layout, np.arange(len(boxes)), len(caps))
        return PartitionResult(layout, targets, work_model=model)
