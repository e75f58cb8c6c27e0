"""Golden byte-identity: columnar partitioners vs the object-path walks.

Each partitioner consumes ``(work vector, SFC order, level)`` array
slices and emits its assignment as a columnar ``Layout``.
These tests pin the columnar implementations against verbatim copies of
the per-box object algorithms they replaced: identical ``(box, rank)``
pairs in identical order, identical float loads, identical split counts.
The reference code is intentionally the *old* implementation, not a
re-derivation -- any drift in ordering, tie-breaking or float accumulation
fails here before it can silently change an experiment.  The references
append to a local ``(box, rank)`` pair list and lower it once, through
``Layout.from_pairs``.
"""

from __future__ import annotations

import heapq

import networkx as nx
import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.kernels.workloads import moving_blob_trace
from repro.monitor.service import MonitorSnapshot
from repro.partition.base import PartitionResult, Partitioner, WorkModel, as_work_model
from repro.partition.capacity import CapacityCalculator
from repro.partition.composite import ACEComposite
from repro.partition.graphpart import GraphPartitioner, _grow_part, build_box_graph
from repro.partition.greedy import GreedyLPT
from repro.partition.heterogeneous import ACEHeterogeneous
from repro.partition.hybrid import SFCHybrid
from repro.partition.levelwise import LevelPartitioner
from repro.partition.metrics import redistribution_volume_columns
from repro.partition.splitting import SplitConstraints
from repro.util.geometry import Box, BoxList, Layout
from repro.util.sfc import sfc_order_boxes
from tests.conftest import box_row, split_box


# ---------------------------------------------------------------------------
# Reference implementations: the pre-columnar object-path algorithms.
# ---------------------------------------------------------------------------
def reference_greedy(boxes: BoxList, capacities, model) -> PartitionResult:
    caps = Partitioner._check_inputs(boxes, capacities)
    works = model.vector(boxes).tolist()
    targets = caps * model.total(boxes)
    pairs: list[tuple[Box, int]] = []
    num_ranks = len(caps)
    loads = [0.0] * num_ranks
    safe_caps = [c if c > 0 else 1e-12 for c in caps.tolist()]
    rank_range = range(num_ranks)
    order = sorted(
        range(len(boxes)),
        key=lambda i: (-works[i], boxes[i].corner_key()),
    )
    for i in order:
        w = works[i]
        rank = min(rank_range, key=lambda r: (loads[r] + w) / safe_caps[r])
        pairs.append((boxes[i], rank))
        loads[rank] += w
    return PartitionResult(Layout.from_pairs(pairs), targets, work_model=model)


def reference_heterogeneous(
    boxes: BoxList, capacities, model, constraints, fill_tolerance=0.05
) -> PartitionResult:
    caps = Partitioner._check_inputs(boxes, capacities)
    works = model.vector(boxes).tolist()
    targets = caps * model.total(boxes)
    pairs: list[tuple[Box, int]] = []
    num_splits = 0
    queue: list[tuple[float, int, Box]] = []
    for seq, i in enumerate(
        sorted(
            range(len(boxes)),
            key=lambda j: (works[j], boxes[j].corner_key()),
        )
    ):
        queue.append((works[i], seq, boxes[i]))
    heapq.heapify(queue)
    seq = len(queue)
    rank_order = np.argsort(caps, kind="stable")
    for idx, rank in enumerate(rank_order):
        rank = int(rank)
        remaining = targets[rank]
        last_rank = idx == len(rank_order) - 1
        while queue:
            if last_rank:
                _, _, box = heapq.heappop(queue)
                pairs.append((box, rank))
                continue
            w, _, box = queue[0]
            if w <= remaining + fill_tolerance * w:
                heapq.heappop(queue)
                pairs.append((box, rank))
                remaining -= w
                continue
            if remaining <= 0:
                break
            split = split_box(box, remaining, model, constraints)
            if split is None:
                break
            heapq.heappop(queue)
            piece, rest = split
            num_splits += len(rest)
            pairs.append((piece, rank))
            remaining -= model.work_row(*box_row(piece))
            for r in rest:
                heapq.heappush(queue, (model.work_row(*box_row(r)), seq, r))
                seq += 1
            if remaining <= 0:
                break
    return PartitionResult(Layout.from_pairs(pairs), targets, num_splits, model)


def assign_curve_spans(
    ordered: list,
    targets: np.ndarray,
    model: WorkModel,
    constraints: SplitConstraints,
    pairs: list,
) -> int:
    """Deal an SFC-ordered box list into contiguous per-rank spans.

    Each rank receives boxes from the current curve position until its
    ``targets`` entry is filled; boxes straddling a span boundary are split
    under ``constraints`` (remainders stay at the current curve position).
    When a boundary cannot be carved, the shortfall carries into the next
    rank's span so the global sum is preserved.  Appends to ``pairs``,
    returns the number of splits.  (The object-path walk that lived in
    ``partition/composite.py``, kept verbatim as the reference.)

    Box works come from the model's vector in one shot; split remainders
    are priced incrementally through the model's row memo, keeping a
    ``works`` list aligned with the (mutating) curve position list.
    """
    num_ranks = len(targets)
    pending = ordered
    works = model.compute(BoxList(pending)).tolist()
    rank = 0
    remaining = targets[0]
    num_splits = 0
    i = 0
    while i < len(pending):
        box = pending[i]
        w = works[i]
        last_rank = rank == num_ranks - 1
        if last_rank or w <= remaining + 1e-9:
            pairs.append((box, rank))
            remaining -= w
            i += 1
            if not last_rank and remaining <= 0:
                rank += 1
                remaining += targets[rank]
            continue
        split = (
            split_box(box, remaining, model, constraints)
            if remaining > 0
            else None
        )
        if split is None:
            rank += 1
            remaining += targets[rank]
            continue
        piece, rest = split
        num_splits += len(rest)
        pairs.append((piece, rank))
        remaining -= model.work_row(*box_row(piece))
        # Remainders stay at the current curve position.
        pending[i : i + 1] = rest
        works[i : i + 1] = [model.work_row(*box_row(r)) for r in rest]
        if remaining <= 0 and rank < num_ranks - 1:
            rank += 1
            remaining += targets[rank]
    return num_splits


def reference_curve(
    boxes: BoxList, capacities, model, constraints, equal_targets: bool
) -> PartitionResult:
    """Object-path ACEComposite (equal targets) / SFCHybrid (capacity)."""
    caps = Partitioner._check_inputs(boxes, capacities)
    total = model.total(boxes)
    if equal_targets:
        targets = np.full(len(caps), total / len(caps))
    else:
        targets = caps * total
    pairs: list[tuple[Box, int]] = []
    ordered = list(sfc_order_boxes(boxes, curve="hilbert"))
    num_splits = assign_curve_spans(ordered, targets, model, constraints, pairs)
    return PartitionResult(Layout.from_pairs(pairs), targets, num_splits, model)


def reference_build_box_graph(
    boxes: BoxList, model, ghost_width=1, refine_factor=2
) -> nx.Graph:
    g = nx.Graph()
    box_list = list(boxes)
    works = model.vector(boxes).tolist()
    for i, b in enumerate(box_list):
        g.add_node(i, box=b, work=works[i])
    by_level: dict[int, list[tuple[int, Box]]] = {}
    for i, b in enumerate(box_list):
        by_level.setdefault(b.level, []).append((i, b))

    def bump(i: int, j: int, cells: int) -> None:
        if cells <= 0 or i == j:
            return
        if g.has_edge(i, j):
            g[i][j]["volume"] += cells
        else:
            g.add_edge(i, j, volume=cells)

    for level, members in by_level.items():
        for ai in range(len(members)):
            i, a = members[ai]
            grown = a.grow(ghost_width) if ghost_width else a
            for bj in range(ai + 1, len(members)):
                j, b = members[bj]
                inter = grown.intersection(b)
                if inter is not None:
                    bump(i, j, 2 * inter.num_cells)
        parents = by_level.get(level - 1, ()) if level > 0 else ()
        if not parents:
            continue
        for i, fine in members:
            footprint = (
                fine.grow(ghost_width) if ghost_width else fine
            ).coarsen(refine_factor)
            for j, parent in parents:
                inter = parent.intersection(footprint)
                if inter is not None:
                    bump(i, j, inter.num_cells)
    return g


def reference_graph_partition(boxes: BoxList, capacities, model) -> PartitionResult:
    caps = Partitioner._check_inputs(boxes, capacities)
    targets = caps * model.total(boxes)
    g = reference_build_box_graph(boxes, model)
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
        work_here = sum(g.nodes[n]["work"] for n in nodes)
        share = cap_left / max(cap_left + cap_right, 1e-300)
        left, right = _grow_part(g, nodes, share * work_here)
        bisect(left, left_ranks)
        bisect(right, right_ranks)

    rank_order = sorted(range(len(caps)), key=lambda r: -caps[r])
    bisect(sorted(g.nodes), rank_order)
    pairs = [(g.nodes[n]["box"], rank) for n, rank in sorted(assignment.items())]
    return PartitionResult(Layout.from_pairs(pairs), targets, work_model=model)


def reference_levelwise(boxes: BoxList, capacities, model) -> PartitionResult:
    caps = Partitioner._check_inputs(boxes, capacities)
    targets = caps * model.total(boxes)
    pairs: list[tuple[Box, int]] = []
    num_splits = 0
    for level in boxes.levels:
        sub = reference_greedy(boxes.at_level(level), caps, model)
        pairs.extend(sub.layout.pairs())
        num_splits += sub.num_splits
    return PartitionResult(Layout.from_pairs(pairs), targets, num_splits, model)


def reference_redistribution(prev, new, bytes_per_cell=8.0):
    volumes: dict[tuple[int, int], float] = {}
    prev_by_level: dict[int, list[tuple]] = {}
    for box, rank in prev:
        prev_by_level.setdefault(box.level, []).append((box, rank))
    for box, new_rank in new:
        for old_box, old_rank in prev_by_level.get(box.level, ()):
            if old_rank == new_rank:
                continue
            inter = box.intersection(old_box)
            if inter is not None:
                key = (old_rank, new_rank)
                volumes[key] = (
                    volumes.get(key, 0.0) + inter.num_cells * bytes_per_cell
                )
    return volumes


# ---------------------------------------------------------------------------
# Scenarios: realistic multi-level hierarchies x capacity profiles.
# ---------------------------------------------------------------------------
def _paper_capacities() -> np.ndarray:
    """Capacity vector through the real CapacityCalculator path."""
    cluster = Cluster.paper_four_node()
    states = cluster.states(t=5.0)
    snapshot = MonitorSnapshot(
        time=5.0,
        cpu=np.array([s.cpu_available for s in states]),
        memory_mb=np.array([s.free_memory_mb for s in states]),
        bandwidth_mbps=np.array([s.bandwidth_mbps for s in states]),
        overhead_seconds=0.0,
    )
    return CapacityCalculator().relative_capacities(snapshot)


EPOCHS = list(moving_blob_trace(num_regrids=4, chop_pieces=3).box_lists)
CAPACITY_VECTORS = [
    ("equal4", np.full(4, 0.25)),
    ("skewed3", np.array([0.1, 0.3, 0.6])),
    ("paper4", _paper_capacities()),
    ("single", np.array([1.0])),
]


def _assert_identical(result: PartitionResult, reference: PartitionResult):
    assert result.layout.pairs() == reference.layout.pairs()
    assert result.num_splits == reference.num_splits
    assert np.array_equal(result.targets, reference.targets)
    assert result.loads().tolist() == reference.loads().tolist()


@pytest.mark.parametrize("epoch", range(len(EPOCHS)))
@pytest.mark.parametrize("cap_name,caps", CAPACITY_VECTORS, ids=lambda v: v if isinstance(v, str) else "")
class TestColumnarByteIdentity:
    def test_greedy(self, epoch, cap_name, caps):
        boxes = EPOCHS[epoch]
        model = as_work_model(None)
        _assert_identical(
            GreedyLPT().partition(boxes, caps, model),
            reference_greedy(boxes, caps, model),
        )

    def test_heterogeneous(self, epoch, cap_name, caps):
        boxes = EPOCHS[epoch]
        model = as_work_model(None)
        _assert_identical(
            ACEHeterogeneous().partition(boxes, caps, model),
            reference_heterogeneous(
                boxes, caps, model, SplitConstraints()
            ),
        )

    def test_composite(self, epoch, cap_name, caps):
        boxes = EPOCHS[epoch]
        model = as_work_model(None)
        _assert_identical(
            ACEComposite().partition(boxes, caps, model),
            reference_curve(
                boxes, caps, model, SplitConstraints(), equal_targets=True
            ),
        )

    def test_hybrid(self, epoch, cap_name, caps):
        boxes = EPOCHS[epoch]
        model = as_work_model(None)
        _assert_identical(
            SFCHybrid().partition(boxes, caps, model),
            reference_curve(
                boxes, caps, model, SplitConstraints(), equal_targets=False
            ),
        )

    def test_levelwise(self, epoch, cap_name, caps):
        boxes = EPOCHS[epoch]
        model = as_work_model(None)
        _assert_identical(
            LevelPartitioner(GreedyLPT()).partition(boxes, caps, model),
            reference_levelwise(boxes, caps, model),
        )

    def test_graph(self, epoch, cap_name, caps):
        boxes = EPOCHS[epoch]
        model = as_work_model(None)
        _assert_identical(
            GraphPartitioner().partition(boxes, caps, model),
            reference_graph_partition(boxes, caps, model),
        )


class TestBoxGraphIdentity:
    @pytest.mark.parametrize("epoch", range(len(EPOCHS)))
    def test_vectorized_graph_matches_object_graph(self, epoch):
        boxes = EPOCHS[epoch]
        model = as_work_model(None)
        got = build_box_graph(boxes, model)
        want = reference_build_box_graph(boxes, model)
        assert sorted(got.nodes) == sorted(want.nodes)
        for n in want.nodes:
            assert got.nodes[n]["work"] == want.nodes[n]["work"]
        got_edges = {
            (min(u, v), max(u, v)): d["volume"]
            for u, v, d in got.edges(data=True)
        }
        want_edges = {
            (min(u, v), max(u, v)): d["volume"]
            for u, v, d in want.edges(data=True)
        }
        assert got_edges == want_edges


class TestRedistributionIdentity:
    @pytest.mark.parametrize("caps", [np.full(4, 0.25), np.array([0.1, 0.9])])
    def test_columns_match_object_walk_across_epochs(self, caps):
        """Same dict values AND the same key insertion order (the comm
        model's per-rank accumulation iterates it)."""
        model = as_work_model(None)
        prev = Layout.from_pairs(())
        for boxes in EPOCHS:
            part = ACEHeterogeneous().partition(boxes, caps, model)
            want = reference_redistribution(
                prev.pairs(), part.layout.pairs(), bytes_per_cell=40.0
            )
            got = redistribution_volume_columns(
                prev, part.layout, bytes_per_cell=40.0
            )
            assert got == want
            assert list(got) == list(want)
            assert [got[k] for k in got] == [want[k] for k in want]
            prev = part.layout
