"""Golden identity: the columnar exchange planner vs the Box-loop walk.

``plan_exchange_volumes`` now runs on ``BoxArray`` columns and a rank
vector.  The reference below is a verbatim copy of the O(n^2)
``Box.intersection`` walk it replaced; the new planner must return the
identical dict -- same keys, same float bits and the same key *insertion
order*, which ``SimCommunicator.exchange_time`` iterates when it sums
per-rank busy time.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.ghost import plan_exchange_volumes
from repro.util.errors import GeometryError
from repro.util.geometry import Box, BoxList


def reference_plan_exchange_volumes(
    boxes: BoxList,
    owners: dict[Box, int],
    ghost_width: int = 1,
    bytes_per_cell: float = 8.0,
    refine_factor: int = 2,
) -> dict[tuple[int, int], float]:
    if ghost_width < 0:
        raise GeometryError(f"negative ghost width {ghost_width}")
    volumes: dict[tuple[int, int], float] = {}

    def add(src: int, dst: int, cells: int) -> None:
        if src == dst or cells <= 0:
            return
        key = (src, dst)
        volumes[key] = volumes.get(key, 0.0) + cells * bytes_per_cell

    by_level: dict[int, list[Box]] = {}
    for b in boxes:
        if b not in owners:
            raise GeometryError(f"box {b} missing from ownership map")
        by_level.setdefault(b.level, []).append(b)

    # Intra-level ghost traffic.
    for level_boxes in by_level.values():
        for a in level_boxes:
            if ghost_width == 0:
                continue
            grown = a.grow(ghost_width)
            for b in level_boxes:
                if a is b:
                    continue
                inter = grown.intersection(b)
                if inter is not None:
                    add(owners[b], owners[a], inter.num_cells)

    # Inter-level prolongation traffic (fine pulls from coarse).
    for level, level_boxes in sorted(by_level.items()):
        parents = by_level.get(level - 1, [])
        if not parents:
            continue
        for fine in level_boxes:
            footprint = fine.grow(ghost_width) if ghost_width else fine
            coarse_fp = footprint.coarsen(refine_factor)
            for parent in parents:
                inter = parent.intersection(coarse_fp)
                if inter is not None:
                    add(owners[parent], owners[fine], inter.num_cells)
    return volumes


# ---------------------------------------------------------------------------
# Generated hierarchies
# ---------------------------------------------------------------------------
@st.composite
def hierarchies(draw) -> tuple[BoxList, list[int], int]:
    """(boxes, ranks, refine_factor): a properly nested multi-level
    hierarchy of duplicate-free split boxes, in shuffled order.

    Every level's region is a refined sub-box of the one below, cut into
    pieces by random splits; any subset of the levels may be present (so
    a level can lack its parent), a level may hold a single box, and the
    list order interleaves levels arbitrarily.
    """
    ndim = draw(st.integers(2, 3))
    rf = draw(st.sampled_from([2, 4]))
    depth = draw(st.integers(1, 4))
    present = draw(
        st.sets(st.integers(0, depth - 1), min_size=1, max_size=depth)
    )
    region = Box(
        (0,) * ndim,
        tuple(draw(st.integers(3, 8)) for _ in range(ndim)),
    )
    boxes: list[Box] = []
    for level in range(depth):
        if level:
            lo = tuple(
                draw(st.integers(l, u - 2))
                for l, u in zip(region.lower, region.upper)
            )
            up = tuple(
                draw(st.integers(l + 1, u)) for l, u in zip(lo, region.upper)
            )
            region = Box(lo, up, level - 1).refine(rf)
        if level not in present:
            continue
        pieces = [region]
        for _ in range(draw(st.integers(0, 5))):
            i = draw(st.integers(0, len(pieces) - 1))
            axis = int(np.argmax(pieces[i].shape))
            if pieces[i].shape[axis] < 2:
                continue
            cut = draw(
                st.integers(
                    pieces[i].lower[axis] + 1, pieces[i].upper[axis] - 1
                )
            )
            pieces[i : i + 1] = pieces[i].split(axis, cut)
        boxes.extend(pieces)
    boxes = draw(st.permutations(boxes))
    num_ranks = draw(st.integers(1, 5))
    ranks = [draw(st.integers(0, num_ranks - 1)) for _ in boxes]
    return BoxList(boxes), ranks, rf


@settings(max_examples=150, deadline=None)
@given(
    hierarchy=hierarchies(),
    ghost_width=st.sampled_from([0, 1, 2]),
    bytes_per_cell=st.sampled_from([8.0, 40.0]),
)
def test_planner_matches_box_loop(hierarchy, ghost_width, bytes_per_cell):
    boxes, ranks, rf = hierarchy
    owners = dict(zip(boxes, ranks))
    ref = reference_plan_exchange_volumes(
        boxes, owners, ghost_width, bytes_per_cell, rf
    )
    kwargs = dict(
        ghost_width=ghost_width,
        bytes_per_cell=bytes_per_cell,
        refine_factor=rf,
    )
    from_vector = plan_exchange_volumes(boxes, np.array(ranks), **kwargs)
    # Order and float bits, not just equality as mappings.
    assert list(from_vector.items()) == list(ref.items())
    assert all(
        type(s) is int and type(d) is int and type(v) is float
        for (s, d), v in from_vector.items()
    )
    # The Box-keyed dict, a plain list and the bare column view agree.
    for form in (owners, ranks):
        assert list(plan_exchange_volumes(boxes, form, **kwargs).items()) == (
            list(ref.items())
        )
    assert list(
        plan_exchange_volumes(boxes.array, np.array(ranks), **kwargs).items()
    ) == list(ref.items())


class TestEdges:
    def test_accumulates_in_visit_order(self):
        # Three partners feed one key with addends whose float sum depends
        # on the order: 0.1-scaled volumes expose a reordered accumulation.
        a = Box((0, 0), (4, 4))
        partners = [
            Box((4, 0), (7, 4)),
            Box((0, 4), (4, 9)),
            Box((-5, 0), (0, 4)),
        ]
        boxes = BoxList([a, *partners])
        ranks = [0, 1, 1, 1]
        new = plan_exchange_volumes(boxes, ranks, bytes_per_cell=0.1)
        ref = reference_plan_exchange_volumes(
            boxes, dict(zip(boxes, ranks)), bytes_per_cell=0.1
        )
        assert list(new.items()) == list(ref.items())

    def test_missing_box_names_the_first_one(self):
        a, b, c = Box((0, 0), (4, 4)), Box((4, 0), (8, 4)), Box((8, 0), (9, 4))
        with pytest.raises(GeometryError) as new:
            plan_exchange_volumes(BoxList([a, b, c]), {a: 0})
        with pytest.raises(GeometryError) as ref:
            reference_plan_exchange_volumes(BoxList([a, b, c]), {a: 0})
        assert str(new.value) == str(ref.value)

    def test_rank_vector_length_is_checked(self):
        a, b = Box((0, 0), (4, 4)), Box((4, 0), (8, 4))
        with pytest.raises(GeometryError, match="1 owner ranks for 2 boxes"):
            plan_exchange_volumes(BoxList([a, b]), [0])

    def test_bad_refine_factor_only_matters_with_a_parent_level(self):
        coarse, fine = Box((0, 0), (4, 4)), Box((2, 2), (6, 6), 1)
        assert plan_exchange_volumes(BoxList([coarse]), [0], refine_factor=1) == {}
        with pytest.raises(GeometryError) as new:
            plan_exchange_volumes(BoxList([coarse, fine]), [0, 1], refine_factor=1)
        with pytest.raises(GeometryError) as ref:
            reference_plan_exchange_volumes(
                BoxList([coarse, fine]), {coarse: 0, fine: 1}, refine_factor=1
            )
        assert str(new.value) == str(ref.value)

    def test_empty_list(self):
        assert plan_exchange_volumes(BoxList(), []) == {}
