"""The tiling certificate every partitioner ends with.

``check_tiling(original, layout, source, num_ranks)`` proves from
provenance -- ``source[i]`` is the input row layout row ``i`` is, or was
cut from -- that a layout tiles its disjoint input exactly.  Each planted
fault below must be rejected with its clause named; the hypothesis test
runs every partitioner configuration on generated hierarchies, where the
certificate (inside ``partition``) and the provenance-free oracle
``PartitionResult.validate_covers`` must both pass.

Mutation record: removing any one clause of ``check_tiling`` (or the
input check in ``Partitioner._check_inputs``) fails at least one test
here, and each is killed by the planted fault aimed at it:

==============================  ==========================================
clause removed                  killed by
==============================  ==========================================
source length / range           ``test_wrong_length_source``,
                                ``test_source_out_of_range``
row level == source level       ``test_piece_relabelled_to_another_level``
row lower >= source lower       ``test_piece_labelled_with_neighbours_source``
row upper <= source upper       ``test_piece_moved_into_a_hole``
per-source cell sums            ``test_dropped_piece``,
                                ``test_dropped_whole_box``,
                                ``test_duplicated_piece``,
                                ``test_empty_layout_of_nonempty_input``
split pieces pairwise disjoint  ``test_overlapping_pieces_with_right_total``,
                                ``test_overlap_among_many_split_sources``
... by the grid-hash fallback   ``test_overlap_found_by_the_grid_hash_fallback``
ranks < num_ranks               ``test_rank_beyond_num_ranks``
input disjointness              ``test_overlapping_input_rejected_before_any_split``
==============================  ==========================================
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition import (
    ACEComposite,
    ACEHeterogeneous,
    GraphPartitioner,
    GreedyLPT,
    LevelPartitioner,
    SFCHybrid,
    SplitConstraints,
    WorkModel,
)
from repro.partition import base, composite, graphpart, greedy, heterogeneous
from repro.partition.base import PartitionResult, check_tiling
from repro.util.errors import PartitionError
from repro.util.geometry import Box, BoxArray, BoxList, Layout


def seven() -> list:
    """The six partitioner classes, LevelPartitioner over a splitting
    and a non-splitting inner scheme."""
    return [
        ACEHeterogeneous(),
        ACEComposite(),
        SFCHybrid(),
        GreedyLPT(),
        GraphPartitioner(),
        LevelPartitioner(ACEHeterogeneous()),
        LevelPartitioner(GreedyLPT()),
    ]


def configurations() -> list:
    """:func:`seven` plus the multi-axis and unconstrained-size splitters."""
    variants = [
        cls(constraints=c)
        for cls in (ACEHeterogeneous, ACEComposite, SFCHybrid)
        for c in (
            SplitConstraints(allow_multi_axis=True),
            SplitConstraints(min_box_size=1, snap=1),
        )
    ]
    return seven() + variants


# ---------------------------------------------------------------------------
# Planted faults on a hand-built tiling
# ---------------------------------------------------------------------------
#: Three level-0 boxes around a hole at [0, 8) x [4, 8):
#:
#:     4..8   hole   C
#:     0..4   A      B
#:            0..8   8..16
A = Box((0, 0), (8, 4))
B = Box((8, 0), (16, 4))
C = Box((8, 4), (16, 8))
ORIGINAL = BoxList([A, B, C])
#: A cut in two, B and C whole.
A1, A2 = Box((0, 0), (4, 4)), Box((4, 0), (8, 4))
GOOD = ([A1, A2, B, C], [0, 0, 1, 2], [0, 1, 1, 0])


def certify(boxes, source, ranks, num_ranks: int = 2) -> None:
    check_tiling(
        ORIGINAL,
        Layout(BoxList(boxes), np.array(ranks)),
        np.array(source, dtype=np.int64),
        num_ranks,
    )


def oracle(boxes, ranks) -> None:
    """``validate_covers``: knows nothing of where pieces came from."""
    layout = Layout(BoxList(boxes), np.array(ranks))
    PartitionResult(layout, np.ones(2)).validate_covers(ORIGINAL)


def test_good_tiling_passes_both():
    certify(*GOOD)
    oracle(GOOD[0], GOOD[2])


def test_piece_moved_into_a_hole():
    # A2 moves into the hole: per-level totals and disjointness both
    # survive, so the provenance-free oracle accepts it.
    moved = Box((0, 4), (4, 8))
    boxes = [A1, moved, B, C]
    oracle(boxes, GOOD[2])
    with pytest.raises(PartitionError, match="not inside its source box"):
        certify(boxes, GOOD[1], GOOD[2])


def test_piece_labelled_with_neighbours_source():
    with pytest.raises(PartitionError, match="not inside its source box"):
        certify(GOOD[0], [1, 0, 1, 2], GOOD[2])


def test_piece_relabelled_to_another_level():
    boxes = [A1, A2, Box(B.lower, B.upper, 1), C]
    with pytest.raises(PartitionError, match="not inside its source box"):
        certify(boxes, GOOD[1], GOOD[2])


def test_dropped_piece():
    with pytest.raises(PartitionError, match="input row 0 has 16 cells"):
        certify([A1, B, C], [0, 1, 2], [0, 1, 0])


def test_dropped_whole_box():
    with pytest.raises(PartitionError, match="input row 1 has 0 cells"):
        certify([A1, A2, C], [0, 0, 2], [0, 1, 0])


def test_duplicated_piece():
    with pytest.raises(PartitionError, match="input row 0 has 48 cells"):
        certify([A1, A2, A1, B, C], [0, 0, 0, 1, 2], [0, 1, 1, 1, 0])


def test_overlapping_pieces_with_right_total():
    # 24 + 8 = A's 32 cells, both inside A, but [6, 8) is uncovered.
    boxes = [Box((0, 0), (6, 4)), Box((0, 0), (2, 4)), B, C]
    with pytest.raises(PartitionError, match="pieces of a split box overlap"):
        certify(boxes, GOOD[1], GOOD[2])


def many_split_sources(overlapping: int) -> tuple:
    """Forty 8x4 boxes in a row, each cut in two, the pieces listed
    first halves then second halves -- except source ``overlapping``,
    whose two pieces (24 + 8 cells, both from its left edge) overlap."""
    n = 40
    original = BoxList([Box((8 * k, 0), (8 * k + 8, 4)) for k in range(n)])
    left, right = [], []
    for k in range(n):
        x = 8 * k
        if k == overlapping:
            left.append(Box((x, 0), (x + 6, 4)))
            right.append(Box((x, 0), (x + 2, 4)))
        else:
            left.append(Box((x, 0), (x + 4, 4)))
            right.append(Box((x + 4, 0), (x + 8, 4)))
    layout = Layout(BoxList(left + right), np.zeros(2 * n, dtype=np.intp))
    source = np.tile(np.arange(n), 2)
    return original, layout, source


@pytest.mark.parametrize("overlapping", [-1, 0, 17, 39])
def test_overlap_among_many_split_sources(overlapping):
    original, layout, source = many_split_sources(overlapping)
    if overlapping < 0:
        check_tiling(original, layout, source, 1)
        return
    with pytest.raises(PartitionError, match="pieces of a split box overlap"):
        check_tiling(original, layout, source, 1)


def test_overlap_found_by_the_grid_hash_fallback(monkeypatch):
    # No pair budget: clause 4 grid-hashes every split piece instead.
    monkeypatch.setattr(base, "MAX_PIECE_PAIRS", 0)
    check_tiling(*many_split_sources(-1), 1)
    with pytest.raises(PartitionError, match="pieces of a split box overlap"):
        check_tiling(*many_split_sources(17), 1)


def test_rank_beyond_num_ranks():
    with pytest.raises(PartitionError, match=r"rank 2 outside \[0, 2\)"):
        certify(GOOD[0], GOOD[1], [0, 1, 2, 0])


def test_wrong_length_source():
    with pytest.raises(PartitionError, match="one input row"):
        certify(GOOD[0], [0, 0, 1], GOOD[2])


def test_source_out_of_range():
    with pytest.raises(PartitionError, match="one input row"):
        certify(GOOD[0], [0, 0, 1, 3], GOOD[2])


def test_empty_layout_of_nonempty_input():
    with pytest.raises(PartitionError, match="input row 0 has 0 cells"):
        check_tiling(
            ORIGINAL, Layout(BoxList(), ()), np.zeros(0, np.int64), 2
        )


# ---------------------------------------------------------------------------
# Every partitioner: input check first, certificate last
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("p", seven(), ids=lambda p: p.name)
def test_overlapping_input_rejected_before_any_split(p, monkeypatch):
    splits = []

    def no_split(*args, **kwargs):
        splits.append(args)
        raise AssertionError("split before the input check")

    for mod in (composite, heterogeneous):
        monkeypatch.setattr(mod, "split_row_to_target", no_split)
    overlapping = BoxList(
        [Box((0, 0), (64, 64)), Box((32, 32), (96, 96)), Box((0, 0), (8, 8), 1)]
    )
    with pytest.raises(PartitionError, match="input boxes overlap"):
        p.partition(overlapping, [0.1, 0.2, 0.3, 0.4])
    assert not splits


@pytest.mark.parametrize("p", seven(), ids=lambda p: p.name)
def test_every_partitioner_certifies_its_output(p, monkeypatch):
    calls = []

    def spy(original, layout, source, num_ranks):
        calls.append(len(layout))
        return check_tiling(original, layout, source, num_ranks)

    for mod in (composite, heterogeneous, greedy, graphpart):
        monkeypatch.setattr(mod, "check_tiling", spy)
    boxes = BoxList(
        [Box((0, 0), (32, 16)), Box((32, 0), (48, 16)), Box((8, 8), (40, 24), 1)]
    )
    r = p.partition(boxes, [0.2, 0.3, 0.5])
    assert calls and sum(calls) == r.num_assigned()


# ---------------------------------------------------------------------------
# Agreement with the oracle on generated hierarchies
# ---------------------------------------------------------------------------
@st.composite
def hierarchies(draw) -> BoxList:
    """Disjoint 1-3-D, 1-3-level box lists: per level, a random grid of
    even-sized cells over [0, 32)^ndim with random holes."""
    ndim = draw(st.integers(1, 3))
    lowers, uppers, levels = [], [], []
    for level in range(draw(st.integers(1, 3))):
        spans = []
        for _ in range(ndim):
            inner = draw(st.lists(st.integers(1, 15), max_size=3))
            planes = [2 * x for x in sorted({0, 16, *inner})]
            spans.append(list(zip(planes, planes[1:])))
        cells = list(itertools.product(*spans))
        keep = draw(
            st.lists(st.booleans(), min_size=len(cells), max_size=len(cells))
        )
        for kept, cell in zip(keep, cells):
            if kept:
                lowers.append([lo for lo, _ in cell])
                uppers.append([up for _, up in cell])
                levels.append(level)
    if not lowers:
        return BoxList.from_array(BoxArray.empty(ndim))
    return BoxList.from_array(
        BoxArray(np.array(lowers), np.array(uppers), np.array(levels))
    )


capacity_vectors = st.lists(
    st.sampled_from([0.0, 0.05, 0.3, 1.0, 2.5]), min_size=1, max_size=9
).filter(lambda caps: sum(caps) > 0)


@settings(max_examples=300, deadline=None)
@given(
    hierarchies(),
    capacity_vectors,
    st.sampled_from(range(len(configurations()))),
)
def test_certificate_and_oracle_agree(boxes, caps, which):
    p = configurations()[which]
    model = WorkModel()
    r = p.partition(boxes, caps, model)  # raises if the certificate fails
    r.validate_covers(boxes)
    assert r.num_assigned() >= len(boxes)
    if len(boxes):
        assert int(r.rank_vector().max()) < len(caps)
        assert r.loads().sum() == pytest.approx(model.total(boxes))
