"""``Layout``: the one value saying which rank owns which box.

Round trips between ``(Box, rank)`` pairs and columns, the selections
that replace list comprehensions over pairs, and the conditions the type
enforces on construction.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.errors import GeometryError
from repro.util.geometry import Box, BoxArray, BoxList, Layout

NUM_RANKS = 8


@st.composite
def pair_lists(draw) -> list[tuple[Box, int]]:
    """``(Box, rank)`` pairs: 2-D or 3-D, mixed levels, possibly empty."""
    ndim = draw(st.sampled_from([2, 3]))
    pairs = []
    for _ in range(draw(st.integers(0, 12))):
        lower = draw(st.tuples(*[st.integers(-8, 8)] * ndim))
        shape = draw(st.tuples(*[st.integers(1, 6)] * ndim))
        upper = tuple(lo + n for lo, n in zip(lower, shape))
        level = draw(st.integers(0, 3))
        pairs.append((Box(lower, upper, level), draw(st.integers(0, NUM_RANKS - 1))))
    return pairs


def columnar(pairs) -> Layout:
    """The same layout backed purely by columns (no Box objects kept)."""
    boxes = BoxList.from_array(BoxArray.from_boxes([b for b, _ in pairs]))
    return Layout(boxes, np.array([r for _, r in pairs], dtype=np.intp))


@settings(max_examples=60, deadline=None)
@given(pair_lists())
def test_pairs_round_trip(pairs):
    for layout in (Layout.from_pairs(pairs), columnar(pairs)):
        assert layout.pairs() == pairs
        assert len(layout) == len(pairs)
        assert all(type(r) is int for _, r in layout.pairs())
        assert layout.ranks.dtype == np.intp
        again = Layout.from_pairs(layout.pairs())
        assert again.boxes == layout.boxes
        assert again.ranks.tolist() == layout.ranks.tolist()


@settings(max_examples=60, deadline=None)
@given(pair_lists(), st.randoms(use_true_random=False))
def test_selections_match_the_comprehensions_they_replace(pairs, rng):
    order = list(range(len(pairs)))
    rng.shuffle(order)
    index = np.array([rng.randrange(100) for _ in range(NUM_RANKS)])
    for layout in (Layout.from_pairs(pairs), columnar(pairs)):
        for k in range(NUM_RANKS):
            assert layout.of_rank(k) == BoxList(b for b, r in pairs if r == k)
        assert layout.remapped(index).pairs() == [
            (b, int(index[r])) for b, r in pairs
        ]
        taken = Layout(layout.boxes.take(order), layout.ranks[order])
        assert taken.pairs() == [pairs[i] for i in order]


class TestTheTypeEnforcesItsInvariants:
    BOXES = BoxList([Box((0, 0), (2, 2)), Box((2, 0), (4, 2))])

    def test_ranks_are_read_only(self):
        layout = Layout(self.BOXES, np.array([0, 1]))
        with pytest.raises(ValueError, match="read-only"):
            layout.ranks[0] = 1
        assert layout.ranks.tolist() == [0, 1]

    def test_fields_cannot_be_rebound(self):
        layout = Layout(self.BOXES, [0, 1])
        with pytest.raises(AttributeError):
            layout.ranks = np.array([1, 1])
        with pytest.raises(AttributeError):
            layout.boxes = BoxList()

    @pytest.mark.parametrize("ranks", [[0], [0, 1, 1], [[0, 1]], 0])
    def test_misaligned_lengths_rejected(self, ranks):
        with pytest.raises(GeometryError, match="does not match"):
            Layout(self.BOXES, ranks)

    @pytest.mark.parametrize("ranks", [[0.0, 1.0], [0, 1.5], ["0", "1"], [None, 1]])
    def test_non_integer_ranks_rejected(self, ranks):
        with pytest.raises(GeometryError, match="integers"):
            Layout(self.BOXES, ranks)
        with pytest.raises(GeometryError, match="integers"):
            Layout.from_pairs(zip(self.BOXES, ranks))

    def test_negative_rank_rejected(self):
        with pytest.raises(GeometryError, match="negative rank -1"):
            Layout(self.BOXES, [0, -1])

    def test_boxes_must_be_a_boxlist(self):
        with pytest.raises(GeometryError, match="BoxList"):
            Layout(list(self.BOXES), [0, 1])

    def test_empty(self):
        layout = Layout.from_pairs(())
        assert len(layout) == 0 and layout.pairs() == []
        assert len(layout.of_rank(0)) == 0
        assert len(layout.remapped(np.arange(3))) == 0
