"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.partition.splitting import split_row_to_target
from repro.util.geometry import Box


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


def boxes(
    ndim: int | None = None,
    max_coord: int = 64,
    max_side: int = 32,
    max_level: int = 3,
) -> st.SearchStrategy[Box]:
    """Strategy producing valid Boxes of 1-3 dimensions."""

    def build(draw_ndim: int) -> st.SearchStrategy[Box]:
        lowers = st.tuples(
            *[st.integers(0, max_coord) for _ in range(draw_ndim)]
        )
        sides = st.tuples(
            *[st.integers(1, max_side) for _ in range(draw_ndim)]
        )
        lvl = st.integers(0, max_level)
        return st.builds(
            lambda lo, sd, lv: Box(lo, tuple(a + b for a, b in zip(lo, sd)), lv),
            lowers,
            sides,
            lvl,
        )

    if ndim is not None:
        return build(ndim)
    return st.integers(1, 3).flatmap(build)


def box_work(box: Box, refine_factor: int = 2) -> float:
    """Per-box oracle for the default work model: Berger-Oliger
    ``cells * refine_factor ** level``, written out."""
    return float(box.num_cells * refine_factor**box.level)


def box_row(box: Box) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """``box`` as the ``(lower, upper, level)`` row the splitter takes."""
    return box.lower, box.upper, box.level


def split_box(box: Box, target: float, model, constraints=None):
    """``split_row_to_target`` with ``Box`` objects in and out, for tests
    and per-box reference walks that state expectations as boxes."""
    out = split_row_to_target(box_row(box), target, model, constraints)
    if out is None:
        return None
    piece, rest = out
    return Box(*piece), [Box(*r) for r in rest]
