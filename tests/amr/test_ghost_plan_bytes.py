"""What the simulator charges vs what the executor moves.

``plan_exchange_volumes`` prices a ghost exchange from box columns;
``ghost_plan_bytes`` reads the bytes off the copy plan the executor
replays.  The same-level, same-position copies of the plan must be the
charge model's intra-level term exactly; the other two terms are where
the two legitimately differ (table in ARCHITECTURE, "Ghost fill from a
copy plan").
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.ghost import ghost_plan_bytes, plan_exchange_volumes
from repro.amr.hierarchy import GridHierarchy
from repro.kernels.advection import AdvectionKernel
from repro.util.errors import GeometryError
from repro.util.geometry import Box, BoxList
from tests.amr.test_ghost_plan_identity import hierarchies
from tests.conftest import halves


@settings(max_examples=100, deadline=None)
@given(h=hierarchies(), num_ranks=st.integers(1, 5), seed=st.integers(0, 999))
def test_same_level_ops_are_the_charged_intra_level_term(h, num_ranks, seed):
    rng = np.random.default_rng(seed)
    owners = rng.integers(0, num_ranks, size=len(h.box_list()))
    first = 0
    for level, lvl in enumerate(h.levels):
        last = first + len(lvl)
        moved = ghost_plan_bytes(
            h.ghost_plans.level_plan(h, level), owners[:last], 8.0
        )
        charged = plan_exchange_volumes(
            lvl.boxes,
            owners[first:last],
            ghost_width=h.kernel.ghost_width,
            bytes_per_cell=8.0,
        )
        assert moved["same_level"] == charged
        if h.kernel.boundary == "outflow":
            assert moved["wrap"] == {}
        if level == 0:
            assert moved["inter_level"] == {}
        first = last


def test_terms_on_a_layout_worked_by_hand():
    k = AdvectionKernel(velocity=(1.0, 0.5))
    h = GridHierarchy(Box((0, 0), (8, 8)), k, max_levels=2)
    h.initialize()
    h.repatch_level(0, BoxList(halves(h.domain, 0)))
    h.set_level_boxes(1, BoxList([Box((4, 4), (12, 12), 1)]))
    moved = ghost_plan_bytes(h.ghost_plans.level_plan(h, 0), [0, 1], 8.0)
    # Each half needs the other's facing row across the cut (8 cells)...
    assert moved["same_level"] == {(1, 0): 64.0, (0, 1): 64.0}
    # ...and, around the torus, the other's far row plus the four corner
    # cells (its own wrapped columns stay on its rank).
    assert moved["wrap"] == {(1, 0): 96.0, (0, 1): 96.0}
    assert moved["inter_level"] == {}
    # The fine patch's ghost ring is 36 fine cells = the 20 coarse cells
    # around coarse (2,2)-(6,6); the charge model bills all 36 of the
    # coarsened footprint (1,1)-(7,7).  Rank 2 owns the fine patch.
    moved = ghost_plan_bytes(h.ghost_plans.level_plan(h, 1), [0, 1, 2], 8.0)
    assert moved["same_level"] == moved["wrap"] == {}
    assert sum(moved["inter_level"].values()) == 20 * 8.0
    charged = plan_exchange_volumes(h.box_list(), [0, 1, 2], bytes_per_cell=8.0)
    assert charged[(0, 2)] + charged[(1, 2)] == 36 * 8.0


def test_owner_vector_length_is_checked():
    k = AdvectionKernel(velocity=(1.0, 0.5))
    h = GridHierarchy(Box((0, 0), (8, 8)), k, max_levels=2)
    h.initialize()
    with pytest.raises(GeometryError, match="2 owner ranks for 1 patches"):
        ghost_plan_bytes(h.ghost_plans.level_plan(h, 0), [0, 1])
