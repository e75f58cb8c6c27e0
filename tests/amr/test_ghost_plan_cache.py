"""The copy-plan cache: stale plans are noticed, steady state is free.

A level's plan is valid only for the patch *objects* of levels 0..L it
was built from.  Each regression below fails against a cache that
replays a plan without checking that: it asserts on cells such a cache
leaves untouched, fills from dead arrays, or keeps alive.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.amr import ghost as ghost_module
from repro.amr.ghost import GhostFiller
from repro.amr.hierarchy import GridHierarchy
from repro.amr.integrator import BergerOligerIntegrator
from repro.kernels.advection import AdvectionKernel
from repro.resilience.checkpoint import (
    hierarchy_state,
    restore_hierarchy_state,
)
from repro.util.geometry import Box, BoxList
from tests.amr.test_ghost_plan_identity import ReferenceGhostFiller
from tests.conftest import halves


def make_hierarchy(boundary: str = "periodic") -> GridHierarchy:
    k = AdvectionKernel(velocity=(1.0, 0.5), boundary=boundary)
    h = GridHierarchy(Box((0, 0), (8, 8)), k, max_levels=3)
    h.initialize()
    i, j = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    h.levels[0].patches[0].interior = (10.0 * i + j)[np.newaxis]
    return h


def assert_fill_matches_reference(h: GridHierarchy, level: int) -> None:
    """``fill_level_ghosts(level)`` through the hierarchy's (possibly
    warm) cache leaves what the plan-free recursive walk leaves."""
    patches = h.levels[level].patches
    start = [p.data.copy() for p in patches]
    ReferenceGhostFiller(h).fill_level_ghosts(level)
    expected = [p.data.copy() for p in patches]
    for p, saved in zip(patches, start):
        p.data[...] = saved
    GhostFiller(h).fill_level_ghosts(level)
    for p, want in zip(patches, expected):
        np.testing.assert_array_equal(p.data, want)


class TestStalePlans:
    def test_repatch_to_a_different_tiling(self):
        h = make_hierarchy()
        filler = GhostFiller(h)
        filler.fill_level_ghosts(0)
        h.repatch_level(0, BoxList(halves(h.domain, 0)))
        assert_fill_matches_reference(h, 0)
        left, right = h.levels[0].patches
        # The left half's upper ghost row is the right half's first row.
        np.testing.assert_array_equal(
            left.data[0, -1, 1:-1], right.interior[0, 0]
        )
        assert h.ghost_plans.builds == 2

    def test_restore_to_equal_boxes_but_new_arrays(self):
        h = make_hierarchy()
        h.repatch_level(0, BoxList(halves(h.domain, 1)))
        GhostFiller(h).fill_level_ghosts(0)
        dead = weakref.ref(h.levels[0].patches[0].data)  # the field array
        state = hierarchy_state(h)
        restore_hierarchy_state(h, state)
        live = h.levels[0].patches
        assert [p.box for p in live] == list(halves(h.domain, 1))
        # Restored ghosts hold the snapshot's; scrub them so only a fill
        # that writes into the *live* arrays can put them back.
        for p in live:
            interior = p.interior.copy()
            p.data[...] = -1.0
            p.interior = interior
        assert_fill_matches_reference(h, 0)
        assert not (live[0].data == -1.0).any()
        gc.collect()
        assert dead() is None

    def test_dead_patches_of_every_level_are_released_by_one_fill(self):
        h = make_hierarchy()
        h.set_level_boxes(1, BoxList([Box((4, 4), (10, 10), 1)]))
        filler = GhostFiller(h)
        filler.fill_level_ghosts(0)
        filler.fill_level_ghosts(1)  # its plan reads level 0 as well
        dead = [weakref.ref(p.data) for lvl in h.levels for p in lvl]
        restore_hierarchy_state(h, hierarchy_state(h))
        filler.fill_level_ghosts(0)  # level 1 is not filled again
        gc.collect()
        assert [ref() for ref in dead] == [None, None]

    def test_level_dropped_and_recreated(self):
        h = make_hierarchy()
        boxes = BoxList([Box((4, 4), (10, 10), 1)])
        h.set_level_boxes(1, boxes)
        filler = GhostFiller(h)
        filler.fill_level_ghosts(1)
        dropped = weakref.ref(h.levels[1].patches[0].data)
        h.set_level_boxes(1, BoxList())
        assert h.num_levels == 1
        filler.fill_level_ghosts(0)
        gc.collect()
        assert dropped() is None  # the vanished level's plan went with it
        h.set_level_boxes(1, boxes)
        h.levels[1].patches[0].interior = np.full((1, 6, 6), 7.0)
        assert_fill_matches_reference(h, 1)
        # Left ghost column: prolonged level-0 row i=1 (see test_ghost.py).
        np.testing.assert_array_equal(
            h.levels[1].patches[0].data[0, 0, 1:-1], [12, 12, 13, 13, 14, 14]
        )

    def test_coarser_level_repatched_under_an_unchanged_fine_level(self):
        h = make_hierarchy()
        h.set_level_boxes(1, BoxList([Box((4, 4), (10, 10), 1)]))
        filler = GhostFiller(h)
        filler.fill_level_ghosts(1)
        fine = h.levels[1].patches[0]
        h.repatch_level(0, BoxList(halves(h.domain, 1)))
        for p in h.levels[0]:
            p.interior = -p.interior  # only the new level-0 arrays change
        assert h.levels[1].patches[0] is fine
        assert_fill_matches_reference(h, 1)
        np.testing.assert_array_equal(
            fine.data[0, 0, 1:-1], [-12, -12, -13, -13, -14, -14]
        )
        assert h.ghost_plans.builds == 2

    def test_restriction_partners_follow_a_repatched_parent(self):
        h = make_hierarchy()
        h.set_level_boxes(1, BoxList([Box((4, 4), (10, 10), 1)]))
        h.levels[1].patches[0].interior = np.full((1, 6, 6), 5.0)
        h.restrict_level(1)
        h.repatch_level(0, BoxList(halves(h.domain, 0)))
        for p in h.levels[0]:
            p.interior = np.zeros_like(p.interior)
        h.restrict_level(1)
        composite = GhostFiller(h).fetch(h.domain, 0)[0]
        assert (composite[2:5, 2:5] == 5.0).all()
        assert composite.sum() == 9 * 5.0


class TestSteadyState:
    @pytest.mark.parametrize("boundary", ["periodic", "outflow"])
    def test_later_fills_build_nothing(self, monkeypatch, boundary):
        k = AdvectionKernel(
            velocity=(1.0, 0.5),
            pulse_center=(8.0, 8.0),
            pulse_width=2.0,
            boundary=boundary,
        )
        h = GridHierarchy(Box((0, 0), (32, 32)), k, max_levels=3)
        integ = BergerOligerIntegrator(h, regrid_interval=0)
        integ.setup()
        assert h.num_levels == 3
        filler = integ.filler
        integ.advance()  # first fill of every level builds its plan
        assert h.ghost_plans.builds == 3

        made = {"boxes": 0, "sweeps": 0}
        post_init = Box.__post_init__
        sweep = ghost_module.overlap_pairs

        def counting_post_init(self):
            made["boxes"] += 1
            post_init(self)

        def counting_sweep(*args):
            made["sweeps"] += 1
            return sweep(*args)

        monkeypatch.setattr(Box, "__post_init__", counting_post_init)
        monkeypatch.setattr(ghost_module, "overlap_pairs", counting_sweep)
        replays = h.ghost_plans.replays
        for level in range(3):
            filler.fill_level_ghosts(level)
        h.restrict_level(2)
        h.restrict_level(1)
        assert made == {"boxes": 0, "sweeps": 0}
        assert h.ghost_plans.builds == 3
        assert h.ghost_plans.replays == replays + 3

    def test_builds_follow_layout_changes_not_fills(self, monkeypatch):
        """Over a whole kill-and-recover experiment a plan is built once
        per (layout change, level) -- counted here from outside, as the
        number of fills that meet patches the previous fill of that level
        did not see -- and replayed by every other fill."""
        from repro.runtime.experiment import chaos_experiment

        fills = []
        last_seen: dict[tuple[int, int], tuple] = {}
        hierarchies = {}
        fill = GhostFiller.fill_level_ghosts

        def watching_fill(self, level):
            h = self.hierarchy
            layout = tuple(tuple(lvl.patches) for lvl in h.levels[: level + 1])
            key = (id(h), level)
            fills.append(last_seen.get(key) != layout)
            last_seen[key] = layout  # holds the patches: ids stay unique
            hierarchies[id(h)] = h
            fill(self, level)

        monkeypatch.setattr(GhostFiller, "fill_level_ghosts", watching_fill)
        stats = chaos_experiment()
        assert stats["bitwise_identical"] and stats["num_restores"] >= 1
        caches = [h.ghost_plans for h in hierarchies.values()]
        assert len(caches) == 3  # sequential, fault-free, chaos
        assert sum(c.builds for c in caches) == sum(fills)
        assert sum(c.replays for c in caches) == len(fills)
        assert 4 * sum(fills) < len(fills)


class TestLint:
    def test_no_box_walk_in_the_ghost_module(self):
        """``tools/check_vectorized_work.py`` (CI) stays green: no looped
        ``Box`` set operation in ``amr/ghost.py``, and its syntax-tree
        rules still flag their planted offender."""
        import subprocess
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parents[2]
        proc = subprocess.run(
            [sys.executable, str(repo / "tools" / "check_vectorized_work.py")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
