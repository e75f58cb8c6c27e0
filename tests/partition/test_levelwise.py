"""Tests for the per-level decomposition wrapper."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels.workloads import paper_rm3d_trace
from repro.partition import (
    ACEComposite,
    ACEHeterogeneous,
    LevelPartitioner,
)
from repro.util.geometry import BoxList
from tests.conftest import box_work as default_work

PAPER_CAPS = np.array([0.16, 0.19, 0.31, 0.34])


def epoch():
    return paper_rm3d_trace(num_regrids=8).epoch(4)


class TestLevelPartitioner:
    def test_name_reflects_inner(self):
        p = LevelPartitioner(ACEHeterogeneous())
        assert p.name == "LevelWise[ACEHeterogeneous]"

    def test_covers_input(self):
        p = LevelPartitioner(ACEHeterogeneous())
        r = p.partition(epoch(), PAPER_CAPS)
        r.validate_covers(epoch())

    def test_every_level_balanced_separately(self):
        """Each level's work lands on every rank in ~capacity proportion --
        the defining property of level-based decomposition."""
        p = LevelPartitioner(ACEHeterogeneous())
        r = p.partition(epoch(), PAPER_CAPS)
        owners = dict(r.layout.pairs())
        for level in epoch().levels:
            per_rank = np.zeros(4)
            for box, rank in owners.items():
                if box.level == level:
                    per_rank[rank] += default_work(box)
            shares = per_rank / per_rank.sum()
            np.testing.assert_allclose(shares, PAPER_CAPS, atol=0.08)

    def test_composite_does_not_balance_levels(self):
        """The composite scheme balances the total, not each level -- the
        contrast that motivates level-wise decomposition."""
        r = ACEHeterogeneous().partition(epoch(), PAPER_CAPS)
        owners = dict(r.layout.pairs())
        worst = 0.0
        for level in epoch().levels:
            per_rank = np.zeros(4)
            for box, rank in owners.items():
                if box.level == level:
                    per_rank[rank] += default_work(box)
            if per_rank.sum() == 0:
                continue
            shares = per_rank / per_rank.sum()
            worst = max(worst, float(np.abs(shares - PAPER_CAPS).max()))
        assert worst > 0.1  # some level is badly skewed per-rank

    def test_total_loads_also_proportional(self):
        p = LevelPartitioner(ACEHeterogeneous())
        r = p.partition(epoch(), PAPER_CAPS)
        shares = r.loads() / r.loads().sum()
        np.testing.assert_allclose(shares, PAPER_CAPS, atol=0.05)

    def test_more_comm_than_composite(self):
        """Level-wise pays in inter-level communication volume."""
        from repro.amr.ghost import plan_exchange_volumes

        comp = ACEComposite().partition(epoch(), PAPER_CAPS)
        lvl = LevelPartitioner(ACEComposite()).partition(epoch(), PAPER_CAPS)
        v_comp = sum(
            plan_exchange_volumes(comp.boxes(), comp.rank_vector()).values()
        )
        v_lvl = sum(plan_exchange_volumes(lvl.boxes(), lvl.rank_vector()).values())
        assert v_lvl >= v_comp

    def test_empty(self):
        p = LevelPartitioner(ACEHeterogeneous())
        assert p.partition(BoxList(), PAPER_CAPS).layout.pairs() == []

    def test_input_guards(self):
        p = LevelPartitioner(ACEHeterogeneous())
        from repro.util.errors import PartitionError

        with pytest.raises(PartitionError):
            p.partition(epoch(), [])
