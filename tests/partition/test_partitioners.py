"""Tests for ACEHeterogeneous, ACEComposite and GreedyLPT."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.workloads import paper_rm3d_trace
from repro.partition import (
    ACEComposite,
    ACEHeterogeneous,
    GreedyLPT,
    SFCHybrid,
    SplitConstraints,
    load_imbalance,
    makespan_estimate,
)
from repro.util.errors import PartitionError
from repro.util.geometry import BoxList, Layout
from tests.conftest import box_work as default_work, layout_pairs, moving_blob_trace

PAPER_CAPS = np.array([0.16, 0.19, 0.31, 0.34])


def epoch(i: int = 3) -> BoxList:
    return paper_rm3d_trace(num_regrids=8).epoch(i)


ALL_PARTITIONERS = [
    ACEHeterogeneous(),
    ACEComposite(),
    GreedyLPT(),
    SFCHybrid(),
]


@pytest.mark.parametrize("p", ALL_PARTITIONERS, ids=lambda p: p.name)
class TestCommonContract:
    def test_covers_input_exactly(self, p):
        r = p.partition(epoch(), PAPER_CAPS)
        r.validate_covers(epoch())

    def test_all_ranks_in_range(self, p):
        r = p.partition(epoch(), PAPER_CAPS)
        ranks = set(r.layout.ranks.tolist())
        assert ranks <= set(range(4))

    def test_empty_boxlist(self, p):
        r = p.partition(BoxList(), PAPER_CAPS)
        assert layout_pairs(r.layout) == []

    def test_single_rank_gets_everything(self, p):
        r = p.partition(epoch(), [1.0])
        assert all(rank == 0 for rank in r.layout.ranks)
        assert r.loads()[0] == pytest.approx(
            sum(default_work(b) for b in epoch())
        )

    def test_deterministic(self, p):
        a = p.partition(epoch(), PAPER_CAPS)
        b = p.partition(epoch(), PAPER_CAPS)
        assert layout_pairs(a.layout) == layout_pairs(b.layout)

    def test_input_guards(self, p):
        with pytest.raises(PartitionError):
            p.partition(epoch(), [])
        with pytest.raises(PartitionError):
            p.partition(epoch(), [-0.5, 1.5])
        with pytest.raises(PartitionError):
            p.partition(epoch(), [0.0, 0.0])


class TestACEHeterogeneous:
    def test_loads_proportional_to_capacity(self):
        r = ACEHeterogeneous().partition(epoch(), PAPER_CAPS)
        shares = r.loads() / r.loads().sum()
        np.testing.assert_allclose(shares, PAPER_CAPS, atol=0.04)

    def test_imbalance_below_paper_bound(self):
        """Paper: residual imbalance < 40 % from splitting constraints."""
        for i in range(8):
            r = ACEHeterogeneous().partition(epoch(i), PAPER_CAPS)
            assert load_imbalance(r).max() < 40.0

    def test_extreme_capacities(self):
        caps = [0.01, 0.01, 0.98]
        r = ACEHeterogeneous().partition(epoch(), caps)
        loads = r.loads()
        assert loads[2] > 10 * loads[0]

    def test_splits_reported(self):
        r = ACEHeterogeneous().partition(epoch(), PAPER_CAPS)
        assert r.num_splits > 0

    def test_sorting_limits_splits(self):
        """Smallest-box-to-smallest-rank ordering keeps splits modest:
        far fewer splits than boxes."""
        bl = epoch()
        r = ACEHeterogeneous().partition(bl, PAPER_CAPS)
        assert r.num_splits <= len(bl)

    def test_respects_min_box_size(self):
        c = SplitConstraints(min_box_size=4, snap=1)
        r = ACEHeterogeneous(constraints=c).partition(epoch(), PAPER_CAPS)
        original_min = min(min(b.shape) for b in epoch())
        for box in r.boxes():
            assert min(box.shape) >= min(4, original_min)

    def test_homogeneous_capacities_near_equal_loads(self):
        r = ACEHeterogeneous().partition(epoch(), [0.25] * 4)
        shares = r.loads() / r.loads().sum()
        np.testing.assert_allclose(shares, 0.25, atol=0.05)


class TestACEComposite:
    def test_equal_loads_regardless_of_capacity(self):
        r = ACEComposite().partition(epoch(), PAPER_CAPS)
        shares = r.loads() / r.loads().sum()
        np.testing.assert_allclose(shares, 0.25, atol=0.05)

    def test_imbalance_against_capacity_targets_is_large(self):
        """The paper's fig. 10 effect: judged against capacity-proportional
        targets, the equal-share baseline is badly imbalanced."""
        r = ACEComposite().partition(epoch(), PAPER_CAPS)
        total = r.loads().sum()
        imb = load_imbalance(r, targets=PAPER_CAPS * total)
        assert imb.max() > 25.0

    def test_contiguous_spans_preserve_locality(self):
        """Each rank's level-0 boxes form a contiguous region (few owner
        changes along the curve)."""
        from tests.conftest import sfc_ordered

        bl = epoch()
        r = ACEComposite().partition(bl, PAPER_CAPS)
        owners = dict(layout_pairs(r.layout))
        ordered = sfc_ordered(r.boxes())
        ranks = [owners[b] for b in ordered]
        changes = sum(1 for a, b in zip(ranks, ranks[1:]) if a != b)
        assert changes <= 2 * len(PAPER_CAPS) + len(bl.levels) * 2


class TestSFCHybrid:
    def test_loads_proportional_to_capacity(self):
        r = SFCHybrid().partition(epoch(), PAPER_CAPS)
        shares = r.loads() / r.loads().sum()
        np.testing.assert_allclose(shares, PAPER_CAPS, atol=0.05)

    def test_contiguous_spans(self):
        """Hybrid keeps the curve-span locality of the default scheme."""
        from tests.conftest import sfc_ordered

        bl = epoch()
        r = SFCHybrid().partition(bl, PAPER_CAPS)
        owners = dict(layout_pairs(r.layout))
        ordered = sfc_ordered(r.boxes())
        ranks = [owners[b] for b in ordered]
        changes = sum(1 for a, b in zip(ranks, ranks[1:]) if a != b)
        assert changes <= 2 * len(PAPER_CAPS) + len(bl.levels) * 2

    def test_equal_capacities_match_composite_loads(self):
        bl = epoch()
        hybrid = SFCHybrid().partition(bl, [0.25] * 4)
        comp = ACEComposite().partition(bl, PAPER_CAPS)
        np.testing.assert_allclose(hybrid.loads(), comp.loads())


class TestGreedyLPT:
    def test_no_splits_ever(self):
        r = GreedyLPT().partition(epoch(), PAPER_CAPS)
        assert r.num_splits == 0
        assert r.num_assigned() == len(epoch())

    def test_roughly_tracks_capacity(self):
        r = GreedyLPT().partition(epoch(), PAPER_CAPS)
        shares = r.loads() / r.loads().sum()
        assert shares[3] > shares[0]


class TestMetrics:
    def test_makespan_prefers_capacity_aware_on_loaded_cluster(self):
        """The headline effect: with heterogeneous effective speeds, the
        system-sensitive partitioner's makespan beats the default's."""
        speeds = PAPER_CAPS * 4.0  # speeds proportional to capacity
        bl = epoch()
        het = ACEHeterogeneous().partition(bl, PAPER_CAPS)
        comp = ACEComposite().partition(bl, PAPER_CAPS)
        assert makespan_estimate(het, speeds) < makespan_estimate(comp, speeds)

    def test_makespan_guards(self):
        r = ACEHeterogeneous().partition(epoch(), PAPER_CAPS)
        with pytest.raises(PartitionError):
            makespan_estimate(r, [1.0])
        with pytest.raises(PartitionError):
            makespan_estimate(r, [0.0, 1, 1, 1])

    def test_imbalance_infinite_for_loaded_zero_target(self):
        r = GreedyLPT().partition(epoch(), [0.5, 0.5])
        imb = load_imbalance(r, targets=[0.0, r.loads().sum()])
        assert imb[0] == float("inf")

    def test_imbalance_wrong_length_targets(self):
        r = GreedyLPT().partition(epoch(), [0.5, 0.5])
        with pytest.raises(PartitionError):
            load_imbalance(r, targets=[1.0])


class TestResultHasOneForm:
    """A result used to hold pairs *and* columns, guarded by a length
    comparison: ``r.assignment[0] = (box, other_rank)`` kept the length,
    so ``owners()`` (what the HDDA applied) reported the edit while
    ``rank_vector()`` / ``loads()`` (what migration was priced from and
    imbalance measured on) silently kept the stale columns."""

    def test_no_pair_face_to_edit(self):
        r = GreedyLPT().partition(epoch(), [0.5, 0.5])
        assert not hasattr(r, "assignment")
        assert not hasattr(r, "owners")
        with pytest.raises(AttributeError):
            r.assignment = []

    def test_ownership_cannot_be_rewritten_in_place(self):
        r = GreedyLPT().partition(epoch(), [0.5, 0.5])
        ranks, loads = r.rank_vector().tolist(), r.loads().tolist()
        with pytest.raises(ValueError, match="read-only"):
            r.layout.ranks[0] = 1 - ranks[0]
        with pytest.raises(ValueError, match="read-only"):
            r.rank_vector()[0] = 1 - ranks[0]
        with pytest.raises(AttributeError):
            r.layout = Layout.from_pairs(())
        # Every view still reads the one layout.
        assert r.rank_vector() is r.layout.ranks
        assert [k for _, k in layout_pairs(r.layout)] == ranks
        assert r.loads().tolist() == loads


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 7),
    st.lists(st.floats(0.05, 1.0), min_size=2, max_size=8),
    st.sampled_from(["het", "comp", "lpt", "hybrid"]),
)
def test_partition_properties(epoch_idx, raw_caps, which):
    """All work assigned exactly once, all loads non-negative, targets sum
    to the total work -- for any epoch, capacity vector and partitioner."""
    p = {
        "het": ACEHeterogeneous(),
        "comp": ACEComposite(),
        "lpt": GreedyLPT(),
        "hybrid": SFCHybrid(),
    }[which]
    bl = moving_blob_trace(
        domain_shape=(64, 64), num_regrids=8, max_levels=3
    ).epoch(epoch_idx)
    r = p.partition(bl, raw_caps)
    r.validate_covers(bl)
    total = sum(default_work(b) for b in bl)
    assert r.loads().sum() == pytest.approx(total)
    assert r.targets.sum() == pytest.approx(total)
    assert (r.loads() >= 0).all()
