"""Tests for the relative-capacity metric (paper section 5.2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.kernels.workloads import paper_rm3d_trace
from repro.monitor import ResourceMonitor
from repro.monitor.service import MonitorSnapshot
from repro.partition import ACEHeterogeneous, GreedyLPT, SFCHybrid
from repro.partition.capacity import CapacityCalculator, CapacityWeights
from repro.util.errors import PartitionError


def snap(cpu, memory_mb, bandwidth_mbps) -> MonitorSnapshot:
    return MonitorSnapshot(
        time=0.0,
        cpu=np.asarray(cpu, float),
        memory_mb=np.asarray(memory_mb, float),
        bandwidth_mbps=np.asarray(bandwidth_mbps, float),
        overhead_seconds=0.0,
    )


class TestWeights:
    def test_equal_is_third_each(self):
        w = CapacityWeights.equal()
        assert w.w_p == w.w_m == w.w_b == pytest.approx(1 / 3)

    def test_sum_enforced(self):
        with pytest.raises(PartitionError):
            CapacityWeights(0.5, 0.5, 0.5)

    def test_negative_rejected(self):
        with pytest.raises(PartitionError):
            CapacityWeights(-0.2, 0.6, 0.6)

    def test_profiles_valid(self):
        for w in (
            CapacityWeights.compute_bound(),
            CapacityWeights.memory_bound(),
            CapacityWeights.comm_bound(),
        ):
            assert w.w_p + w.w_m + w.w_b == pytest.approx(1.0)


class TestCapacityCalculator:
    def test_homogeneous_cluster_equal_shares(self):
        calc = CapacityCalculator()
        c = calc.relative_capacities(snap([0.9] * 4, [400] * 4, [100] * 4))
        np.testing.assert_allclose(c, 0.25)

    def test_sums_to_one(self):
        calc = CapacityCalculator()
        c = calc.relative_capacities(
            snap([0.1, 0.9], [100, 800], [10, 100])
        )
        assert c.sum() == pytest.approx(1.0)
        assert c[1] > c[0]

    def test_paper_worked_example(self):
        """Section 6.1.3: loaded 4-node cluster -> C ~ (16, 19, 31, 34) %."""
        cluster = Cluster.paper_four_node()
        cluster.clock.advance(5.0)
        snapshot = ResourceMonitor(cluster).probe_all()
        c = CapacityCalculator(CapacityWeights.equal()).relative_capacities(
            snapshot
        )
        np.testing.assert_allclose(c, [0.16, 0.19, 0.31, 0.34], atol=0.01)

    def test_weight_skew_changes_ranking(self):
        """A memory-rich but CPU-poor node gains under memory weighting."""
        s = snap([0.2, 0.8], [900, 100], [100, 100])
        cpu_heavy = CapacityCalculator(CapacityWeights.compute_bound())
        mem_heavy = CapacityCalculator(CapacityWeights.memory_bound())
        assert cpu_heavy.relative_capacities(s)[0] < 0.5
        assert mem_heavy.relative_capacities(s)[0] > 0.5

    def test_zero_total_metric_spreads_evenly(self):
        """All-zero free memory carries no signal: fall back to uniform."""
        c = CapacityCalculator().relative_capacities(
            snap([0.5, 1.0], [0, 0], [100, 100])
        )
        assert c.sum() == pytest.approx(1.0)
        assert c[1] > c[0]  # CPU still differentiates

    def test_negative_availability_rejected(self):
        with pytest.raises(PartitionError):
            CapacityCalculator().relative_capacities(
                snap([-0.1, 0.5], [1, 1], [1, 1])
            )


NON_FINITE = [np.nan, np.inf, -np.inf]


class TestNonFiniteRejected:
    """A NaN or infinite sensor reading or capacity is a typed error, not
    NaN capacities or a layout that silently piles work on one rank."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("field", ["cpu", "memory_mb", "bandwidth_mbps"])
    def test_sensor_reading(self, field, bad):
        readings = {
            "cpu": [0.5, 0.9, 0.7, 0.3],
            "memory_mb": [400.0] * 4,
            "bandwidth_mbps": [100.0] * 4,
        }
        readings[field][1] = bad
        with pytest.raises(PartitionError, match="finite"):
            CapacityCalculator().relative_capacities(snap(**readings))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_reading_of_a_live_node(self, bad):
        calc = CapacityCalculator()
        cpu = [0.5, bad, 0.7, 0.3]
        with pytest.raises(PartitionError, match="finite"):
            calc.relative_capacities(
                snap(cpu, [400.0] * 4, [100.0] * 4),
                live=np.array([True, True, False, True]),
            )
        # A dead node's reading is never used.
        c = calc.relative_capacities(
            snap(cpu, [400.0] * 4, [100.0] * 4),
            live=np.array([True, False, True, True]),
        )
        assert c[1] == 0.0 and c.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize(
        "partitioner", [ACEHeterogeneous, SFCHybrid, GreedyLPT],
        ids=lambda cls: cls.name,
    )
    def test_partitioner_capacities(self, partitioner, bad):
        boxes = paper_rm3d_trace(num_regrids=4).epoch(2)
        for caps in ([bad, 1.0], [0.16, 0.19, bad, 0.34]):
            with pytest.raises(PartitionError, match="finite"):
                partitioner().partition(boxes, caps)


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(
            st.floats(0.01, 1.0), st.floats(1.0, 1024.0), st.floats(1.0, 1000.0)
        ),
        min_size=1,
        max_size=32,
    ),
    st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
)
def test_capacity_properties(nodes, raw_weights):
    """Sum-to-one, non-negativity and resource monotonicity hold for any
    cluster state and any valid weight vector."""
    total = sum(raw_weights)
    if total <= 0:
        return
    w = CapacityWeights(*(x / total for x in raw_weights))
    calc = CapacityCalculator(w)
    cpu = [n[0] for n in nodes]
    mem = [n[1] for n in nodes]
    bw = [n[2] for n in nodes]
    c = calc.relative_capacities(snap(cpu, mem, bw))
    assert c.sum() == pytest.approx(1.0)
    assert (c >= 0).all()
    # Monotonicity: doubling node 0's CPU cannot lower its capacity.
    boosted = calc.relative_capacities(snap([cpu[0] * 2] + cpu[1:], mem, bw))
    assert boosted[0] >= c[0] - 1e-12
