"""Tests for the Cluster facade and its presets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster, NodeSpec, SyntheticLoadGenerator
from repro.cluster.cluster import OS_BASE_MEMORY_MB
from repro.util.errors import SimulationError


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            Cluster([])

    def test_generator_on_unknown_node_rejected(self):
        with pytest.raises(SimulationError):
            Cluster(
                [NodeSpec(name="n0")],
                load_generators=[SyntheticLoadGenerator(node=3)],
            )

    def test_state_of_unknown_node_rejected(self):
        c = Cluster.homogeneous(2)
        with pytest.raises(SimulationError):
            c.state_of(5)


class TestStateDynamics:
    def test_unloaded_node_state(self):
        c = Cluster.homogeneous(1)
        st = c.state_of(0)
        assert st.cpu_available == pytest.approx(0.97)  # OS overhead
        assert st.free_memory_mb == pytest.approx(512.0 - OS_BASE_MEMORY_MB)
        assert st.bandwidth_mbps == 100.0
        assert st.load_level == 0.0

    def test_load_lowers_cpu_and_memory(self):
        c = Cluster.homogeneous(2)
        c.add_load_generator(
            SyntheticLoadGenerator(
                node=0, ramp_rate=1.0, target_level=1.0, memory_per_unit_mb=100.0
            )
        )
        c.clock.advance(10.0)
        loaded, idle = c.state_of(0), c.state_of(1)
        assert loaded.cpu_available == pytest.approx(0.97 / 2)
        assert loaded.free_memory_mb == pytest.approx(448.0 - 100.0)
        assert idle.cpu_available == pytest.approx(0.97)

    def test_multiple_generators_stack(self):
        c = Cluster.homogeneous(1)
        for target in (0.5, 1.5):
            c.add_load_generator(
                SyntheticLoadGenerator(node=0, ramp_rate=10.0, target_level=target)
            )
        assert c.load_level(0, t=10.0) == pytest.approx(2.0)
        assert c.state_of(0, t=10.0).cpu_available == pytest.approx(0.97 / 3)

    def test_memory_floor_is_zero(self):
        c = Cluster([NodeSpec(name="tiny", memory_mb=80.0)])
        c.add_load_generator(
            SyntheticLoadGenerator(
                node=0, ramp_rate=10.0, target_level=5.0, memory_per_unit_mb=100.0
            )
        )
        assert c.state_of(0, t=10.0).free_memory_mb == 0.0

    def test_state_is_pure_function_of_time(self):
        """Replaying queries at the same t gives identical states."""
        c = Cluster.paper_linux_cluster(8, dynamic=True)
        s1 = [c.state_of(k, t=123.0) for k in range(c.num_nodes)]
        c.clock.advance(500.0)
        s2 = [c.state_of(k, t=123.0) for k in range(c.num_nodes)]
        assert s1 == s2

    def test_effective_speed_combines_spec_and_load(self):
        c = Cluster([NodeSpec(name="fast", cpu_speed=2.0)])
        c.add_load_generator(
            SyntheticLoadGenerator(node=0, ramp_rate=10.0, target_level=1.0)
        )
        speeds = c.effective_speeds(t=10.0)
        assert speeds.shape == (1,)
        assert speeds[0] == pytest.approx(2.0 * 0.97 / 2)


class TestPresets:
    def test_homogeneous(self):
        c = Cluster.homogeneous(4)
        assert c.num_nodes == 4
        assert len({n.cpu_speed for n in c.nodes}) == 1

    def test_heterogeneous_replayable(self):
        a = Cluster.heterogeneous(8, seed=3)
        b = Cluster.heterogeneous(8, seed=3)
        assert [n.cpu_speed for n in a.nodes] == [n.cpu_speed for n in b.nodes]
        speeds = {n.cpu_speed for n in a.nodes}
        assert len(speeds) > 1  # actually heterogeneous

    def test_paper_four_node_capacity_targets(self):
        """Equal-weight relative capacities ~ 16/19/31/34 % (section 6.1.3)."""
        c = Cluster.paper_four_node()
        t = 5.0  # ramps plateau within the first second
        states = [c.state_of(k, t) for k in range(c.num_nodes)]
        p = np.array([s.cpu_available for s in states])
        m = np.array([s.free_memory_mb for s in states])
        b = np.array([s.bandwidth_mbps for s in states])
        cap = (p / p.sum() + m / m.sum() + b / b.sum()) / 3.0
        np.testing.assert_allclose(cap, [0.16, 0.19, 0.31, 0.34], atol=0.01)
        assert cap.sum() == pytest.approx(1.0)

    def test_paper_linux_cluster_sizes(self):
        c = Cluster.paper_linux_cluster(32)
        assert c.num_nodes == 32
        assert len(c.load_generators) == 16

    def test_paper_linux_cluster_dynamic_changes_over_time(self):
        """Phase 1 nodes are loaded at t=0; after mid-horizon the load has
        moved to the phase 2 nodes."""
        c = Cluster.paper_linux_cluster(8, dynamic=True, seed=1, horizon_s=900.0)
        early = c.effective_speeds(t=0.0)
        late = c.effective_speeds(t=600.0)
        assert not np.allclose(early, late)
        # Some node slowed down and some sped up (the load moved).
        assert (late < early - 0.1).any()
        assert (late > early + 0.1).any()

    def test_paper_linux_cluster_bad_n(self):
        with pytest.raises(SimulationError):
            Cluster.paper_linux_cluster(0)
