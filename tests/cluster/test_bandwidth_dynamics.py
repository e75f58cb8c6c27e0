"""Tests for network-load effects on deliverable bandwidth."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, SyntheticLoadGenerator
from repro.comm import SimCommunicator
from repro.monitor import ResourceMonitor
from repro.util.errors import SimulationError


def network_loaded_cluster(fraction: float = 0.6) -> Cluster:
    c = Cluster.homogeneous(2)
    c.add_load_generator(
        SyntheticLoadGenerator(
            node=0,
            ramp_rate=10.0,
            target_level=1.0,
            memory_per_unit_mb=0.0,
            bandwidth_fraction_per_unit=fraction,
        )
    )
    return c


class TestBandwidthLoad:
    def test_consumption_reduces_bandwidth(self):
        c = network_loaded_cluster(0.6)
        assert c.state_of(0, t=5.0).bandwidth_mbps == pytest.approx(40.0)
        assert c.state_of(1, t=5.0).bandwidth_mbps == pytest.approx(100.0)

    def test_floor_at_five_percent(self):
        c = network_loaded_cluster(1.0)
        c.add_load_generator(
            SyntheticLoadGenerator(
                node=0, ramp_rate=10.0, target_level=1.0,
                memory_per_unit_mb=0.0, bandwidth_fraction_per_unit=1.0,
            )
        )
        assert c.state_of(0, t=5.0).bandwidth_mbps == pytest.approx(5.0)

    def test_ramp_applies_to_bandwidth_too(self):
        c = Cluster.homogeneous(1)
        c.add_load_generator(
            SyntheticLoadGenerator(
                node=0, start_time=0.0, ramp_rate=0.1, target_level=1.0,
                bandwidth_fraction_per_unit=0.5,
            )
        )
        early = c.state_of(0, t=1.0).bandwidth_mbps
        late = c.state_of(0, t=10.0).bandwidth_mbps
        assert late < early

    def test_invalid_fraction_rejected(self):
        with pytest.raises(SimulationError):
            SyntheticLoadGenerator(node=0, bandwidth_fraction_per_unit=1.5)
        with pytest.raises(SimulationError):
            SyntheticLoadGenerator(node=0, bandwidth_fraction_per_unit=-0.1)

    def test_transfers_slow_down(self):
        loaded = SimCommunicator(network_loaded_cluster(0.8))
        loaded.cluster.clock.advance(5.0)
        idle = SimCommunicator(Cluster.homogeneous(2))
        message = {(0, 1): 1e6}
        assert loaded.exchange_time(message).max() > idle.exchange_time(message).max()

    def test_monitor_sees_reduced_bandwidth(self):
        c = network_loaded_cluster(0.6)
        c.clock.advance(5.0)
        snap = ResourceMonitor(c).probe_all()
        assert snap.bandwidth_mbps[0] == pytest.approx(40.0)
        assert snap.bandwidth_mbps[1] == pytest.approx(100.0)
