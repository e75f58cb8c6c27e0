"""Tests for node specs, node state and the synthetic load generator."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.loadgen import SyntheticLoadGenerator
from repro.cluster.node import NodeSpec, NodeState
from repro.util.errors import SimulationError
from tests.monitor.sweep_oracle import cpu_share_under_load


class TestNodeSpec:
    def test_defaults(self):
        s = NodeSpec(name="n0")
        assert s.cpu_speed == 1.0
        assert s.bandwidth_mbps == 100.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cpu_speed": 0.0},
            {"cpu_speed": -1.0},
            {"memory_mb": 0.0},
            {"bandwidth_mbps": -5.0},
            {"os_overhead": 1.0},
            {"os_overhead": -0.1},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            NodeSpec(name="bad", **kwargs)


class TestNodeState:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cpu_available": 1.5, "free_memory_mb": 0, "bandwidth_mbps": 1},
            {"cpu_available": -0.1, "free_memory_mb": 0, "bandwidth_mbps": 1},
            {"cpu_available": 0.5, "free_memory_mb": -1, "bandwidth_mbps": 1},
            {"cpu_available": 0.5, "free_memory_mb": 0, "bandwidth_mbps": -1},
        ],
    )
    def test_invalid_states_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            NodeState(**kwargs)


class TestCpuShare:
    def test_unloaded(self):
        assert cpu_share_under_load(0.0) == 1.0
        assert cpu_share_under_load(0.0, os_overhead=0.03) == 0.97

    def test_unit_load_halves(self):
        assert cpu_share_under_load(1.0) == 0.5

    def test_monotone_decreasing(self):
        shares = [cpu_share_under_load(l) for l in (0, 0.5, 1, 2, 5, 100)]
        assert shares == sorted(shares, reverse=True)
        assert shares[-1] > 0.0

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            cpu_share_under_load(-0.5)


def loaded(**kwargs) -> Cluster:
    """One node under one generator: the cluster prices its load."""
    c = Cluster([NodeSpec(name="n0")])
    c.add_load_generator(SyntheticLoadGenerator(node=0, **kwargs))
    return c


class TestSyntheticLoadGenerator:
    def test_linear_ramp_then_plateau(self):
        c = loaded(start_time=10.0, ramp_rate=0.5, target_level=2.0)
        assert c.load_level(0, 0.0) == 0.0
        assert c.load_level(0, 10.0) == 0.0
        assert c.load_level(0, 12.0) == pytest.approx(1.0)
        assert c.load_level(0, 14.0) == pytest.approx(2.0)
        assert c.load_level(0, 100.0) == pytest.approx(2.0)  # plateau

    def test_stop_time_removes_load(self):
        c = loaded(ramp_rate=1.0, target_level=1.0, stop_time=50.0)
        assert c.load_level(0, 49.9) == 1.0
        assert c.load_level(0, 50.0) == 0.0
        assert c.load_level(0, 60.0) == 0.0

    def test_memory_tracks_level(self):
        c = loaded(ramp_rate=1.0, target_level=2.0, memory_per_unit_mb=10.0)
        free = c.state_of(0, 0.0).free_memory_mb
        assert free - c.state_of(0, 1.0).free_memory_mb == pytest.approx(10.0)
        assert free - c.state_of(0, 5.0).free_memory_mb == pytest.approx(20.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"node": -1},
            {"ramp_rate": 0.0},
            {"ramp_rate": -1.0},
            {"target_level": -0.5},
            {"start_time": 10.0, "stop_time": 5.0},
            {"memory_per_unit_mb": -1.0},
        ],
    )
    def test_invalid_generators_rejected(self, kwargs):
        base = {"node": 0}
        base.update(kwargs)
        with pytest.raises(SimulationError):
            SyntheticLoadGenerator(**base)
