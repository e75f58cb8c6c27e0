"""Tests for the deviation-driven adaptive sensing policy."""

from __future__ import annotations

import math

import pytest

from repro.cluster import Cluster
from repro.kernels.workloads import paper_rm3d_trace
from repro.partition import ACEHeterogeneous
from repro.runtime import RuntimeConfig, SamrRuntime
from repro.util.errors import SimulationError


def run(horizon: float = 350.0, seed: int = 11, **cfg_kwargs):
    cluster = Cluster.paper_linux_cluster(
        4, seed=seed, dynamic=True, horizon_s=horizon
    )
    runtime = SamrRuntime(
        paper_rm3d_trace(num_regrids=26),
        cluster,
        ACEHeterogeneous(),
        config=RuntimeConfig(
            iterations=120, regrid_interval=5, **cfg_kwargs
        ),
    )
    return runtime.run()


class TestAdaptiveSensing:
    def test_config_guard(self):
        with pytest.raises(SimulationError):
            RuntimeConfig(adaptive_sensing_threshold=0.0)
        with pytest.raises(SimulationError):
            RuntimeConfig(adaptive_sensing_threshold=-1.0)
        with pytest.raises(SimulationError):
            RuntimeConfig(adaptive_sensing_threshold=math.nan)

    def test_senses_when_load_moves(self):
        r = run(adaptive_sensing_threshold=0.2)
        # Initial sense + at least one triggered by each load phase change.
        assert r.num_sensings >= 2

    def test_quiet_cluster_stays_quiet(self):
        """On a static cluster the deviation trigger never fires."""
        cluster = Cluster.paper_linux_cluster(4, seed=3)  # static loads
        runtime = SamrRuntime(
            paper_rm3d_trace(num_regrids=10),
            cluster,
            ACEHeterogeneous(),
            config=RuntimeConfig(
                iterations=40,
                regrid_interval=5,
                adaptive_sensing_threshold=0.2,
            ),
        )
        r = runtime.run()
        assert r.num_sensings == 1  # only the initial probe

    def test_beats_sense_once_under_dynamics(self):
        adaptive = run(adaptive_sensing_threshold=0.2)
        once = run(sensing_interval=0)
        assert adaptive.total_seconds < once.total_seconds

    def test_competitive_with_fixed_at_fewer_probes(self):
        adaptive = run(adaptive_sensing_threshold=0.2)
        fixed = run(sensing_interval=10)
        assert adaptive.num_sensings < fixed.num_sensings
        assert adaptive.total_seconds < 1.1 * fixed.total_seconds

    def test_floor_limits_probe_rate(self):
        eager = run(adaptive_sensing_threshold=0.01)
        floored = run(
            adaptive_sensing_threshold=0.01, sensing_interval=20
        )
        assert floored.num_sensings <= eager.num_sensings
