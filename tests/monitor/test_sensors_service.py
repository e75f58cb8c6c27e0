"""Tests for the ResourceMonitor facade and the readings of its sweep."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster, SyntheticLoadGenerator
from repro.monitor import ResourceMonitor, SlidingMeanForecaster, make_forecaster
from repro.util.errors import MonitorError


class TestMetricSensor:
    """One resource row of a sweep: what a per-metric NWS sensor reads."""

    def test_exact_reading_without_noise(self):
        snap = ResourceMonitor(Cluster.homogeneous(2)).probe_all()
        np.testing.assert_allclose(snap.cpu, [0.97, 0.97])
        np.testing.assert_allclose(snap.memory_mb, [448.0, 448.0])
        np.testing.assert_allclose(snap.bandwidth_mbps, [100.0, 100.0])

    def test_noise_perturbs_but_clamps(self):
        mon = ResourceMonitor(Cluster.homogeneous(1), noise=0.5, seed=1)
        values = [mon.probe_all().cpu[0] for _ in range(100)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert len(set(values)) > 1

    def test_bad_params_rejected(self):
        with pytest.raises(MonitorError):
            ResourceMonitor(Cluster.homogeneous(1), noise=-0.1)

    def test_unknown_node_raises_monitor_error(self):
        mon = ResourceMonitor(Cluster.homogeneous(1))
        with pytest.raises(MonitorError):
            mon.blackout_sensor(9)

    def test_injected_failures(self):
        """A blacked-out sensor fails every probe of its node until it is
        restored; the other nodes keep reading."""
        mon = ResourceMonitor(Cluster.homogeneous(3))
        mon.blackout_sensor(1)
        assert [mon.probe_all().stale_nodes for _ in range(3)] == [(1,)] * 3
        mon.restore_sensor(1)
        assert mon.probe_all().stale_nodes == ()


class TestResourceMonitor:
    def test_snapshot_shapes_and_overhead(self):
        c = Cluster.homogeneous(4)
        mon = ResourceMonitor(c)
        snap = mon.probe_all()
        assert snap.num_nodes == 4
        assert snap.cpu.shape == (4,)
        # Concurrent probes: one probe latency + per-node aggregation.
        assert snap.overhead_seconds == pytest.approx(0.5 + 0.02 * 4)
        assert snap.stale_nodes == ()

    def test_probe_reflects_load_dynamics(self):
        c = Cluster.homogeneous(2)
        c.add_load_generator(
            SyntheticLoadGenerator(node=0, ramp_rate=0.1, target_level=1.0)
        )
        mon = ResourceMonitor(c)
        before = mon.probe_all(t=0.0)
        after = mon.probe_all(t=10.0)
        assert after.cpu[0] < before.cpu[0]
        assert after.cpu[1] == pytest.approx(before.cpu[1])

    def test_forecast_before_probe_rejected(self):
        """A forecaster no snapshot has fed has nothing to predict from."""
        with pytest.raises(MonitorError):
            make_forecaster("last").forecast()

    def test_forecast_last_matches_probe(self):
        mon = ResourceMonitor(Cluster.homogeneous(3))
        snap = mon.probe_all()
        forecasters = [make_forecaster("last") for _ in range(3)]
        for f, value in zip(forecasters, snap.memory_mb):
            f.update(value)
        np.testing.assert_array_equal(
            [f.forecast() for f in forecasters], snap.memory_mb
        )

    def test_forecast_mean_smooths(self):
        mon = ResourceMonitor(Cluster.homogeneous(1), noise=0.2, seed=3)
        forecaster = SlidingMeanForecaster(10)
        for t in range(20):
            forecaster.update(mon.probe_all(t=float(t)).cpu[0])
        assert 0.8 <= forecaster.forecast() <= 1.0  # noise averaged out

    def test_failed_probes_fall_back_to_last_value(self):
        c = Cluster.homogeneous(2)
        mon = ResourceMonitor(c)
        first = mon.probe_all(t=0.0)
        c.add_load_generator(
            SyntheticLoadGenerator(node=0, ramp_rate=10.0, target_level=3.0)
        )
        mon.blackout_sensor(0)
        snap = mon.probe_all(t=100.0)
        # The dark sensor's node keeps its unloaded reading.
        assert snap.stale_nodes == (0,)
        assert snap.cpu[0] == first.cpu[0]
        mon.restore_sensor(0)
        assert mon.probe_all(t=100.0).cpu[0] < first.cpu[0]

    def test_negative_overhead_rejected(self):
        with pytest.raises(MonitorError):
            ResourceMonitor(Cluster.homogeneous(1), probe_overhead_s=-1.0)

    def test_custom_overhead(self):
        mon = ResourceMonitor(Cluster.homogeneous(3), probe_overhead_s=0.1)
        assert mon.probe_all().overhead_seconds == pytest.approx(0.16)
