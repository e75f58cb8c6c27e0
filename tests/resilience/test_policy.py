"""The monitor's policy for failed probes: carry the last reading forward.

A probe of a down node or of a blacked-out sensor fails every time within
one sweep (the sweep reads one instant), so the monitor neither retries
nor evicts: it keeps the node's last reading, lists the node in
``stale_nodes`` and reports the longest run of failed sweeps as the probe
span's ``max_consecutive_failures``.  Which nodes get capacity is the
cluster's live set, not a verdict of the monitor.
"""

from __future__ import annotations

from repro.cluster import Cluster
from repro.monitor.service import ResourceMonitor
from repro.telemetry import Tracer


class TestMonitorEscalation:
    """Consecutive failures through real probe sweeps."""

    def test_failure_counts_accumulate_and_reset(self):
        cluster = Cluster.homogeneous(3)
        tracer = Tracer()
        mon = ResourceMonitor(cluster, tracer=tracer)

        def failures():
            return tracer.spans[-1].attributes.get("max_consecutive_failures")

        mon.blackout_sensor(1)
        snap = mon.probe_all()
        assert snap.stale_nodes == (1,)
        assert failures() == 1
        mon.probe_all()
        assert failures() == 2
        mon.restore_sensor(1)
        snap = mon.probe_all()
        assert snap.stale_nodes == ()
        assert failures() is None
        mon.blackout_sensor(1)
        mon.probe_all()
        assert failures() == 1  # one good sweep reset the count
        assert tracer.metrics.counter("probe_failures").value == 3

    def test_down_node_probes_fail(self):
        cluster = Cluster.homogeneous(2)
        tracer = Tracer()
        mon = ResourceMonitor(cluster, tracer=tracer)
        first = mon.probe_all()
        cluster.mark_down(1)
        snap = mon.probe_all()
        assert snap.stale_nodes == (1,)
        assert snap.bandwidth_mbps[1] == first.bandwidth_mbps[1]
        assert tracer.spans[-1].attributes["max_consecutive_failures"] == 1

    def test_no_policy_keeps_carry_forward_only(self):
        cluster = Cluster.homogeneous(2)
        tracer = Tracer()
        mon = ResourceMonitor(cluster, tracer=tracer)
        first = mon.probe_all()
        mon.blackout_sensor(0)
        for _ in range(10):
            snap = mon.probe_all()
        assert tracer.spans[-1].attributes["max_consecutive_failures"] == 10
        assert snap.cpu[0] == first.cpu[0]
        # Nothing escalates: the node stays in the live set, and a dark
        # sensor costs the sweep nothing extra.
        assert bool(cluster.live_mask().all())
        assert snap.overhead_seconds == first.overhead_seconds
