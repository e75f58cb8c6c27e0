"""Tests for probe retry/backoff and the failure-escalation ladder."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.monitor.service import ResourceMonitor
from repro.resilience.policy import (
    BackoffPolicy,
    EscalationPolicy,
    NodeProbeStatus,
    ProbeRetryPolicy,
)
from repro.telemetry import Tracer
from repro.util.errors import ResilienceError


class TestBackoffPolicy:
    def test_guards(self):
        with pytest.raises(ResilienceError):
            BackoffPolicy(base_s=0.0)
        with pytest.raises(ResilienceError):
            BackoffPolicy(factor=0.5)
        with pytest.raises(ResilienceError):
            BackoffPolicy(base_s=1.0, max_s=0.5)
        with pytest.raises(ResilienceError):
            BackoffPolicy(jitter=1.0)
        with pytest.raises(ResilienceError):
            BackoffPolicy().delay(0, 0)

    def test_deterministic(self):
        """Same (node, attempt, seed) -> bit-identical delay; no RNG state."""
        p = BackoffPolicy(seed=42)
        q = BackoffPolicy(seed=42)
        for node in range(4):
            for attempt in (1, 2, 3):
                assert p.delay(node, attempt) == q.delay(node, attempt)

    def test_seed_and_node_vary_jitter(self):
        p = BackoffPolicy(seed=0)
        assert p.delay(0, 1) != BackoffPolicy(seed=1).delay(0, 1)
        assert p.delay(0, 1) != p.delay(1, 1)

    def test_exponential_growth_capped(self):
        p = BackoffPolicy(base_s=0.1, factor=2.0, max_s=0.5, jitter=0.0)
        assert p.delay(0, 1) == pytest.approx(0.1)
        assert p.delay(0, 2) == pytest.approx(0.2)
        assert p.delay(0, 3) == pytest.approx(0.4)
        assert p.delay(0, 4) == pytest.approx(0.5)  # capped
        assert p.delay(0, 9) == pytest.approx(0.5)

    def test_jitter_bounds(self):
        p = BackoffPolicy(base_s=0.1, factor=2.0, max_s=2.0, jitter=0.25)
        for node in range(8):
            for attempt in (1, 2, 3, 4):
                raw = min(0.1 * 2.0 ** (attempt - 1), 2.0)
                d = p.delay(node, attempt)
                assert raw * 0.75 <= d <= raw * 1.25


class TestEscalationPolicy:
    def test_threshold_guard(self):
        with pytest.raises(ResilienceError):
            EscalationPolicy(stale_after=0)
        with pytest.raises(ResilienceError):
            EscalationPolicy(stale_after=4, suspect_after=3)
        with pytest.raises(ResilienceError):
            EscalationPolicy(suspect_after=7, evict_after=6)

    def test_ladder(self):
        esc = EscalationPolicy(stale_after=1, suspect_after=3, evict_after=6)
        assert esc.classify(0) is NodeProbeStatus.HEALTHY
        assert esc.classify(1) is NodeProbeStatus.STALE
        assert esc.classify(2) is NodeProbeStatus.STALE
        assert esc.classify(3) is NodeProbeStatus.SUSPECT
        assert esc.classify(5) is NodeProbeStatus.SUSPECT
        assert esc.classify(6) is NodeProbeStatus.EVICTED
        assert esc.classify(100) is NodeProbeStatus.EVICTED

    def test_retry_policy_guard(self):
        with pytest.raises(ResilienceError):
            ProbeRetryPolicy(max_retries=-1)


def _retry_monitor(cluster: Cluster, tracer=None) -> ResourceMonitor:
    policy = ProbeRetryPolicy(
        backoff=BackoffPolicy(jitter=0.0),
        escalation=EscalationPolicy(
            stale_after=1, suspect_after=2, evict_after=3
        ),
        max_retries=1,
    )
    kwargs = {"retry_policy": policy}
    if tracer is not None:
        kwargs["tracer"] = tracer
    return ResourceMonitor(cluster, **kwargs)


class TestMonitorEscalation:
    """The ladder wired through real probe sweeps."""

    def test_failure_counts_accumulate_and_reset(self):
        cluster = Cluster.homogeneous(3)
        mon = _retry_monitor(cluster)
        mon.blackout_sensor(1)
        snap = mon.probe_all()
        assert snap.stale_nodes == (1,)
        assert snap.failure_counts == (0, 1, 0)
        snap = mon.probe_all()
        assert snap.failure_counts == (0, 2, 0)
        mon.restore_sensor(1)
        snap = mon.probe_all()
        assert snap.stale_nodes == ()
        assert snap.failure_counts == (0, 0, 0)

    def test_escalates_to_evicted_and_recovers(self):
        cluster = Cluster.homogeneous(3)
        tracer = Tracer()
        mon = _retry_monitor(cluster, tracer=tracer)
        mon.blackout_sensor(2)

        def names():
            return [e.name for e in tracer.events]

        assert mon.probe_all().stale_nodes == (2,)  # stale, not suspect yet
        assert "fault.probe_suspect" not in names()
        mon.probe_all()
        assert "fault.probe_suspect" in names()
        assert mon.evicted_nodes == ()
        mon.probe_all()
        assert "fault.probe_evicted" in names()
        assert mon.evicted_nodes == (2,)
        assert list(mon.trusted_mask()) == [True, True, False]
        # One good sweep resets the ladder -- eviction is not a ban.
        mon.restore_sensor(2)
        mon.probe_all()
        assert mon.evicted_nodes == ()
        assert bool(mon.trusted_mask().all())
        assert "recovery.probe_healthy" in names()

    def test_retry_delays_charged_to_overhead(self):
        cluster = Cluster.homogeneous(2)
        mon = _retry_monitor(cluster)
        base = mon.sweep_overhead_seconds()
        assert mon.probe_all().overhead_seconds == pytest.approx(base)
        mon.blackout_sensor(0)
        # 3 metrics x 1 retry x 0.05 s base backoff on the dark node.
        snap = mon.probe_all()
        assert snap.overhead_seconds == pytest.approx(base + 3 * 0.05)

    def test_down_node_probes_fail(self):
        cluster = Cluster.homogeneous(2)
        mon = _retry_monitor(cluster)
        mon.probe_all()
        cluster.mark_down(1)
        snap = mon.probe_all()
        assert snap.stale_nodes == (1,)
        assert snap.failure_counts == (0, 1)

    def test_no_policy_keeps_carry_forward_only(self):
        cluster = Cluster.homogeneous(2)
        mon = ResourceMonitor(cluster)
        mon.blackout_sensor(0)
        for _ in range(10):
            snap = mon.probe_all()
        assert snap.failure_counts == (10, 0)
        # Without a retry policy nothing escalates.
        assert mon.evicted_nodes == ()
        assert bool(mon.trusted_mask().all())
