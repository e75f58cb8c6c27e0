"""Tests for declarative, seeded fault injection."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.monitor.service import ResourceMonitor
from repro.resilience.chaos import FaultEvent, FaultInjector, FaultPlan
from repro.telemetry import Tracer
from repro.util.errors import ResilienceError


class TestFaultEvent:
    def test_validation(self):
        with pytest.raises(ResilienceError):
            FaultEvent(time=1.0, kind="meteor_strike", node=0)
        with pytest.raises(ResilienceError):
            FaultEvent(time=-1.0, kind="node_crash", node=0)
        with pytest.raises(ResilienceError):
            FaultEvent(time=1.0, kind="node_crash", node=-1)
        with pytest.raises(ResilienceError):
            FaultEvent(time=1.0, kind="link_degrade", node=0, factor=0.0)
        with pytest.raises(ResilienceError):
            FaultEvent(time=1.0, kind="link_degrade", node=0, factor=1.5)
        # Valid events construct fine.
        FaultEvent(time=0.0, kind="node_crash", node=0)
        FaultEvent(time=1.0, kind="link_degrade", node=1, factor=0.5)


class TestFaultPlan:
    def test_validate_against_cluster_size(self):
        plan = FaultPlan(
            events=(FaultEvent(time=1.0, kind="node_crash", node=7),)
        )
        plan.validate(num_nodes=8)
        with pytest.raises(ResilienceError):
            plan.validate(num_nodes=4)

    def test_horizon_and_kinds(self):
        plan = FaultPlan.node_outage([0, 1], at=2.0, duration=3.0)
        assert plan.horizon == 5.0
        assert plan.kinds() == {"node_crash": 2, "node_recover": 2}
        assert FaultPlan(events=()).horizon == 0.0

    def test_node_outage_builder(self):
        plan = FaultPlan.node_outage([3], at=1.0, duration=2.0, seed=9)
        assert plan.seed == 9
        assert [(e.time, e.kind, e.node) for e in plan.events] == [
            (1.0, "node_crash", 3),
            (3.0, "node_recover", 3),
        ]
        # duration=None means the nodes never come back.
        forever = FaultPlan.node_outage([0, 1], at=1.0)
        assert forever.kinds() == {"node_crash": 2}
        with pytest.raises(ResilienceError):
            FaultPlan.node_outage([0], at=1.0, duration=0.0)

    def test_random_plan_is_seeded(self):
        a = FaultPlan.random(num_nodes=8, horizon_s=100.0, seed=3)
        b = FaultPlan.random(num_nodes=8, horizon_s=100.0, seed=3)
        c = FaultPlan.random(num_nodes=8, horizon_s=100.0, seed=4)
        assert a.events == b.events
        assert a.events != c.events

    def test_random_plan_leaves_a_survivor(self):
        plan = FaultPlan.random(
            num_nodes=4, horizon_s=10.0, seed=0, num_crashes=99
        )
        crashed = {e.node for e in plan.events if e.kind == "node_crash"}
        assert len(crashed) <= 3
        plan.validate(num_nodes=4)
        assert plan.horizon <= 10.0

    def test_random_plan_guards(self):
        with pytest.raises(ResilienceError):
            FaultPlan.random(num_nodes=0, horizon_s=10.0)
        with pytest.raises(ResilienceError):
            FaultPlan.random(num_nodes=4, horizon_s=0.0)


def _run_plan(plan: FaultPlan, horizon: float = 20.0):
    """Arm ``plan`` on a fresh 4-node cluster and play it to ``horizon``."""
    cluster = Cluster.homogeneous(4)
    monitor = ResourceMonitor(cluster)
    tracer = Tracer()
    inj = FaultInjector(cluster, monitor=monitor, tracer=tracer)
    inj.arm(plan)
    cluster.clock.advance_to(horizon)
    return cluster, monitor, inj, tracer


class TestFaultInjector:
    def test_applies_crash_and_recovery_in_order(self):
        plan = FaultPlan.node_outage([1, 2], at=2.0, duration=3.0)
        cluster, _, inj, _ = _run_plan(plan)
        assert inj.applied == [
            (2.0, "node_crash", 1),
            (2.0, "node_crash", 2),
            (5.0, "node_recover", 1),
            (5.0, "node_recover", 2),
        ]
        assert cluster.down_nodes == ()

    def test_crash_takes_effect_at_event_time(self):
        plan = FaultPlan.node_outage([0], at=2.0, duration=3.0)
        cluster = Cluster.homogeneous(2)
        FaultInjector(cluster).arm(plan)
        cluster.clock.advance_to(1.99)
        assert cluster.is_up(0)
        cluster.clock.advance_to(3.0)
        assert not cluster.is_up(0)
        assert cluster.down_nodes == (0,)
        assert cluster.state_of(0).cpu_available == 0.0
        cluster.clock.advance_to(6.0)
        assert cluster.is_up(0)

    def test_sensor_and_link_faults(self):
        plan = FaultPlan(
            events=(
                FaultEvent(time=1.0, kind="sensor_blackout", node=0),
                FaultEvent(
                    time=1.0, kind="link_degrade", node=1, factor=0.25
                ),
                FaultEvent(time=4.0, kind="sensor_restore", node=0),
                FaultEvent(time=4.0, kind="link_restore", node=1),
            )
        )
        cluster, monitor, _, _ = _run_plan(plan, horizon=2.0)
        assert monitor.probe_all().stale_nodes == (0,)
        assert cluster.bandwidths()[1] == 0.25 * 100.0
        cluster.clock.advance_to(10.0)
        assert monitor.probe_all().stale_nodes == ()
        assert cluster.bandwidths()[1] == 100.0

    def test_double_arm_rejected(self):
        cluster = Cluster.homogeneous(2)
        inj = FaultInjector(cluster)
        inj.arm(FaultPlan(events=()))
        with pytest.raises(ResilienceError):
            inj.arm(FaultPlan(events=()))

    def test_past_event_rejected(self):
        cluster = Cluster.homogeneous(2)
        cluster.clock.advance(5.0)
        inj = FaultInjector(cluster)
        with pytest.raises(ResilienceError):
            inj.arm(FaultPlan.node_outage([0], at=1.0))

    def test_plan_must_fit_cluster(self):
        inj = FaultInjector(Cluster.homogeneous(2))
        with pytest.raises(ResilienceError):
            inj.arm(FaultPlan.node_outage([5], at=1.0))

    def test_replay_is_bit_for_bit(self):
        """Same plan, fresh cluster -> identical applied + telemetry streams."""
        plan = FaultPlan.random(
            num_nodes=4, horizon_s=15.0, seed=11, num_crashes=2
        )
        runs = [_run_plan(plan) for _ in range(2)]
        applied_a, applied_b = runs[0][2].applied, runs[1][2].applied
        assert applied_a == applied_b
        streams = [
            [(e.name, dict(e.attributes), e.sim) for e in tracer.events]
            for _, _, _, tracer in runs
        ]
        assert streams[0] == streams[1]
        assert len(applied_a) == len(plan.events)

    def test_telemetry_event_names_and_attrs(self):
        plan = FaultPlan(
            events=(
                FaultEvent(time=1.0, kind="node_crash", node=2),
                FaultEvent(
                    time=2.0, kind="link_degrade", node=0, factor=0.5
                ),
            ),
            seed=13,
        )
        _, _, _, tracer = _run_plan(plan, horizon=5.0)
        named = {e.name: e.attributes for e in tracer.events}
        assert named["fault.node_crash"]["node"] == 2
        assert named["fault.node_crash"]["plan_seed"] == 13
        assert named["fault.link_degraded"]["factor"] == 0.5
