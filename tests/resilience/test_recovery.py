"""Failure-aware repartitioning and the chaos-invariance acceptance test.

The centerpiece is *partition invariance under fire*: a distributed run
that loses 2 of 8 nodes mid-run (and gets them back later) restores the
latest checkpoint, repartitions over the survivors, replays the lost
steps, and still finishes bitwise identical to the sequential run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.amr.ghost import GhostFiller
from repro.amr.hierarchy import GridHierarchy
from repro.amr.integrator import BergerOligerIntegrator
from repro.cluster import Cluster
from repro.kernels.advection import AdvectionKernel
from repro.monitor.service import ResourceMonitor
from repro.partition import ACEHeterogeneous
from repro.partition.capacity import CapacityCalculator
from repro.resilience.checkpoint import ResilienceConfig, storage_seconds
from repro.runtime.distributed import DistributedAmrRun, DistributedRunConfig
from repro.runtime.experiment import chaos_experiment
from repro.runtime.pipeline import RepartitionPipeline
from repro.runtime.timemodel import TimeModel
from repro.telemetry import Tracer, fault_summary
from repro.telemetry.spans import NULL_TRACER
from repro.util.errors import ExperimentError, ResilienceError
from repro.util.geometry import Box, BoxList


def make_pipeline(num_nodes: int = 4) -> RepartitionPipeline:
    cluster = Cluster.homogeneous(num_nodes)
    monitor = ResourceMonitor(cluster)
    return RepartitionPipeline(
        cluster=cluster,
        partitioner=ACEHeterogeneous(),
        monitor=monitor,
        capacity=CapacityCalculator(),
        time_model=TimeModel(cluster),
        tracer=NULL_TRACER,
    )


def strip_boxes(n: int = 8) -> BoxList:
    width = 32 // n
    return BoxList(
        [Box((k * width, 0), ((k + 1) * width, 32)) for k in range(n)]
    )


def uniform(num_nodes: int) -> np.ndarray:
    return np.full(num_nodes, 1.0 / num_nodes)


class TestPipelineRecovery:
    def test_needs_recovery_tracks_dead_owners(self):
        pipe = make_pipeline(4)
        assert not pipe.needs_recovery()  # nothing assigned yet
        pipe.repartition(strip_boxes(), uniform(4))
        assert not pipe.needs_recovery()
        pipe.cluster.mark_down(1)
        assert pipe.dead_owner_ranks() == (1,)
        assert pipe.needs_recovery()
        # A down node that owns nothing is not a recovery condition.
        pipe.cluster.mark_up(1)
        pipe.cluster.mark_down(3)
        owned = set(pipe.layout.ranks.tolist())
        if 3 not in owned:
            assert not pipe.needs_recovery()

    def test_recover_assigns_only_to_live_ranks(self):
        pipe = make_pipeline(4)
        pipe.repartition(strip_boxes(), uniform(4))
        pipe.cluster.mark_down(0)
        pipe.cluster.mark_down(2)
        out = pipe.recover(strip_boxes(), uniform(4))
        assert set(out.part.layout.ranks.tolist()) <= {1, 3}
        # Targets stay num_nodes-sized with zeros at the dead ranks.
        assert out.targets.shape == (4,)
        assert out.targets[0] == 0.0
        assert out.targets[2] == 0.0
        assert out.targets.sum() == pytest.approx(out.loads.sum())
        assert out.loads[0] == 0.0 and out.loads[2] == 0.0
        assert not pipe.needs_recovery()  # dead ranks evacuated

    def test_recover_charges_evacuation_to_storage(self):
        """Orphaned cells read from checkpoint storage, not the dead NIC."""
        pipe = make_pipeline(2)
        pipe.repartition(strip_boxes(), uniform(2))
        pipe.cluster.mark_down(0)
        t0 = pipe.cluster.clock.now
        out = pipe.recover(strip_boxes(), uniform(2))
        # Every moved cell was dead rank 0's: all of it is a storage read.
        assert out.migration_bytes > 0
        assert out.migration_seconds == pytest.approx(
            storage_seconds(out.migration_bytes)
        )
        assert pipe.cluster.clock.now - t0 == pytest.approx(out.migration_seconds)

    def test_recover_grows_back_over_recovered_nodes(self):
        pipe = make_pipeline(4)
        pipe.repartition(strip_boxes(), uniform(4))
        pipe.cluster.mark_down(1)
        pipe.recover(strip_boxes(), uniform(4))
        pipe.cluster.mark_up(1)
        out = pipe.recover(strip_boxes(), uniform(4))
        assert 1 in set(out.part.layout.ranks.tolist())
        assert (out.targets > 0).all()

    def test_recover_with_no_survivors_raises(self):
        pipe = make_pipeline(2)
        pipe.repartition(strip_boxes(), uniform(2))
        pipe.cluster.mark_down(0)
        pipe.cluster.mark_down(1)
        with pytest.raises(ResilienceError):
            pipe.recover(strip_boxes(), uniform(2))


def advection_hierarchy() -> GridHierarchy:
    k = AdvectionKernel(
        velocity=(1.0, 0.5), pulse_center=(8.0, 8.0), pulse_width=2.0
    )
    return GridHierarchy(Box((0, 0), (32, 32)), k, max_levels=3)


def sequential_solution(steps: int) -> np.ndarray:
    h = advection_hierarchy()
    integ = BergerOligerIntegrator(h, regrid_interval=3)
    integ.setup()
    for _ in range(steps):
        integ.advance()
    return GhostFiller(h).fetch(h.domain, 0)


class TestResilientDistributedRun:
    def test_resilience_without_faults_is_inert(self):
        """Checkpointing on, faults off: same bits, zero recoveries."""
        ref = sequential_solution(steps=6)
        h = advection_hierarchy()
        run = DistributedAmrRun(
            h,
            Cluster.homogeneous(4),
            ACEHeterogeneous(),
            config=DistributedRunConfig(steps=6, regrid_interval=3),
            resilience=ResilienceConfig(checkpoint_interval=2),
        )
        result = run.run()
        np.testing.assert_array_equal(GhostFiller(h).fetch(h.domain, 0), ref)
        assert result.num_recoveries == 0
        assert result.num_restores == 0
        assert result.replayed_steps == 0
        assert result.num_checkpoints >= 2  # initial + cadence saves
        assert result.checkpoint_seconds > 0  # storage I/O is charged


class TestChaosInvariance:
    """The acceptance test: kill 2 of 8 nodes mid-run, recover, verify."""

    def test_kill_and_recover_is_bitwise_identical(self):
        tracer = Tracer()
        stats = chaos_experiment(
            num_nodes=8, steps=12, kill=2, seed=7, tracer=tracer
        )
        assert stats["bitwise_identical"]
        assert stats["killed_nodes"] == [0, 1]
        assert stats["num_checkpoints"] >= 1
        assert stats["num_restores"] >= 1
        assert stats["num_recoveries"] >= 1
        assert stats["replayed_steps"] >= 1
        # Every planned fault was applied.
        assert len(stats["applied_events"]) == stats["plan_events"]
        # Time-to-recover is measured and positive.
        assert stats["mean_time_to_recover_s"] is not None
        assert stats["mean_time_to_recover_s"] > 0
        # The fault/recovery stream landed in telemetry.
        summary = fault_summary(tracer.events)
        assert summary["counts"]["fault.node_crash"] == 2
        assert summary["counts"]["recovery.node_up"] == 2
        assert summary["num_recovery_events"] >= 1

    def test_chaos_stats_replay_identically(self):
        keys = (
            "outage_at_s",
            "outage_duration_s",
            "chaos_seconds",
            "recovery_seconds",
            "replayed_steps",
            "num_restores",
        )
        a = chaos_experiment(num_nodes=4, steps=9, kill=1, seed=3)
        b = chaos_experiment(num_nodes=4, steps=9, kill=1, seed=3)
        assert a["bitwise_identical"] and b["bitwise_identical"]
        for key in keys:
            assert a[key] == b[key], key

    def test_kill_count_guard(self):
        with pytest.raises(ExperimentError):
            chaos_experiment(num_nodes=4, kill=0)
        with pytest.raises(ExperimentError):
            chaos_experiment(num_nodes=4, kill=4)
