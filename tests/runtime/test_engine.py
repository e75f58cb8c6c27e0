"""Tests for the SamrRuntime loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.kernels.workloads import paper_rm3d_trace
from repro.partition import ACEComposite, ACEHeterogeneous
from repro.runtime import RuntimeConfig, SamrRuntime
from repro.util.errors import SimulationError
from tests.conftest import moving_blob_trace


def small_workload():
    return moving_blob_trace(domain_shape=(32, 32), num_regrids=6, max_levels=2)


class TestConfig:
    def test_guards(self):
        with pytest.raises(SimulationError):
            RuntimeConfig(iterations=0)
        with pytest.raises(SimulationError):
            RuntimeConfig(regrid_interval=0)
        with pytest.raises(SimulationError):
            RuntimeConfig(sensing_interval=-1)


class TestLoop:
    def test_iteration_and_regrid_counts(self):
        rt = SamrRuntime(
            small_workload(),
            Cluster.homogeneous(2),
            ACEHeterogeneous(),
            config=RuntimeConfig(iterations=12, regrid_interval=4),
        )
        r = rt.run()
        assert r.iterations == 12
        assert len(r.iteration_times) == 12
        # Initial partition + regrids at iterations 4 and 8.
        assert len(r.regrids) == 3
        assert [rec.iteration for rec in r.regrids] == [0, 4, 8]
        assert all(rec.trigger == "regrid" for rec in r.regrids)

    def test_sensing_counts_and_overhead(self):
        c = Cluster.homogeneous(2)
        rt = SamrRuntime(
            small_workload(),
            c,
            ACEHeterogeneous(),
            config=RuntimeConfig(
                iterations=12, regrid_interval=4, sensing_interval=6
            ),
        )
        r = rt.run()
        # Initial sense + iteration 6 (iteration 12 never runs).
        assert r.num_sensings == 2
        assert r.sensing_seconds == pytest.approx(2 * (0.5 + 0.02 * 2))
        # The sense at iteration 6 is not a regrid point -> extra record.
        triggers = [rec.trigger for rec in r.regrids]
        assert "sense" in triggers

    def test_sense_once_default(self):
        rt = SamrRuntime(
            small_workload(),
            Cluster.homogeneous(2),
            ACEHeterogeneous(),
            config=RuntimeConfig(iterations=10, regrid_interval=5),
        )
        r = rt.run()
        assert r.num_sensings == 1
        assert len(r.capacity_history) == 1

    def test_total_time_is_clock_time(self):
        c = Cluster.homogeneous(3)
        rt = SamrRuntime(
            small_workload(),
            c,
            ACEHeterogeneous(),
            config=RuntimeConfig(iterations=6, regrid_interval=3),
        )
        r = rt.run()
        assert r.total_seconds == pytest.approx(c.clock.now)
        assert r.total_seconds > 0
        assert r.total_seconds >= sum(r.iteration_times)

    def test_deterministic_replay(self):
        def go():
            return SamrRuntime(
                small_workload(),
                Cluster.paper_linux_cluster(4, seed=3),
                ACEHeterogeneous(),
                config=RuntimeConfig(iterations=10, regrid_interval=5),
            ).run()

        a, b = go(), go()
        assert a.total_seconds == b.total_seconds
        np.testing.assert_array_equal(a.loads_by_regrid(), b.loads_by_regrid())

    def test_hdda_tracks_assignment(self):
        rt = SamrRuntime(
            small_workload(),
            Cluster.homogeneous(2),
            ACEHeterogeneous(),
            config=RuntimeConfig(iterations=4, regrid_interval=2),
        )
        rt.run()
        rt.hdda.check_invariants()
        assert rt.hdda.total_blocks > 0

    def test_migration_seconds_accumulate_under_churn(self):
        """Sensing-triggered repartitions on a changing cluster move data."""
        c = Cluster.paper_linux_cluster(4, seed=5, dynamic=True, horizon_s=100.0)
        rt = SamrRuntime(
            paper_rm3d_trace(num_regrids=10),
            c,
            ACEHeterogeneous(),
            config=RuntimeConfig(
                iterations=20, regrid_interval=5, sensing_interval=2
            ),
        )
        r = rt.run()
        assert r.migration_seconds > 0
        assert any(rec.migration_bytes > 0 for rec in r.regrids)

    def test_capacity_blind_partitioner_ignores_sensing(self):
        """ACEComposite runs fine in the same loop (baseline config)."""
        rt = SamrRuntime(
            small_workload(),
            Cluster.paper_linux_cluster(4, seed=2),
            ACEComposite(),
            config=RuntimeConfig(iterations=10, regrid_interval=5),
        )
        r = rt.run()
        shares = r.regrids[0].loads / r.regrids[0].loads.sum()
        np.testing.assert_allclose(shares, 0.25, atol=0.05)


class TestHeadlineEffects:
    def test_system_sensitive_beats_default_on_loaded_cluster(self):
        """The paper's core claim, end to end through the runtime."""
        w = paper_rm3d_trace(num_regrids=8)
        times = {}
        for name, part in (
            ("het", ACEHeterogeneous()),
            ("comp", ACEComposite()),
        ):
            rt = SamrRuntime(
                w,
                Cluster.paper_linux_cluster(8, seed=7),
                part,
                config=RuntimeConfig(iterations=20, regrid_interval=5),
            )
            times[name] = rt.run().total_seconds
        assert times["het"] < times["comp"]

    def test_no_advantage_on_homogeneous_cluster(self):
        """On an unloaded homogeneous cluster the two schemes tie (within
        a small tolerance from splitting granularity)."""
        w = paper_rm3d_trace(num_regrids=8)
        times = {}
        for name, part in (
            ("het", ACEHeterogeneous()),
            ("comp", ACEComposite()),
        ):
            rt = SamrRuntime(
                w,
                Cluster.homogeneous(4),
                part,
                config=RuntimeConfig(iterations=20, regrid_interval=5),
            )
            times[name] = rt.run().total_seconds
        assert times["het"] == pytest.approx(times["comp"], rel=0.1)

    def test_dynamic_sensing_beats_sense_once_under_dynamics(self):
        w = paper_rm3d_trace(num_regrids=20)
        times = {}
        for name, interval in (("dyn", 10), ("once", 0)):
            # Horizon chosen so the load swap lands mid-run (~150 s total).
            c = Cluster.paper_linux_cluster(
                4, seed=5, dynamic=True, horizon_s=120.0
            )
            rt = SamrRuntime(
                w,
                c,
                ACEHeterogeneous(),
                config=RuntimeConfig(
                    iterations=80, regrid_interval=5, sensing_interval=interval
                ),
            )
            times[name] = rt.run().total_seconds
        assert times["dyn"] < times["once"]

    def test_imbalance_gap_on_fixed_capacity_cluster(self):
        """Fig. 10's effect through the runtime: the default partitioner's
        imbalance against capacity targets dwarfs the system-sensitive one."""
        w = paper_rm3d_trace(num_regrids=6)
        recs = {}
        for name, part in (
            ("het", ACEHeterogeneous()),
            ("comp", ACEComposite()),
        ):
            c = Cluster.paper_four_node()
            rt = SamrRuntime(
                w, c, part, config=RuntimeConfig(iterations=30, regrid_interval=5)
            )
            recs[name] = rt.run()
        assert recs["het"].max_imbalance < 40.0  # paper's bound
        assert recs["comp"].mean_imbalance > 2 * recs["het"].mean_imbalance
