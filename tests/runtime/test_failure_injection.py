"""Failure injection: the runtime must degrade gracefully, not crash.

Scenarios from DESIGN.md section 6: node capacity collapse mid-run, flaky
monitor probes, and degenerate hierarchies (single huge box, all-minimum
boxes, one box per rank short).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster, NodeSpec, SyntheticLoadGenerator
from repro.kernels.workloads import SyntheticWorkload, paper_rm3d_trace
from repro.monitor import ResourceMonitor
from repro.partition import ACEComposite, ACEHeterogeneous
from repro.runtime import RuntimeConfig, SamrRuntime
from repro.util.geometry import Box, BoxList


def single_box_workload(side: int = 32, epochs: int = 4) -> SyntheticWorkload:
    dom = Box((0, 0), (side, side))
    return SyntheticWorkload(
        name="one-box",
        domain=dom,
        refine_factor=2,
        box_lists=tuple(BoxList([dom]) for _ in range(epochs)),
    )


def confetti_workload(tiles: int = 8, epochs: int = 3) -> SyntheticWorkload:
    """Many minimum-size boxes: nothing is splittable."""
    dom = Box((0, 0), (2 * tiles, 2))
    boxes = BoxList(
        [Box((2 * i, 0), (2 * i + 2, 2)) for i in range(tiles)]
    )
    return SyntheticWorkload(
        name="confetti", domain=dom, refine_factor=2,
        box_lists=tuple(boxes for _ in range(epochs)),
    )


class TestNodeCollapse:
    def test_capacity_collapse_mid_run(self):
        """A node dropping to ~zero effective speed mid-run must not stall
        the loop, and dynamic sensing must shift work off it."""
        cluster = Cluster.homogeneous(4)
        cluster.add_load_generator(
            SyntheticLoadGenerator(
                node=2, start_time=30.0, ramp_rate=50.0,
                target_level=40.0,  # ~97% capacity loss
                memory_per_unit_mb=10.0,
            )
        )
        rt = SamrRuntime(
            paper_rm3d_trace(num_regrids=20),
            cluster,
            ACEHeterogeneous(),
            config=RuntimeConfig(
                iterations=60, regrid_interval=5, sensing_interval=5
            ),
        )
        result = rt.run()
        assert result.iterations == 60
        # After the collapse, node 2's share shrinks dramatically.
        first = result.regrids[0].loads
        last = result.regrids[-1].loads
        share_before = first[2] / first.sum()
        share_after = last[2] / last.sum()
        assert share_after < 0.4 * share_before

    def test_collapse_blind_baseline_still_terminates(self):
        cluster = Cluster.homogeneous(2)
        cluster.add_load_generator(
            SyntheticLoadGenerator(
                node=0, start_time=5.0, ramp_rate=100.0, target_level=30.0
            )
        )
        rt = SamrRuntime(
            paper_rm3d_trace(num_regrids=5),
            cluster,
            ACEComposite(),
            config=RuntimeConfig(iterations=10, regrid_interval=5),
        )
        result = rt.run()
        assert result.total_seconds > 0


class TestFlakyMonitor:
    def test_runtime_survives_probe_failures(self):
        """Dark sensors from the first sweep on: those nodes run on their
        t=0 readings, carried forward through every later sweep."""
        cluster = Cluster.paper_linux_cluster(4, seed=3)
        monitor = ResourceMonitor(cluster, noise=0.2, seed=9)
        monitor.blackout_sensor(1)
        monitor.blackout_sensor(3)
        rt = SamrRuntime(
            paper_rm3d_trace(num_regrids=8),
            cluster,
            ACEHeterogeneous(),
            monitor=monitor,
            config=RuntimeConfig(
                iterations=30, regrid_interval=5, sensing_interval=5
            ),
        )
        result = rt.run()
        assert result.iterations == 30
        assert result.num_sensings >= 6
        # Capacities stay well-formed despite failed probes.
        for _, caps in result.capacity_history:
            assert caps.sum() == pytest.approx(1.0)
            assert (caps >= 0).all()

    def test_all_probes_failing_uses_fallbacks(self):
        cluster = Cluster.homogeneous(3)
        monitor = ResourceMonitor(cluster)
        for node in range(3):
            monitor.blackout_sensor(node)
        snap = monitor.probe_all()
        assert snap.stale_nodes == (0, 1, 2)  # everything stale
        assert (snap.cpu > 0).all()  # optimistic defaults, not garbage


class TestDegenerateWorkloads:
    def test_single_huge_box_gets_carved(self):
        rt = SamrRuntime(
            single_box_workload(),
            Cluster.paper_four_node(),
            ACEHeterogeneous(),
            config=RuntimeConfig(iterations=8, regrid_interval=4),
        )
        result = rt.run()
        loads = result.regrids[0].loads
        assert (loads > 0).all()  # every rank got a piece of the one box
        shares = loads / loads.sum()
        caps = result.regrids[0].capacities
        np.testing.assert_allclose(shares, caps, atol=0.1)

    def test_unsplittable_confetti(self):
        """All-minimum boxes: no splits possible, loop still balances by
        counting and terminates."""
        rt = SamrRuntime(
            confetti_workload(tiles=8),
            Cluster.paper_four_node(),
            ACEHeterogeneous(),
            config=RuntimeConfig(iterations=6, regrid_interval=3),
        )
        result = rt.run()
        assert result.iterations == 6
        assert result.regrids[0].num_splits == 0

    def test_fewer_boxes_than_ranks(self):
        """One unsplittable box on an 8-rank cluster: someone gets it,
        everyone else idles, nothing crashes."""
        rt = SamrRuntime(
            confetti_workload(tiles=1),
            Cluster.homogeneous(8),
            ACEHeterogeneous(),
            config=RuntimeConfig(iterations=4, regrid_interval=2),
        )
        result = rt.run()
        loads = result.regrids[0].loads
        assert (loads > 0).sum() == 1

    def test_zero_capacity_rank_gets_no_work(self):
        """A node with (near) zero capacity should receive (near) zero work
        while others absorb its share."""
        cluster = Cluster(
            [
                NodeSpec(name="dead", cpu_speed=1.0, memory_mb=1e-6,
                         bandwidth_mbps=1e-6, os_overhead=0.99),
                NodeSpec(name="a"),
                NodeSpec(name="b"),
            ]
        )
        rt = SamrRuntime(
            paper_rm3d_trace(num_regrids=4),
            cluster,
            ACEHeterogeneous(),
            config=RuntimeConfig(iterations=4, regrid_interval=2),
        )
        result = rt.run()
        loads = result.regrids[0].loads
        assert loads[0] < 0.05 * loads.sum()
