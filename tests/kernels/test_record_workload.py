"""Tests for trace capture from real AMR runs."""

from __future__ import annotations

import numpy as np

from repro.amr.hierarchy import GridHierarchy
from repro.amr.integrator import BergerOligerIntegrator
from repro.cluster import Cluster
from repro.kernels.advection import AdvectionKernel
from repro.kernels.workloads import record_workload
from repro.partition import ACEHeterogeneous
from repro.runtime import RuntimeConfig, SamrRuntime
from repro.util.geometry import Box
from tests.conftest import bounding_box


def make_integrator(regrid_interval: int = 3) -> BergerOligerIntegrator:
    k = AdvectionKernel(
        velocity=(1.0, 0.5), pulse_center=(8.0, 8.0), pulse_width=2.0
    )
    h = GridHierarchy(Box((0, 0), (32, 32)), k, max_levels=3)
    return BergerOligerIntegrator(h, regrid_interval=regrid_interval)


class TestRecordWorkload:
    def test_epochs_match_regrids(self):
        integ = make_integrator(regrid_interval=3)
        w = record_workload(integ, num_steps=9)
        # Setup regrid + regrids at steps 3 and 6 (9 never happens:
        # advance() regrids before stepping, step 9 is not taken).
        assert w.num_regrids == 3
        assert w.name == "recorded-AdvectionKernel"
        assert w.domain == Box((0, 0), (32, 32))

    def test_epochs_are_real_hierarchies(self):
        w = record_workload(make_integrator(), num_steps=6)
        for bl in w:
            assert bl.is_disjoint()
            assert 0 in bl.levels  # level 0 always present
            assert bl.total_cells > 0

    def test_trace_moves_with_the_feature(self):
        w = record_workload(make_integrator(), num_steps=12)
        first = bounding_box(w.epoch(0).at_level(2))
        last = bounding_box(w.epoch(w.num_regrids - 1).at_level(2))
        assert last.lower[0] > first.lower[0]  # pulse advected +x

    def test_recorded_trace_replays_in_runtime(self):
        """The captured trace drives the partitioning runtime end to end."""
        w = record_workload(make_integrator(), num_steps=9)
        rt = SamrRuntime(
            w,
            Cluster.paper_four_node(),
            ACEHeterogeneous(),
            config=RuntimeConfig(iterations=9, regrid_interval=3),
        )
        result = rt.run()
        assert result.iterations == 9
        shares = result.regrids[0].loads / result.regrids[0].loads.sum()
        np.testing.assert_allclose(
            shares, result.regrids[0].capacities, atol=0.06
        )

    def test_hook_preserved(self):
        integ = make_integrator()
        seen = []
        integ.on_regrid = lambda h: seen.append(h.num_levels)
        record_workload(integ, num_steps=3)
        assert seen  # user's hook still fired
        assert integ.on_regrid is not None  # restored

    def test_already_setup_integrator(self):
        integ = make_integrator()
        integ.setup()
        w = record_workload(integ, num_steps=6)
        assert w.num_regrids >= 2
        assert w.epoch(0).total_cells > 0
