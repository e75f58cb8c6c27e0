"""Extra distributed-runtime coverage: sensing during real-kernel runs,
Richardson-criterion runs, and collective costs."""

from __future__ import annotations

import numpy as np

from repro.amr.ghost import GhostFiller
from repro.amr.hierarchy import GridHierarchy
from repro.amr.regrid import RegridParams
from repro.cluster import Cluster
from repro.comm import SimCommunicator
from repro.kernels.advection import AdvectionKernel
from repro.partition import SFCHybrid
from repro.runtime.distributed import DistributedAmrRun, DistributedRunConfig
from repro.util.geometry import Box


def advection_hierarchy() -> GridHierarchy:
    k = AdvectionKernel(
        velocity=(1.0, 0.5), pulse_center=(8.0, 8.0), pulse_width=2.0
    )
    return GridHierarchy(Box((0, 0), (32, 32)), k, max_levels=3)


class TestDistributedSensing:
    def test_mid_run_sensing_adapts_ownership(self):
        """A dynamic cluster plus periodic sensing changes the assignment
        mid-run, without perturbing the solution."""
        # Tiny hierarchy -> ~2 simulated seconds total; a 1.5 s horizon puts
        # the load swap mid-run.
        cluster = Cluster.paper_linux_cluster(
            4, seed=5, dynamic=True, horizon_s=1.5
        )
        h = advection_hierarchy()
        run = DistributedAmrRun(
            h,
            cluster,
            SFCHybrid(),
            config=DistributedRunConfig(
                steps=9, regrid_interval=3, sensing_interval=3
            ),
        )
        r = run.run()
        assert r.num_sensings >= 3
        caps = np.array(r.capacities_history)
        assert (caps.max(axis=0) - caps.min(axis=0)).max() > 0.02
        # Solution still matches the sequential reference.
        from repro.amr.integrator import BergerOligerIntegrator

        h_ref = advection_hierarchy()
        integ = BergerOligerIntegrator(h_ref, regrid_interval=3)
        integ.setup()
        for _ in range(9):
            integ.advance()
        np.testing.assert_array_equal(
            GhostFiller(h).fetch(h.domain, 0),
            GhostFiller(h_ref).fetch(h_ref.domain, 0),
        )

    def test_richardson_criterion_in_distributed_run(self):
        h = advection_hierarchy()
        run = DistributedAmrRun(
            h,
            Cluster.paper_four_node(),
            SFCHybrid(),
            config=DistributedRunConfig(steps=6, regrid_interval=3),
            regrid_params=RegridParams(
                flag_threshold=1e-4, criterion="richardson"
            ),
        )
        r = run.run()
        assert r.steps == 6
        assert h.num_levels >= 2
        assert h.proper_nesting_ok()


class TestCollectives:
    def test_collective_stats_accumulate(self):
        comm = SimCommunicator(Cluster.homogeneous(4))
        comm.allreduce_time(100.0)
        first = comm.stats.collective_time
        comm.allreduce_time(100.0)
        assert comm.stats.collective_time == 2 * first > 0
