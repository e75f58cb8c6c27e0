"""Tests for the distributed AMR execution layer.

The centerpiece is *partition invariance*: because ghost filling reads the
composite grid and restriction accumulates in a fixed order, the solution
after N steps is bitwise identical whatever patch layout the partitioner
imposes -- one patch, four ranks' worth of splits, or any other tiling.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.amr.ghost import GhostFiller
from repro.amr.hierarchy import GridHierarchy
from repro.amr.integrator import BergerOligerIntegrator
from repro.cluster import Cluster
from repro.kernels.advection import AdvectionKernel
from repro.kernels.rm3d import RM3DKernel
from repro.partition import ACEComposite, ACEHeterogeneous, SFCHybrid
from repro.runtime.distributed import (
    DistributedAmrRun,
    DistributedRunConfig,
)
from repro.util.errors import SimulationError
from repro.util.geometry import Box
from tests.conftest import halves


def advection_hierarchy() -> GridHierarchy:
    k = AdvectionKernel(
        velocity=(1.0, 0.5), pulse_center=(8.0, 8.0), pulse_width=2.0
    )
    return GridHierarchy(Box((0, 0), (32, 32)), k, max_levels=3)


def sequential_solution(steps: int = 9) -> np.ndarray:
    h = advection_hierarchy()
    integ = BergerOligerIntegrator(h, regrid_interval=3)
    integ.setup()
    for _ in range(steps):
        integ.advance()
    return GhostFiller(h).fetch(h.domain, 0)


class TestConfig:
    def test_guards(self):
        with pytest.raises(SimulationError):
            DistributedRunConfig(steps=0)
        with pytest.raises(SimulationError):
            DistributedRunConfig(regrid_interval=-1)
        with pytest.raises(SimulationError):
            DistributedRunConfig(sensing_interval=-1)


class TestPartitionInvariance:
    @pytest.mark.parametrize(
        "partitioner", [ACEHeterogeneous(), ACEComposite(), SFCHybrid()],
        ids=lambda p: p.name,
    )
    def test_bitwise_equal_to_sequential(self, partitioner):
        ref = sequential_solution(steps=9)
        h = advection_hierarchy()
        run = DistributedAmrRun(
            h,
            Cluster.paper_four_node(),
            partitioner,
            config=DistributedRunConfig(steps=9, regrid_interval=3),
        )
        run.run()
        got = GhostFiller(h).fetch(h.domain, 0)
        np.testing.assert_array_equal(got, ref)

    def test_rank_count_does_not_matter(self):
        solutions = []
        for n in (1, 2, 8):
            h = advection_hierarchy()
            run = DistributedAmrRun(
                h,
                Cluster.homogeneous(n),
                ACEHeterogeneous(),
                config=DistributedRunConfig(steps=6, regrid_interval=3),
            )
            run.run()
            solutions.append(GhostFiller(h).fetch(h.domain, 0))
        np.testing.assert_array_equal(solutions[0], solutions[1])
        np.testing.assert_array_equal(solutions[0], solutions[2])

    def test_rm3d_invariance(self):
        def make():
            return GridHierarchy(
                Box((0, 0, 0), (16, 8, 8)),
                RM3DKernel(domain_shape=(16, 8, 8)),
                max_levels=2,
            )

        h_seq = make()
        integ = BergerOligerIntegrator(h_seq, regrid_interval=2, cfl=0.3)
        integ.setup()
        for _ in range(4):
            integ.advance()
        h_dist = make()
        DistributedAmrRun(
            h_dist,
            Cluster.paper_four_node(),
            ACEHeterogeneous(),
            config=DistributedRunConfig(steps=4, regrid_interval=2, cfl=0.3),
        ).run()
        np.testing.assert_array_equal(
            GhostFiller(h_seq).fetch(h_seq.domain, 0),
            GhostFiller(h_dist).fetch(h_dist.domain, 0),
        )


class TestAccounting:
    def test_counters_and_time(self):
        h = advection_hierarchy()
        run = DistributedAmrRun(
            h,
            Cluster.paper_four_node(),
            ACEHeterogeneous(),
            config=DistributedRunConfig(steps=7, regrid_interval=3),
        )
        r = run.run()
        assert r.steps == 7
        # Setup regrid + regrids at steps 3 and 6.
        assert r.num_regrids == 3
        assert r.total_seconds > 0
        assert len(r.step_seconds) == 7
        assert r.num_sensings == 1  # sense-once default
        assert r.sensing_seconds > 0

    def test_loads_track_capacity(self):
        h = advection_hierarchy()
        run = DistributedAmrRun(
            h,
            Cluster.paper_four_node(),
            ACEHeterogeneous(),
            config=DistributedRunConfig(steps=3, regrid_interval=5),
        )
        r = run.run()
        loads = r.loads_history[0]
        shares = loads / loads.sum()
        caps = r.capacities_history[0]
        np.testing.assert_allclose(shares, caps, atol=0.06)

    def test_sensing_interval_counts(self):
        h = advection_hierarchy()
        run = DistributedAmrRun(
            h,
            Cluster.paper_four_node(),
            ACEHeterogeneous(),
            config=DistributedRunConfig(
                steps=9, regrid_interval=3, sensing_interval=4
            ),
        )
        r = run.run()
        assert r.num_sensings == 3  # start + steps 4 and 8

    def test_capacity_aware_is_faster_on_loaded_cluster(self):
        """The headline effect, with the *real* kernel end to end."""
        times = {}
        for part in (ACEHeterogeneous(), ACEComposite()):
            h = advection_hierarchy()
            run = DistributedAmrRun(
                h,
                Cluster.paper_four_node(),
                part,
                config=DistributedRunConfig(steps=10, regrid_interval=5),
            )
            times[part.name] = run.run().total_seconds
        assert times["ACEHeterogeneous"] < times["ACEComposite"]


class TestRepatchLevel:
    def test_level0_repatch_preserves_data(self):
        h = advection_hierarchy()
        h.initialize()
        before = GhostFiller(h).fetch(h.domain, 0).copy()
        left, right = halves(h.domain, 0)
        from repro.util.geometry import BoxList

        h.repatch_level(0, BoxList([left, right]))
        assert len(h.levels[0]) == 2
        np.testing.assert_array_equal(GhostFiller(h).fetch(h.domain, 0), before)

    def test_repatch_guards(self):
        from repro.util.geometry import BoxList

        h = advection_hierarchy()
        h.initialize()
        with pytest.raises(Exception):
            h.repatch_level(3, BoxList([h.domain]))  # no such level
        with pytest.raises(Exception):
            # coverage change (half the domain) is rejected
            h.repatch_level(0, BoxList([halves(h.domain, 0)[0]]))
        with pytest.raises(Exception):
            # wrong level on the boxes
            h.repatch_level(0, BoxList([h.domain.refine(2)]))
