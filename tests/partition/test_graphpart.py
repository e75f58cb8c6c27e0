"""Tests for the graph-based partitioner and the box connectivity graph."""

from __future__ import annotations

import numpy as np

from repro.kernels.workloads import moving_blob_trace, paper_rm3d_trace
from repro.partition import GraphPartitioner, build_box_graph
from repro.util.geometry import Box, BoxList
from tests.conftest import box_work

PAPER_CAPS = np.array([0.16, 0.19, 0.31, 0.34])


class TestBoxGraph:
    def test_adjacent_boxes_connected(self):
        a = Box((0, 0), (4, 8))
        b = Box((4, 0), (8, 8))
        g = build_box_graph(BoxList([a, b]), None)
        assert g.number_of_nodes() == 2
        assert g.has_edge(0, 1)
        # Shared face: 8 cells each direction -> volume 16.
        assert g[0][1]["volume"] == 16

    def test_distant_boxes_disconnected(self):
        a = Box((0, 0), (2, 2))
        b = Box((10, 10), (12, 12))
        g = build_box_graph(BoxList([a, b]), None)
        assert g.number_of_edges() == 0

    def test_interlevel_edge(self):
        coarse = Box((0, 0), (8, 8), 0)
        fine = Box((2, 2), (6, 6), 1)
        g = build_box_graph(BoxList([coarse, fine]), None)
        assert g.has_edge(0, 1)

    def test_node_weights_are_work(self):
        b = Box((0, 0), (4, 4), level=1)
        g = build_box_graph(BoxList([b]), None)
        assert g.nodes[0]["work"] == box_work(b)

    def test_paper_trace_graph_connected(self):
        """The RM3D hierarchy's graph is a single connected component
        (slab chunks touch; fingers nest inside the slab)."""
        import networkx as nx

        bl = paper_rm3d_trace(num_regrids=4).epoch(2)
        g = build_box_graph(bl, None)
        assert nx.is_connected(g)


class TestGraphPartitioner:
    def test_covers_and_ranks(self):
        bl = paper_rm3d_trace(num_regrids=8).epoch(3)
        r = GraphPartitioner().partition(bl, PAPER_CAPS)
        r.validate_covers(bl)
        assert r.num_assigned() == len(bl)  # no splitting
        assert r.num_splits == 0

    def test_shares_track_capacity_coarsely(self):
        bl = paper_rm3d_trace(num_regrids=8).epoch(5)
        r = GraphPartitioner().partition(bl, PAPER_CAPS)
        shares = r.loads() / r.loads().sum()
        # Whole-box granularity: looser tolerance than the splitters.
        assert shares[3] + shares[2] > shares[0] + shares[1]
        np.testing.assert_allclose(shares, PAPER_CAPS, atol=0.12)

    def test_single_rank(self):
        bl = moving_blob_trace(num_regrids=2).epoch(0)
        r = GraphPartitioner().partition(bl, [1.0])
        assert all(rank == 0 for rank in r.layout.ranks)

    def test_empty(self):
        r = GraphPartitioner().partition(BoxList(), PAPER_CAPS)
        assert r.layout.pairs() == []

    def test_deterministic(self):
        bl = paper_rm3d_trace(num_regrids=6).epoch(4)
        a = GraphPartitioner().partition(bl, PAPER_CAPS)
        b = GraphPartitioner().partition(bl, PAPER_CAPS)
        assert a.layout.pairs() == b.layout.pairs()

    def test_locality_cut_beats_random(self):
        """The grown parts should cut less exchange volume than a random
        assignment of whole boxes."""
        from repro.amr.ghost import plan_exchange_volumes

        bl = moving_blob_trace(
            domain_shape=(64, 64), num_regrids=6, max_levels=3,
            chop_pieces=4,
        ).epoch(3)
        caps = [0.25] * 4
        graph_owners = dict(
            GraphPartitioner().partition(bl, caps).layout.pairs()
        )
        rng = np.random.default_rng(0)
        cuts = []
        for owners in (
            graph_owners,
            {b: int(rng.integers(0, 4)) for b in bl},
        ):
            vols = plan_exchange_volumes(bl, owners)
            cuts.append(sum(vols.values()))
        assert cuts[0] <= cuts[1]
