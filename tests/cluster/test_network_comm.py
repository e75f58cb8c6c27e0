"""Tests for the link model and the simulated communicator."""

from __future__ import annotations

import math

import pytest

from repro.cluster import Cluster, LinkModel, NodeSpec
from repro.comm import SimCommunicator
from repro.telemetry import Tracer
from repro.util.errors import SimulationError


def p2p(comm: SimCommunicator, src, dst, nbytes, t=None) -> float:
    """Seconds for one message: the one-pair exchange phase's makespan."""
    return float(comm.exchange_time({(src, dst): nbytes}, t).max())


def traced(cluster: Cluster) -> tuple[SimCommunicator, Tracer]:
    tracer = Tracer()
    return SimCommunicator(cluster, tracer), tracer


def traffic(tracer: Tracer) -> tuple[float, float]:
    """The ``(comm.messages_total, comm.bytes_total)`` counters."""
    by_name = {m.name: m.value for m in tracer.metrics if m.kind == "counter"}
    return by_name["comm.messages_total"], by_name["comm.bytes_total"]


class TestLinkModel:
    def test_zero_bytes_is_free(self):
        assert LinkModel().transfer_time(0, 100, 100) == 0.0

    def test_alpha_beta(self):
        link = LinkModel(latency_s=1e-3)
        # 100 Mbit/s = 12.5 MB/s; 12.5 MB should take ~1 s + latency.
        t = link.transfer_time(12.5e6, 100, 100)
        assert t == pytest.approx(1.0 + 1e-3)

    def test_slower_endpoint_throttles(self):
        link = LinkModel(latency_s=0.0)
        t_fast = link.transfer_time(1e6, 100, 100)
        t_mixed = link.transfer_time(1e6, 100, 10)
        assert t_mixed == pytest.approx(10 * t_fast)

    def test_contention_scales(self):
        base = LinkModel(latency_s=0.0)
        contended = LinkModel(latency_s=0.0, contention_factor=2.0)
        assert contended.transfer_time(1e6, 100, 100) == pytest.approx(
            2 * base.transfer_time(1e6, 100, 100)
        )

    def test_guards(self):
        with pytest.raises(SimulationError):
            LinkModel(latency_s=-1.0)
        with pytest.raises(SimulationError):
            LinkModel(contention_factor=0.5)
        with pytest.raises(SimulationError):
            LinkModel().transfer_time(-1, 100, 100)
        for size in (math.nan, math.inf):
            with pytest.raises(SimulationError, match=f"non-finite .* {size}"):
                LinkModel().transfer_time(size, 100, 100)
        with pytest.raises(SimulationError):
            LinkModel().transfer_time(10, 0, 100)


class TestSimCommunicator:
    def test_self_message_free(self):
        comm = SimCommunicator(Cluster.homogeneous(2))
        assert p2p(comm, 0, 0, 1e6) == 0.0

    def test_p2p_records_stats(self):
        comm, tracer = traced(Cluster.homogeneous(2))
        t = p2p(comm, 0, 1, 1e6)
        assert t > 0
        assert traffic(tracer) == (1, 1_000_000)
        assert [row[:3] for row in exchange_pairs(tracer)[0]] == [(0, 1, 1_000_000)]

    def test_rank_guard(self):
        comm = SimCommunicator(Cluster.homogeneous(2))
        with pytest.raises(SimulationError):
            p2p(comm, 0, 5, 10)

    def test_exchange_busy_times(self):
        comm = SimCommunicator(Cluster.homogeneous(3))
        busy = comm.exchange_time({(0, 1): 1e6, (1, 2): 1e6})
        # Rank 1 both receives and sends -> busiest.
        assert busy[1] == pytest.approx(busy[0] + busy[2])
        assert busy.shape == (3,)

    def test_allreduce_scales_with_log_p(self):
        t2 = SimCommunicator(Cluster.homogeneous(2)).allreduce_time(1e4)
        t8 = SimCommunicator(Cluster.homogeneous(8)).allreduce_time(1e4)
        assert t8 == pytest.approx(3 * t2)

    def test_allreduce_single_rank_free(self):
        assert SimCommunicator(Cluster.homogeneous(1)).allreduce_time(1e6) == 0.0

    def test_migration_time_empty(self):
        comm = SimCommunicator(Cluster.homogeneous(4))
        assert comm.migration_time({}) == 0.0

    def test_migration_time_is_makespan(self):
        comm = SimCommunicator(Cluster.homogeneous(4))
        moved = {(0, 1): int(1e6), (2, 3): int(2e6)}
        t = comm.migration_time(moved)
        # Pair (2,3) carries twice the bytes -> defines the makespan.
        solo = p2p(SimCommunicator(Cluster.homogeneous(4)), 2, 3, 2e6)
        assert t == pytest.approx(solo)

    def test_slow_nic_node_slows_exchange(self):
        nodes = [
            NodeSpec(name="a"),
            NodeSpec(name="b", bandwidth_mbps=10.0),
        ]
        comm = SimCommunicator(Cluster(nodes))
        fast = SimCommunicator(Cluster.homogeneous(2))
        assert p2p(comm, 0, 1, 1e6) > p2p(fast, 0, 1, 1e6)


class TestDegenerateAndFaultedComm:
    """Single-rank collectives, zero-byte messages, dead and derated NICs."""

    def test_zero_byte_message_is_free_but_counted(self):
        comm, tracer = traced(Cluster.homogeneous(2))
        assert p2p(comm, 0, 1, 0) == 0.0
        assert traffic(tracer) == (1, 0)

    def test_zero_byte_collectives_on_single_rank(self):
        comm = SimCommunicator(Cluster.homogeneous(1))
        assert comm.allreduce_time(0) == 0.0
        assert comm.migration_time({}) == 0.0
        assert comm.exchange_time({}).shape == (1,)

    def test_self_message_on_down_node_stays_free(self):
        """rank==rank short-circuits before the liveness check."""
        cluster = Cluster.homogeneous(2)
        cluster.mark_down(0)
        assert p2p(SimCommunicator(cluster), 0, 0, 1e6) == 0.0

    def test_p2p_with_down_endpoint_raises(self):
        cluster = Cluster.homogeneous(3)
        comm = SimCommunicator(cluster)
        cluster.mark_down(1)
        with pytest.raises(SimulationError, match="down endpoint"):
            p2p(comm, 0, 1, 1e6)
        with pytest.raises(SimulationError, match="down endpoint"):
            p2p(comm, 1, 2, 1e6)
        # Live pairs keep working around the dead node.
        assert p2p(comm, 0, 2, 1e6) > 0.0

    def test_allreduce_shrinks_around_down_nodes(self):
        cluster = Cluster.homogeneous(8)
        comm = SimCommunicator(cluster)
        t8 = comm.allreduce_time(1e4)  # 3 rounds over 8 ranks
        for k in (5, 6, 7, 4):
            cluster.mark_down(k)
        t4 = comm.allreduce_time(1e4)  # 2 rounds over 4 survivors
        assert t4 == pytest.approx(t8 * 2 / 3)
        for k in (0, 1, 2):
            cluster.mark_down(k)
        assert comm.allreduce_time(1e4) == 0.0  # one survivor: free

    def test_degraded_link_slows_exchange_and_recovers(self):
        cluster = Cluster.homogeneous(2)
        comm = SimCommunicator(cluster)
        healthy = p2p(comm, 0, 1, 1e6)
        cluster.degrade_link(1, 0.1)
        degraded = p2p(comm, 0, 1, 1e6)
        # The slower (derated) endpoint throttles the transfer.
        assert degraded == pytest.approx(
            cluster.link.transfer_time(1e6, 100.0, 10.0)
        )
        assert degraded > 9 * healthy
        cluster.restore_link(1)
        assert p2p(comm, 0, 1, 1e6) == pytest.approx(healthy)

    def test_link_degrade_mid_run_changes_prices_at_probe_time(self):
        """Derating applies from the simulated instant it lands."""
        cluster = Cluster.homogeneous(2)
        comm = SimCommunicator(cluster)
        before = p2p(comm, 0, 1, 1e6, t=0.0)
        cluster.clock.schedule(5.0, lambda _: cluster.degrade_link(0, 0.5))
        cluster.clock.advance_to(10.0)
        after = p2p(comm, 0, 1, 1e6)
        assert after == pytest.approx(
            cluster.link.transfer_time(1e6, 50.0, 100.0)
        )
        assert after > before


class TestExchangeFaults:
    """An unpriceable phase raises for the first offender in dict order,
    with the text the per-message walk gave it, and records nothing."""

    def comm(self) -> tuple[SimCommunicator, Tracer]:
        nodes = [NodeSpec(name=f"n{k}") for k in range(4)]
        # 5e-324 Mbit/s derated by half underflows to a zero-bandwidth NIC
        # on a node that is up.
        nodes.append(NodeSpec(name="n4", bandwidth_mbps=5e-324))
        cluster = Cluster(nodes)
        cluster.degrade_link(4, 0.5)
        cluster.mark_down(3)
        return traced(cluster)

    @pytest.mark.parametrize(
        "bad_pair, nbytes, message",
        [
            ((0, 7), 1.0, "rank 7 out of range [0, 5)"),
            ((-1, 0), 1.0, "rank -1 out of range [0, 5)"),
            (
                (3, 1),
                1.0,
                "point-to-point 3->1 has a down endpoint; "
                "recovery must evacuate or re-route this transfer",
            ),
            ((1, 2), -8.5, "negative transfer size -8.5"),
            ((4, 0), 1.0, "transfer over a zero-bandwidth link"),
            ((1, 2), math.nan, "non-finite transfer size nan"),
            ((1, 2), math.inf, "non-finite transfer size inf"),
        ],
    )
    def test_each_fault_keeps_its_text(self, bad_pair, nbytes, message):
        comm, tracer = self.comm()
        with pytest.raises(SimulationError) as exc:
            comm.exchange_time({(0, 1): 1e3, bad_pair: nbytes, (1, 0): 1e3})
        assert str(exc.value) == message
        with pytest.raises(SimulationError) as exc:
            p2p(comm, *bad_pair, nbytes)
        assert str(exc.value) == message
        assert traffic(tracer) == (0, 0)
        assert not tracer.events

    def test_first_offender_in_dict_order_wins(self):
        phase = {(0, 1): 1e3, (1, 2): -1.0, (0, 9): 1.0, (3, 0): 1.0}
        with pytest.raises(SimulationError, match="negative transfer size -1.0"):
            self.comm()[0].exchange_time(phase)
        phase = dict(reversed(phase.items()))
        with pytest.raises(SimulationError, match="3->0 has a down endpoint"):
            self.comm()[0].exchange_time(phase)

    def test_faults_a_message_never_reaches_are_not_faults(self):
        comm, tracer = self.comm()
        # Self-messages are local copies: any size, even on a down node; a
        # zero-byte message is free before the bandwidth is looked at.
        busy = comm.exchange_time({(3, 3): -5.0, (2, 2): 1e6, (4, 0): 0})
        assert not busy.any()
        assert traffic(tracer) == (1, 0)


def exchange_pairs(tracer) -> list[list[tuple]]:
    """Each ``comm.exchange`` event's pair rows, as every reader reads them."""
    from repro.telemetry.model import TraceModel, pair_rows

    (view,) = TraceModel.of(tracer).runs
    return [pair_rows(e["attributes"], view.pair_tables) for e in view.comm_events]


class TestCommTelemetry:
    """Traffic accounting promoted into the tracer (S2 of the profiling PR)."""

    def traced_comm(self, num_nodes=3):
        return traced(Cluster.homogeneous(num_nodes))

    def test_p2p_increments_counters(self):
        comm, tracer = self.traced_comm(2)
        p2p(comm, 0, 1, 1e6)
        p2p(comm, 1, 0, 5e5)
        by_name = {m.name: m for m in tracer.metrics}
        assert by_name["comm.bytes_total"].value == pytest.approx(1.5e6)
        assert by_name["comm.messages_total"].value == 2

    def test_exchange_emits_event_with_pair_detail(self):
        comm, tracer = self.traced_comm(3)
        comm.exchange_time({(0, 1): 1e6, (1, 2): 2e6, (2, 2): 7.0})
        (event,) = [e for e in tracer.events if e.name == "comm.exchange"]
        assert event.attributes["phase"] == "exchange"
        assert event.attributes["bytes"] == pytest.approx(3e6)  # no self-pair
        assert event.attributes["messages"] == 2
        (rows,) = exchange_pairs(tracer)
        pairs = {(p[0], p[1]): p[2] for p in rows}
        assert pairs == {(0, 1): 1_000_000, (1, 2): 2_000_000}

    def test_pair_table_is_recorded_once_per_layout(self):
        comm, tracer = self.traced_comm(3)
        layout = {(0, 1): 1e6, (1, 2): 2e6}
        comm.exchange_time(layout, phase="ghost-exchange")
        comm.exchange_time(layout, phase="ghost-exchange")
        comm.exchange_time({(1, 2): 5e5}, phase="migration")
        comm.exchange_time({(0, 1): 1e6, (1, 2): 3e6}, phase="ghost-exchange")
        events = [e.attributes for e in tracer.events]
        assert [e["table"] for e in events] == [0, 0, 2, 3]
        assert ["pair_table" in e for e in events] == [True, False, True, True]
        first, again = exchange_pairs(tracer)[:2]
        assert first == again == [
            (0, 1, 1_000_000, *first[0][3:]),
            (1, 2, 2_000_000, *first[1][3:]),
        ]
        # A new run records its tables afresh.
        tracer.begin_run("second")
        comm.exchange_time(layout, phase="ghost-exchange")
        assert "pair_table" in tracer.events[-1].attributes

    def test_empty_exchange_still_emits_its_event(self):
        comm, tracer = self.traced_comm(3)
        busy = comm.exchange_time({}, t=2.5, phase="ghost-exchange")
        assert busy.dtype == float and not busy.any()
        (event,) = [e for e in tracer.events if e.name == "comm.exchange"]
        assert event.attributes == {
            "phase": "ghost-exchange",
            "ranks": 3,
            "bytes": 0,
            "messages": 0,
            "seconds": 0.0,
            "derated_bytes": 0,
            "table": 0,
            "pair_table": [],
            "pair_seconds": [],
            "pair_derated": [],
            "t": 2.5,
        }

    def test_exchange_derated_attribution(self):
        cluster = Cluster.homogeneous(2)
        comm = SimCommunicator(cluster)
        tracer = Tracer()
        comm.bind_tracer(tracer)
        cluster.degrade_link(1, 0.5)
        comm.exchange_time({(0, 1): 1e6})
        (event,) = [e for e in tracer.events if e.name == "comm.exchange"]
        assert event.attributes["derated_bytes"] == pytest.approx(1e6)
        ((src, dst, nbytes, seconds, derated),) = exchange_pairs(tracer)[0]
        assert (src, dst, derated) == (0, 1, True)

    def test_collective_timing_histograms(self):
        comm, tracer = self.traced_comm(4)
        comm.allreduce_time(64.0)
        comm.allreduce_time(128.0, op="sync")
        names = {(m.name, m.labels.get("op")) for m in tracer.metrics}
        assert ("comm.collective_seconds", "allreduce") in names
        assert ("comm.collective_seconds", "sync") in names

    def test_phase_seconds_histogram_per_phase(self):
        comm, tracer = self.traced_comm(3)
        comm.exchange_time({(0, 1): 1e6})
        comm.migration_time({(1, 2): 1000})
        labels = {
            m.labels.get("phase")
            for m in tracer.metrics
            if m.name == "comm.phase_seconds"
        }
        assert {"exchange", "migration"} <= labels

    def test_untraced_communicator_stays_silent(self):
        comm = SimCommunicator(Cluster.homogeneous(2))
        p2p(comm, 0, 1, 1e6)
        comm.exchange_time({(0, 1): 1e6})  # no tracer bound: no error

    def test_per_pair_seconds_and_messages_in_stats(self):
        comm, tracer = traced(Cluster.homogeneous(2))
        p2p(comm, 0, 1, 1e6)
        p2p(comm, 0, 1, 1e6)
        rows = [row for event in exchange_pairs(tracer) for row in event]
        assert [row[:2] for row in rows] == [(0, 1), (0, 1)]
        assert all(row[3] > 0 for row in rows)
