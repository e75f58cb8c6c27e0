"""Golden identity: pricing from columns vs the per-pair scalar walk.

``Cluster.bandwidths`` is the columnar twin of ``state_of(k).bandwidth_mbps``
and ``SimCommunicator`` prices a whole phase from one such vector.  The
references below are verbatim copies of the per-pair code they replaced
(two ``state_of`` queries and one ``LinkModel.transfer_time`` per message,
``busy`` and the statistics accumulated message by message); the new path
must reproduce them bit for bit -- busy times, all seven ``CommStats``
fields, tracer counters and the ``comm.exchange`` event -- and raise the
same error for the first unpriceable message.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, LinkModel, NodeSpec, SyntheticLoadGenerator
from repro.comm import SimCommunicator
from repro.comm.simmpi import EVENT_PAIR_CAP, CommStats
from repro.telemetry import Tracer
from repro.util.errors import SimulationError


# ---------------------------------------------------------------------------
# Reference: the per-pair scalar walk.
# ---------------------------------------------------------------------------
class ScalarWalkCommunicator:
    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.size = cluster.num_nodes
        self.stats = CommStats()
        self.messages_total = 0.0
        self.bytes_total = 0.0
        self.events: list[dict] = []

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise SimulationError(f"rank {rank} out of range [0, {self.size})")

    def _record_message(self, src, dst, nbytes: int, seconds: float) -> None:
        stats = self.stats
        stats.messages += 1
        stats.bytes_sent += nbytes
        stats.point_to_point_time += seconds
        pair = (src, dst)
        stats.per_pair_bytes[pair] = stats.per_pair_bytes.get(pair, 0) + nbytes
        stats.per_pair_seconds[pair] = (
            stats.per_pair_seconds.get(pair, 0.0) + seconds
        )
        stats.per_pair_messages[pair] = stats.per_pair_messages.get(pair, 0) + 1

    def p2p_time(self, src, dst, nbytes, t=None) -> float:
        self._check_rank(src)
        self._check_rank(dst)
        if src == dst:
            return 0.0  # local copy, charged to compute
        if not (self.cluster.is_up(src) and self.cluster.is_up(dst)):
            raise SimulationError(
                f"point-to-point {src}->{dst} has a down endpoint; "
                "recovery must evacuate or re-route this transfer"
            )
        s_bw = self.cluster.state_of(src, t).bandwidth_mbps
        d_bw = self.cluster.state_of(dst, t).bandwidth_mbps
        seconds = self.cluster.link.transfer_time(nbytes, s_bw, d_bw)
        self._record_message(src, dst, int(nbytes), seconds)
        self.messages_total += float(1.0)
        self.bytes_total += float(int(nbytes))
        return seconds

    def exchange_time(self, pair_bytes, t=None, phase="exchange") -> np.ndarray:
        busy = np.zeros(self.size)
        pairs: list[tuple[int, int, int, float, bool]] = []
        for (src, dst), nbytes in pair_bytes.items():
            seconds = self.p2p_time(src, dst, nbytes, t)
            busy[src] += seconds
            busy[dst] += seconds
            if src != dst:
                eff_bw = min(
                    self.cluster.state_of(src, t).bandwidth_mbps,
                    self.cluster.state_of(dst, t).bandwidth_mbps,
                )
                nom_bw = min(
                    self.cluster.nodes[src].bandwidth_mbps,
                    self.cluster.nodes[dst].bandwidth_mbps,
                )
                derated = eff_bw < nom_bw * (1.0 - 1e-12)
                pairs.append((int(src), int(dst), int(nbytes), seconds, derated))
        self._emit_exchange_event(phase, pairs, busy, t)
        return busy

    def _emit_exchange_event(self, phase, pairs, busy, t) -> None:
        total_bytes = int(sum(p[2] for p in pairs))
        derated_bytes = int(sum(p[2] for p in pairs if p[4]))
        messages = len(pairs)
        dropped = 0
        if len(pairs) > EVENT_PAIR_CAP:
            pairs = sorted(pairs, key=lambda p: p[2], reverse=True)
            dropped = len(pairs) - EVENT_PAIR_CAP
            pairs = pairs[:EVENT_PAIR_CAP]
        makespan = float(busy.max()) if busy.size else 0.0
        attrs = {
            "phase": phase,
            "ranks": self.size,
            "bytes": total_bytes,
            "messages": messages,
            "seconds": makespan,
            "derated_bytes": derated_bytes,
            "pairs": [list(p) for p in pairs],
        }
        if dropped:
            attrs["pairs_dropped"] = dropped
        if t is not None:
            attrs["t"] = float(t)
        self.events.append(attrs)

    def allreduce_time(self, nbytes, t=None) -> float:
        live = [k for k in range(self.size) if self.cluster.is_up(k)]
        if len(live) <= 1:
            return 0.0
        rounds = math.ceil(math.log2(len(live)))
        states = [self.cluster.state_of(k, t) for k in live]
        slowest_bw = min(s.bandwidth_mbps for s in states)
        per_round = self.cluster.link.transfer_time(nbytes, slowest_bw, slowest_bw)
        seconds = rounds * per_round
        self.stats.collective_time += seconds
        return seconds


# ---------------------------------------------------------------------------
# Generated clusters and traffic
# ---------------------------------------------------------------------------
#: 5e-324 Mbit/s derated by 0.5 underflows to exactly 0 -- the one way an *up*
#: node delivers zero bandwidth -- and underated it prices any payload at
#: ``inf`` seconds (hence the overflow filter).
NIC_MBPS = [100.0, 10.0, 1000.0, 33.3, 5e-324]
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered")
TIMES = st.one_of(st.none(), st.floats(-2.0, 50.0, allow_nan=False))


@st.composite
def clusters(draw) -> Cluster:
    n = draw(st.integers(1, 6))
    cluster = Cluster(
        [
            NodeSpec(name=f"n{k}", bandwidth_mbps=draw(st.sampled_from(NIC_MBPS)))
            for k in range(n)
        ],
        link=LinkModel(
            latency_s=draw(st.sampled_from([0.0, 1e-4, 3.3e-3])),
            contention_factor=draw(st.sampled_from([1.0, 1.7])),
        ),
    )
    for _ in range(draw(st.integers(0, 6))):
        start = draw(st.floats(-5.0, 30.0, allow_nan=False))
        cluster.add_load_generator(
            SyntheticLoadGenerator(
                node=draw(st.integers(0, n - 1)),
                start_time=start,
                ramp_rate=draw(st.floats(0.01, 10.0, allow_nan=False)),
                target_level=draw(st.floats(0.0, 5.0, allow_nan=False)),
                stop_time=draw(
                    st.one_of(
                        st.none(),
                        st.floats(0.1, 40.0, allow_nan=False).map(
                            lambda d, s=start: s + d
                        ),
                    )
                ),
                bandwidth_fraction_per_unit=draw(
                    st.floats(0.0, 0.7, allow_nan=False)
                ),
            )
        )
    for node in draw(st.sets(st.integers(0, n - 1))):
        cluster.degrade_link(node, draw(st.sampled_from([1.0, 0.5, 0.123, 1e-3])))
    for node in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        cluster.mark_down(node)
    cluster.clock.advance_to(draw(st.floats(0.0, 40.0, allow_nan=False)))
    return cluster


def traffic(cluster: Cluster, faults: bool) -> st.SearchStrategy[dict]:
    """Pair sets with self-pairs, zero-byte pairs and repeated ranks; with
    ``faults`` also down endpoints, unknown ranks and negative sizes."""
    n = cluster.num_nodes
    ranks = st.integers(-1, n) if faults else st.sampled_from(cluster.live_nodes)
    sizes = st.one_of(
        st.sampled_from([0, 0.0, 1, 8, 1e6, 12345.678]),
        st.floats(-1.0 if faults else 0.0, 1e9, allow_nan=False),
        st.integers(0, 10**9),
    )
    return st.dictionaries(st.tuples(ranks, ranks), sizes, max_size=24)


def outcome(fn):
    try:
        return fn(), None
    except SimulationError as exc:
        return None, str(exc)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(cluster=clusters(), t=TIMES)
def test_bandwidth_vector_matches_state_of(cluster, t):
    vector = cluster.bandwidths(t)
    scalar = np.array(
        [cluster.state_of(k, t).bandwidth_mbps for k in range(cluster.num_nodes)]
    )
    assert same_bits(vector, scalar)
    vector[:] = -1.0  # a fresh array per call: callers may scribble on it
    assert (cluster.bandwidths(t) >= 0).all()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), t=TIMES, faults=st.booleans())
def test_exchange_matches_scalar_walk(data, t, faults):
    cluster = data.draw(clusters())
    if not cluster.live_nodes:
        faults = True
    # Two phases back to back: the running CommStats sums must carry over.
    phases = [data.draw(traffic(cluster, faults)) for _ in range(2)]
    tracer = Tracer()
    new = SimCommunicator(cluster, tracer)
    ref = ScalarWalkCommunicator(cluster)
    for i, pair_bytes in enumerate(phases):
        phase = f"phase{i}"
        got, got_error = outcome(lambda: new.exchange_time(pair_bytes, t, phase))
        want, want_error = outcome(lambda: ref.exchange_time(pair_bytes, t, phase))
        assert got_error == want_error
        if want_error is not None:
            return  # the scalar walk leaves half-tallied stats behind
        assert same_bits(got, want)
        assert new.stats == ref.stats
        for name in ("per_pair_bytes", "per_pair_seconds", "per_pair_messages"):
            assert list(getattr(new.stats, name)) == list(getattr(ref.stats, name))
        assert type(new.stats.bytes_sent) is int
        counters = {m.name: m.value for m in tracer.metrics if m.kind == "counter"}
        assert counters["comm.messages_total"] == ref.messages_total
        assert counters["comm.bytes_total"] == ref.bytes_total
        events = [e.attributes for e in tracer.events if e.name == "comm.exchange"]
        assert json.dumps(events) == json.dumps(ref.events)
    # The untraced communicator prices the same phases identically.
    silent = SimCommunicator(cluster)
    for pair_bytes in phases:
        silent.exchange_time(pair_bytes, t)
    assert silent.stats == ref.stats


@settings(max_examples=100, deadline=None)
@given(cluster=clusters(), t=TIMES, nbytes=st.sampled_from([0, 64.0, 1e6]))
def test_allreduce_matches_scalar_walk(cluster, t, nbytes):
    new = SimCommunicator(cluster)
    ref = ScalarWalkCommunicator(cluster)
    got = outcome(lambda: new.allreduce_time(nbytes, t))
    assert got == outcome(lambda: ref.allreduce_time(nbytes, t))
    assert new.stats == ref.stats


def test_event_cap_keeps_heaviest_pairs_in_pair_order():
    n = 40
    cluster = Cluster.homogeneous(n)
    cluster.degrade_link(3, 0.5)
    pair_bytes = {
        (s, d): float((s * 7 + d * 3) % 11)  # many ties, some zero-byte
        for s in range(n)
        for d in range(n)
        if (s + d) % 2
    }
    assert len(pair_bytes) > EVENT_PAIR_CAP
    tracer = Tracer()
    new = SimCommunicator(cluster, tracer)
    ref = ScalarWalkCommunicator(cluster)
    assert same_bits(new.exchange_time(pair_bytes), ref.exchange_time(pair_bytes))
    (event,) = [e.attributes for e in tracer.events if e.name == "comm.exchange"]
    assert json.dumps(event) == json.dumps(ref.events[0])
    assert event["pairs_dropped"] == len(pair_bytes) - EVENT_PAIR_CAP
