"""Communication cost accounting over the simulated cluster.

Model
-----
- Point-to-point: alpha-beta cost from :class:`repro.cluster.LinkModel`,
  throttled by the slower endpoint's current NIC bandwidth.
- Exchange phases (ghost sync, migration): each rank serializes its own
  sends and receives; the phase lasts as long as the busiest rank.  This is
  the standard post-office model for single-NIC nodes on switched Ethernet.
- Collectives: binomial-tree allreduce/broadcast, ``ceil(log2 P)`` rounds of
  the slowest-pair point-to-point cost.

The communicator never moves payloads -- the HDDA already holds them; here
we only price the pattern.  A bound tracer records the traffic.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.cluster.cluster import Cluster
from repro.telemetry.spans import NULL_TRACER
from repro.util.errors import SimulationError

__all__ = ["SimCommunicator"]

#: Exchange events carry at most this many per-pair rows; beyond it only
#: the heaviest pairs (by bytes) are kept and ``pairs_dropped`` says how
#: many fell off.  Keeps JSONL traces bounded on large clusters.
EVENT_PAIR_CAP = 512


class SimCommunicator:
    """Prices communication patterns on a simulated cluster.

    Every message of a phase is priced from one
    :meth:`~repro.cluster.cluster.Cluster.bandwidths` vector in one
    alpha-beta evaluation -- no per-pair state query.

    With a tracer bound (:meth:`bind_tracer`), traffic is recorded in
    telemetry: ``comm.bytes_total``/``comm.messages_total`` counters,
    per-collective timing histograms, and one ``comm.exchange`` event per
    exchange phase carrying the per-pair volume/time/derating detail the
    communication profiler turns into rank-by-rank matrices.
    """

    def __init__(self, cluster: Cluster, tracer=None):
        self.cluster = cluster
        self._nominal_mbps = np.array([s.bandwidth_mbps for s in cluster.nodes])
        self._tracer = NULL_TRACER
        self._bytes_total = None
        self._messages_total = None
        #: phase -> ``((pid, ends, bytes), id)`` of its last pair table
        self._tables: dict[str, tuple] = {}
        if tracer is not None:
            self.bind_tracer(tracer)

    def bind_tracer(self, tracer) -> None:
        """Route traffic accounting into ``tracer``'s metrics and events.

        Binding a disabled tracer (or :data:`NULL_TRACER`) turns the
        instrumentation back off; the priced costs are bit-identical
        either way.
        """
        self._tracer = tracer
        self._tables = {}
        if tracer is not None and tracer.enabled:
            self._bytes_total = tracer.metrics.counter("comm.bytes_total")
            self._messages_total = tracer.metrics.counter("comm.messages_total")
        else:
            self._tracer = NULL_TRACER
            self._bytes_total = None
            self._messages_total = None

    @property
    def size(self) -> int:
        return self.cluster.num_nodes

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise SimulationError(f"rank {rank} out of range [0, {self.size})")

    # ------------------------------------------------------------------
    def _price(
        self,
        pairs: Sequence[tuple[int, int]],
        sizes: Iterable[float],
        t: float | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Price one message per ``(src, dst)`` pair at time ``t``.

        Returns, row per pair: the ``(n, 2)`` rank array, the seconds, the
        integer sizes and the slower endpoint's deliverable Mbit/s.  A
        self-message is a local copy (free, not counted, never checked);
        an unpriceable message raises for the first offender in pair order.
        """
        n = len(pairs)
        ends = np.array(pairs, dtype=np.intp).reshape(n, 2)
        src, dst = ends[:, 0], ends[:, 1]
        nbytes = np.fromiter(sizes, dtype=float, count=n)
        mbps = self.cluster.bandwidths(t)
        wire = src != dst
        fault = bool(n) and bool(ends.min() < 0 or ends.max() >= self.size)
        if not fault:
            up = self.cluster.live_mask()
            link_mbps = np.minimum(mbps[src], mbps[dst])
            paid = wire & (nbytes != 0)  # a zero-byte message costs nothing
            sendable = up[src] & up[dst] & (nbytes >= 0) & np.isfinite(nbytes)
            fault = bool((wire & ~sendable | paid & (link_mbps <= 0)).any())
        if fault:
            for (a, b), size in zip(pairs, sizes):
                self._check_rank(a)
                self._check_rank(b)
                if a == b:
                    continue
                if not (self.cluster.is_up(a) and self.cluster.is_up(b)):
                    raise SimulationError(
                        f"point-to-point {a}->{b} has a down endpoint; "
                        "recovery must evacuate or re-route this transfer"
                    )
                # Negative or non-finite size, zero bandwidth: the link
                # model's checks.
                self.cluster.link.transfer_time(size, mbps[a], mbps[b])
        seconds = np.zeros(n)
        seconds[paid] = self.cluster.link.transfer_times(
            nbytes[paid], link_mbps[paid]
        )
        nbytes = nbytes.astype(np.int64)
        if self._messages_total is not None:
            sent = nbytes[wire].tolist()
            self._messages_total.inc(len(sent))
            self._bytes_total.inc(sum(sent))
        return ends, seconds, nbytes, link_mbps

    def exchange_time(
        self,
        pair_bytes: Mapping[tuple[int, int], float],
        t: float | None = None,
        phase: str = "exchange",
    ) -> np.ndarray:
        """Per-rank time for a neighbourhood exchange phase.

        ``pair_bytes[(src, dst)]`` is the payload volume from src to dst.
        Every rank's sends and receives serialize on its NIC; the function
        returns the per-rank busy time (callers usually take the max).
        ``phase`` labels the emitted ``comm.exchange`` telemetry event
        (``"ghost-exchange"``, ``"migration"``) when a tracer is bound.
        """
        ends, seconds, nbytes, link_mbps = self._price(
            list(pair_bytes), pair_bytes.values(), t
        )
        # busy[src] += s; busy[dst] += s, pair by pair: bincount adds the
        # interleaved [src0, dst0, src1, dst1, ...] rows in order, so each
        # rank's float sum keeps the scalar walk's order.
        busy = np.zeros(self.size)
        if len(ends):  # bincount of nothing ignores the weights' dtype
            busy = np.bincount(
                ends.ravel(), weights=np.repeat(seconds, 2), minlength=self.size
            )
        if self._tracer.enabled:
            wire = ends[:, 0] != ends[:, 1]
            nominal = self._nominal_mbps[ends].min(axis=1)
            derated = link_mbps < nominal * (1.0 - 1e-12)
            self._emit_exchange_event(
                phase, ends[wire], nbytes[wire], seconds[wire], derated[wire], busy, t
            )
        return busy

    def _emit_exchange_event(
        self,
        phase: str,
        ends: np.ndarray,
        nbytes: np.ndarray,
        seconds: np.ndarray,
        derated: np.ndarray,
        busy: np.ndarray,
        t: float | None,
    ) -> None:
        """One ``comm.exchange`` event: totals, ``pair_seconds`` /
        ``pair_derated`` columns and the id of its ``(src, dst, bytes)``
        table, written (``pair_table``) only when it differs from the
        phase's last one in this run.  The id is the event's index among
        the tracer's events."""
        tracer = self._tracer
        messages = len(nbytes)
        makespan = float(busy.max()) if busy.size else 0.0
        attrs = {
            "phase": phase,
            "ranks": self.size,
            "bytes": int(nbytes.sum()),
            "messages": messages,
            "seconds": makespan,
            "derated_bytes": int(nbytes[derated].sum()),
        }
        dropped = max(messages - EVENT_PAIR_CAP, 0)
        # Over the cap: heaviest first, ties in pair order (a stable
        # descending sort).
        rows = (
            np.argsort(-nbytes, kind="stable")[:EVENT_PAIR_CAP]
            if dropped
            else slice(None)
        )
        ends, nbytes = ends[rows], nbytes[rows]
        key = (tracer.pid, ends.tobytes(), nbytes.tobytes())
        last_key, attrs["table"] = self._tables.get(phase, (None, None))
        if key != last_key:
            attrs["table"] = len(tracer.events)
            attrs["pair_table"] = [
                list(row)
                for row in zip(
                    ends[:, 0].tolist(), ends[:, 1].tolist(), nbytes.tolist()
                )
            ]
            self._tables[phase] = (key, attrs["table"])
        attrs["pair_seconds"] = seconds[rows].tolist()
        attrs["pair_derated"] = derated[rows].tolist()
        if dropped:
            attrs["pairs_dropped"] = dropped
        if t is not None:
            attrs["t"] = float(t)
        tracer.event("comm.exchange", **attrs)
        tracer.metrics.histogram("comm.phase_seconds", phase=phase).observe(
            makespan
        )

    def allreduce_time(
        self, nbytes: float, t: float | None = None, op: str = "allreduce"
    ) -> float:
        """Binomial-tree allreduce over the *live* ranks.

        Down nodes are excluded from the tree -- an MPI implementation with
        fault tolerance (ULFM-style) shrinks the communicator; pricing them
        in would divide by a zero bandwidth.
        """
        up = self.cluster.live_mask()
        num_live = int(np.count_nonzero(up))
        if num_live <= 1:
            return 0.0
        rounds = math.ceil(math.log2(num_live))
        slowest_bw = float(self.cluster.bandwidths(t)[up].min())
        per_round = self.cluster.link.transfer_time(nbytes, slowest_bw, slowest_bw)
        seconds = rounds * per_round
        if self._tracer.enabled:
            self._tracer.metrics.histogram(
                "comm.collective_seconds", op=op
            ).observe(seconds)
        return seconds

    # ------------------------------------------------------------------
    def migration_time(
        self,
        bytes_moved: Mapping[tuple[int, int], int],
        t: float | None = None,
    ) -> float:
        """Wall time of a data-migration phase (post-repartition).

        Returns the makespan: the busiest rank's serialized transfer time.
        """
        if not bytes_moved:
            return 0.0
        busy = self.exchange_time(bytes_moved, t, phase="migration")
        return float(busy.max())
