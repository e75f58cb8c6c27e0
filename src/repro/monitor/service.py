"""The :class:`ResourceMonitor` facade.

This is the only window the partitioning framework has onto the cluster,
mirroring how the paper's framework only saw its testbed through NWS:

- :meth:`ResourceMonitor.probe_all` measures CPU availability, free memory
  and bandwidth on every node -- one column per resource from
  :meth:`~repro.cluster.cluster.Cluster.resources` -- and returns a
  :class:`MonitorSnapshot`; the snapshot carries ``overhead_seconds`` --
  the paper reports ~0.5 s per node to probe NWS and compute the relative
  capacity (section 6.1.4) -- which the runtime charges to simulated time.
- Failed probes (node down, or sensor blacked out) fall back to the node's
  last known reading and are counted in ``snapshot.stale_nodes``; the
  probe span's ``max_consecutive_failures`` makes persistent sensor loss
  visible, not silently absorbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.cluster import Cluster
from repro.telemetry.spans import NULL_TRACER
from repro.util.errors import MonitorError
from repro.util.rng import make_rng

__all__ = ["MonitorSnapshot", "ResourceMonitor"]

#: Probe + capacity-computation cost per node (seconds), from section 6.1.4.
DEFAULT_PROBE_OVERHEAD_S = 0.5

#: Serial cost (seconds) of collecting and folding each node's answer at
#: the querying process.
AGGREGATION_S_PER_NODE = 0.02

#: Upper clamp of a noisy reading per resource row (CPU is a fraction;
#: memory and bandwidth are only non-negative).
_UPPER = (1.0, np.inf, np.inf)


@dataclass(frozen=True, slots=True)
class MonitorSnapshot:
    """System state as seen through the monitor at one sensing point.

    Arrays are indexed by node: ``cpu`` (fraction in [0,1]), ``memory_mb``,
    ``bandwidth_mbps``.  ``stale_nodes`` lists nodes whose probe failed and
    whose values were carried over from the previous snapshot.
    """

    time: float
    cpu: np.ndarray
    memory_mb: np.ndarray
    bandwidth_mbps: np.ndarray
    overhead_seconds: float
    stale_nodes: tuple[int, ...] = field(default=())

    @property
    def num_nodes(self) -> int:
        return len(self.cpu)


class ResourceMonitor:
    """NWS-equivalent monitoring service over a simulated cluster.

    Parameters
    ----------
    cluster:
        The cluster to observe.
    probe_overhead_s:
        Latency of probing one node and computing its relative capacity
        (default 0.5 s, section 6.1.4).  Probes of different nodes run
        concurrently -- NWS sensors are independent daemons -- so a full
        sweep costs ``probe_overhead_s + AGGREGATION_S_PER_NODE * N``, not
        ``0.5 * N``.
    noise:
        Relative (multiplicative) Gaussian noise sigma of every reading;
        0 = exact readings.
    seed:
        Base seed of the noise streams (one per resource: ``seed``,
        ``seed + 1``, ``seed + 2``).
    tracer:
        Telemetry sink for probe spans (no-op by default; the runtime
        attaches its tracer when tracing is enabled).
    """

    def __init__(
        self,
        cluster: Cluster,
        probe_overhead_s: float = DEFAULT_PROBE_OVERHEAD_S,
        noise: float = 0.0,
        seed: int = 0,
        tracer=NULL_TRACER,
    ):
        if probe_overhead_s < 0:
            raise MonitorError(f"negative probe overhead {probe_overhead_s}")
        if noise < 0:
            raise MonitorError(f"negative noise sigma {noise}")
        self.cluster = cluster
        self.probe_overhead_s = probe_overhead_s
        self.noise = noise
        self.tracer = tracer
        self._rngs = [make_rng(seed + i) for i in range(len(_UPPER))]
        #: Last reading per (resource, node); ``None`` before the first sweep.
        self._last: np.ndarray | None = None
        #: Per-node count of consecutive sweeps whose probe failed.
        self._failures = np.zeros(cluster.num_nodes, dtype=np.intp)
        self.last_probe_time: float | None = None
        #: Nodes whose sensors are blacked out (fault injection): the node
        #: may be computing fine, but every probe of it fails.
        self._blackouts: set[int] = set()

    # ------------------------------------------------------------------
    # Sensor blackouts (fault injection)
    # ------------------------------------------------------------------
    def blackout_sensor(self, node: int) -> None:
        """All probes of ``node`` fail until :meth:`restore_sensor`."""
        if not 0 <= node < self.cluster.num_nodes:
            raise MonitorError(f"unknown node index {node}")
        self._blackouts.add(node)

    def restore_sensor(self, node: int) -> None:
        """Lift a sensor blackout; idempotent."""
        self._blackouts.discard(node)

    # ------------------------------------------------------------------
    def staleness_s(self, t: float | None = None) -> float:
        """Seconds of simulated time since the last probe sweep.

        The health monitor's sensing-staleness signal: decisions made on a
        snapshot sensed long ago may no longer reflect the cluster.
        Returns ``inf`` before the first probe so consumers can flag
        "never sensed" distinctly from "sensed at t=0".
        """
        if self.last_probe_time is None:
            return math.inf
        now = self.cluster.clock.now if t is None else t
        return max(now - self.last_probe_time, 0.0)

    def _first_readings(self, stale: np.ndarray) -> np.ndarray:
        """Stand-in readings for nodes never measured: their state at
        t=0, so the capacity calculator still has something to chew on."""
        first = np.zeros((len(_UPPER), self.cluster.num_nodes))
        for node in stale.tolist():
            state = self.cluster.state_of(node, 0.0)
            first[:, node] = (
                state.cpu_available,
                state.free_memory_mb,
                state.bandwidth_mbps,
            )
        return first

    def probe_all(self, t: float | None = None) -> MonitorSnapshot:
        """Measure every resource on every node.

        A node is reached unless it is down or its sensor is blacked out;
        an unreached node keeps its last reading.  The returned snapshot's
        ``overhead_seconds`` is the sweep's cost; charging it to the
        simulated clock is the caller's responsibility (the runtime engine
        does this), which keeps the monitor reusable for pure observation
        in tests.
        """
        when = self.cluster.clock.now if t is None else t
        num_nodes = self.cluster.num_nodes
        with self.tracer.span("probe", num_nodes=num_nodes) as span:
            reached = self.cluster.live_mask()
            reached[list(self._blackouts)] = False
            readings = np.array(self.cluster.resources(when))
            if self.noise:
                k = int(reached.sum())
                for row, rng, upper in zip(readings, self._rngs, _UPPER):
                    noisy = row[reached] * (
                        1.0 + rng.normal(0.0, self.noise, k)
                    )
                    row[reached] = np.clip(noisy, 0.0, upper)
            stale = np.flatnonzero(~reached)
            previous = self._last
            if previous is None:
                previous = self._first_readings(stale)
            readings[:, stale] = previous[:, stale]
            self._last = readings
            self._failures = np.where(reached, 0, self._failures + 1)
            self.last_probe_time = when
            cpu, memory_mb, bandwidth_mbps = readings
            snapshot = MonitorSnapshot(
                time=when,
                cpu=cpu,
                memory_mb=memory_mb,
                bandwidth_mbps=bandwidth_mbps,
                overhead_seconds=(
                    self.probe_overhead_s + AGGREGATION_S_PER_NODE * num_nodes
                ),
                stale_nodes=tuple(stale.tolist()),
            )
            span.set(
                overhead_seconds=snapshot.overhead_seconds,
                num_stale=len(stale),
            )
            if len(stale):
                span.set(max_consecutive_failures=int(self._failures.max()))
        if self.tracer.enabled and len(stale):
            self.tracer.metrics.counter("probe_failures").inc(len(stale))
        return snapshot
