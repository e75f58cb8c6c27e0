"""The per-node probe sweep the columnar monitor replaced.

:meth:`ResourceMonitor.probe_all` reads each resource as one column of
:meth:`Cluster.resources`.  Before that it asked one sensor per resource
for one node at a time, and each answer re-evaluated the whole load
generator table through ``Cluster.state_of``.  The code below is that
sweep, copied verbatim but for names and for the retry, failure-injection
and forecaster branches, which no longer exist:

- :func:`cpu_share_under_load` and :func:`state_at` are the scalar state
  formulas (``Cluster._state_at``);
- :class:`MetricSensor` is one resource's sensor with its own noise stream;
- :class:`SweepOracle` is the monitor's node-by-node sweep over them.

They are the oracle of ``tests/monitor/test_column_sweep.py``;
``tests/cluster/test_node_loadgen.py`` tests :func:`cpu_share_under_load`
itself.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.cluster.cluster import OS_BASE_MEMORY_MB, Cluster
from repro.cluster.node import NodeState
from repro.monitor.service import DEFAULT_PROBE_OVERHEAD_S, MonitorSnapshot
from repro.telemetry.spans import NULL_TRACER
from repro.util.errors import MonitorError, SimulationError
from repro.util.rng import make_rng


def cpu_share_under_load(load_level: float, os_overhead: float = 0.0) -> float:
    """Fraction of CPU available to a new process under ``load_level``
    competing load units, after subtracting the OS background share."""
    if load_level < 0:
        raise SimulationError(f"negative load level {load_level}")
    share = (1.0 - os_overhead) / (1.0 + load_level)
    return max(0.0, min(1.0, share))


def state_at(
    cluster: Cluster, node: int, level: float, mem_used: float, bw_used: float
) -> NodeState:
    if node in cluster._down_since:
        # A crashed node delivers nothing -- no CPU, no memory, no NIC.
        return NodeState(
            cpu_available=0.0,
            free_memory_mb=0.0,
            bandwidth_mbps=0.0,
            load_level=level,
        )
    spec = cluster.nodes[node]
    mem_total = OS_BASE_MEMORY_MB + mem_used
    bw_share = max(0.05, 1.0 - bw_used)  # >= 5% stays deliverable
    bw_share *= cluster._link_derate.get(node, 1.0)
    return NodeState(
        cpu_available=cpu_share_under_load(level, spec.os_overhead),
        free_memory_mb=max(0.0, spec.memory_mb - mem_total),
        bandwidth_mbps=spec.bandwidth_mbps * bw_share,
        load_level=level,
    )


def state_of(cluster: Cluster, node: int, t: float | None = None) -> NodeState:
    """Ground-truth resource state of one node."""
    cluster._check_node(node)
    t = cluster.clock.now if t is None else t
    load, mem_used, bw_used = cluster._node_sums(t)
    return state_at(
        cluster,
        node,
        float(load[node]),
        float(mem_used[node]),
        float(bw_used[node]),
    )


#: Metric name -> (extractor from NodeState, clamp bounds)
METRICS: dict[str, tuple[Callable, tuple[float, float]]] = {
    "cpu": (lambda st: st.cpu_available, (0.0, 1.0)),
    "memory": (lambda st: st.free_memory_mb, (0.0, float("inf"))),
    "bandwidth": (lambda st: st.bandwidth_mbps, (0.0, float("inf"))),
}


class MetricSensor:
    """Reads one metric across all nodes of a cluster."""

    def __init__(
        self, cluster: Cluster, metric: str, noise: float = 0.0, seed: int = 0
    ):
        self.cluster = cluster
        self.metric = metric
        self.noise = noise
        self._rng = make_rng(seed)

    def probe(self, node: int, t: float | None = None) -> float:
        try:
            state = state_of(self.cluster, node, t)
        except SimulationError as exc:
            raise MonitorError(str(exc)) from exc
        extract, (lo, hi) = METRICS[self.metric]
        value = float(extract(state))
        if self.noise:
            value *= 1.0 + float(self._rng.normal(0.0, self.noise))
            value = float(np.clip(value, lo, hi))
        return value


class SweepOracle:
    """The monitor's node-by-node sweep (no retry policy)."""

    def __init__(
        self,
        cluster: Cluster,
        probe_overhead_s: float = DEFAULT_PROBE_OVERHEAD_S,
        aggregation_s_per_node: float = 0.02,
        noise: float = 0.0,
        seed: int = 0,
        tracer=NULL_TRACER,
    ):
        self.cluster = cluster
        self.probe_overhead_s = probe_overhead_s
        self.aggregation_s_per_node = aggregation_s_per_node
        self.tracer = tracer
        self._sensors = {
            metric: MetricSensor(cluster, metric, noise=noise, seed=seed + i)
            for i, metric in enumerate(METRICS)
        }
        self._last_values: dict[str, list[float | None]] = {
            metric: [None] * cluster.num_nodes for metric in METRICS
        }
        self._blackouts: set[int] = set()
        self._consecutive_failures = [0] * cluster.num_nodes

    def blackout_sensor(self, node: int) -> None:
        """All probes of ``node`` fail until :meth:`restore_sensor`."""
        if not 0 <= node < self.cluster.num_nodes:
            raise MonitorError(f"unknown node index {node}")
        self._blackouts.add(node)

    def restore_sensor(self, node: int) -> None:
        """Lift a sensor blackout; idempotent."""
        self._blackouts.discard(node)

    def _read_sensor(self, metric: str, node: int, t: float | None) -> float:
        """One probe attempt; unreachable nodes fail like dead sensors."""
        if node in self._blackouts:
            raise MonitorError(f"sensor blackout on node {node}")
        if not self.cluster.is_up(node):
            raise MonitorError(f"node {node} is down; probe timed out")
        return self._sensors[metric].probe(node, t)

    def _probe_metric(
        self, metric: str, t: float | None, stale: set[int]
    ) -> np.ndarray:
        values = np.empty(self.cluster.num_nodes)
        for node in range(self.cluster.num_nodes):
            value: float | None
            try:
                value = self._read_sensor(metric, node, t)
            except MonitorError:
                value = None
            if value is None:
                prev = self._last_values[metric][node]
                if prev is None:
                    # Never measured: fall back to an optimistic default so
                    # the capacity calculator still has something to chew on.
                    extract, _ = METRICS[metric]
                    value = float(extract(state_of(self.cluster, node, 0.0)))
                else:
                    value = prev
                stale.add(node)
            self._last_values[metric][node] = value
            values[node] = value
        return values

    def sweep_overhead_seconds(self) -> float:
        """Cost of one full probe sweep (concurrent probes + aggregation)."""
        return (
            self.probe_overhead_s
            + self.aggregation_s_per_node * self.cluster.num_nodes
        )

    def probe_all(self, t: float | None = None) -> MonitorSnapshot:
        when = self.cluster.clock.now if t is None else t
        with self.tracer.span(
            "probe", num_nodes=self.cluster.num_nodes
        ) as span:
            stale: set[int] = set()
            cpu = self._probe_metric("cpu", t, stale)
            mem = self._probe_metric("memory", t, stale)
            bw = self._probe_metric("bandwidth", t, stale)
            for node in range(self.cluster.num_nodes):
                if node in stale:
                    self._consecutive_failures[node] += 1
                else:
                    self._consecutive_failures[node] = 0
            snapshot = MonitorSnapshot(
                time=when,
                cpu=cpu,
                memory_mb=mem,
                bandwidth_mbps=bw,
                overhead_seconds=self.sweep_overhead_seconds() + 0.0,
                stale_nodes=tuple(sorted(stale)),
            )
            span.set(
                overhead_seconds=snapshot.overhead_seconds,
                num_stale=len(stale),
            )
            if stale:
                span.set(
                    max_consecutive_failures=max(self._consecutive_failures),
                )
        if self.tracer.enabled and stale:
            self.tracer.metrics.counter("probe_failures").inc(len(stale))
        return snapshot
