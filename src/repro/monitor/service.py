"""The :class:`ResourceMonitor` facade.

This is the only window the partitioning framework has onto the cluster,
mirroring how the paper's framework only saw its testbed through NWS:

- :meth:`ResourceMonitor.probe_all` measures CPU availability, free memory
  and bandwidth on every node and returns a :class:`MonitorSnapshot`; the
  snapshot carries ``overhead_seconds`` -- the paper reports ~0.5 s per node
  to probe NWS and compute the relative capacity (section 6.1.4) -- which
  the runtime charges to simulated time.
- :meth:`ResourceMonitor.forecast_all` returns the forecaster suite's
  prediction instead of the raw measurement (NWS semantics).  With the
  default ``last`` forecaster this equals the latest probe.
- Failed probes (injected, node down, or sensor blacked out) fall back to
  the node's last known reading, are counted in ``snapshot.stale_nodes``,
  and accumulate per-node *consecutive* sweep-failure counts on
  ``snapshot.failure_counts`` -- persistent sensor loss is visible, not
  silently absorbed.
- With a :class:`~repro.resilience.policy.ProbeRetryPolicy` attached, a
  failed probe is retried in-sweep with exponential backoff (the delays
  are charged to the sweep's overhead), and consecutive failures escalate
  ``healthy -> stale -> suspect -> evicted`` with ``fault.*`` /
  ``recovery.*`` telemetry events at each transition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.cluster import Cluster
from repro.monitor.forecasting import Forecaster, make_forecaster
from repro.monitor.sensors import METRICS, MetricSensor
from repro.resilience.policy import NodeProbeStatus, ProbeRetryPolicy
from repro.telemetry.spans import NULL_TRACER
from repro.util.errors import MonitorError

__all__ = ["MonitorSnapshot", "ResourceMonitor"]

#: Probe + capacity-computation cost per node (seconds), from section 6.1.4.
DEFAULT_PROBE_OVERHEAD_S = 0.5


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
    #: Per-node count of *consecutive* sweeps whose probe failed (0 =
    #: healthy).  Unlike ``stale_nodes`` -- this sweep only -- the counts
    #: expose persistent sensor loss to the escalation policy and the
    #: health monitor.  Empty tuple when the monitor predates the sweep
    #: bookkeeping (e.g. hand-built snapshots in tests).
    failure_counts: tuple[int, ...] = field(default=())

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
        sweep costs ``probe_overhead_s + aggregation_s_per_node * N``, not
        ``0.5 * N``.
    aggregation_s_per_node:
        Serial cost of collecting and folding each node's answer at the
        querying process.
    noise:
        Relative measurement noise sigma applied by each sensor.
    failure_rate:
        Per-probe failure probability (failure injection).
    forecaster:
        Forecaster kind for :meth:`forecast_all`:
        ``last | mean | median | ar | adaptive``.
    seed:
        Base seed for sensor noise streams.
    tracer:
        Telemetry sink for probe spans (no-op by default; the runtime
        attaches its tracer when tracing is enabled).
    retry_policy:
        Optional :class:`~repro.resilience.policy.ProbeRetryPolicy`.  When
        set, failed probes retry in-sweep with backoff and consecutive
        failures escalate to suspect/evicted status; when ``None`` the
        monitor keeps the original carry-forward-only behaviour.
    """

    def __init__(
        self,
        cluster: Cluster,
        probe_overhead_s: float = DEFAULT_PROBE_OVERHEAD_S,
        aggregation_s_per_node: float = 0.02,
        noise: float = 0.0,
        failure_rate: float = 0.0,
        forecaster: str = "last",
        seed: int = 0,
        tracer=NULL_TRACER,
        retry_policy: ProbeRetryPolicy | None = None,
    ):
        if probe_overhead_s < 0:
            raise MonitorError(f"negative probe overhead {probe_overhead_s}")
        if aggregation_s_per_node < 0:
            raise MonitorError(
                f"negative aggregation cost {aggregation_s_per_node}"
            )
        self.cluster = cluster
        self.probe_overhead_s = probe_overhead_s
        self.aggregation_s_per_node = aggregation_s_per_node
        self.forecaster_kind = forecaster
        self.tracer = tracer
        self._sensors = {
            metric: MetricSensor(
                cluster, metric, noise=noise, failure_rate=failure_rate,
                seed=seed + i,
            )
            for i, metric in enumerate(METRICS)
        }
        # One forecaster per (metric, node).
        self._forecasters: dict[str, list[Forecaster]] = {
            metric: [make_forecaster(forecaster) for _ in range(cluster.num_nodes)]
            for metric in METRICS
        }
        self._last_values: dict[str, list[float | None]] = {
            metric: [None] * cluster.num_nodes for metric in METRICS
        }
        self.num_probes = 0
        self.last_probe_time: float | None = None
        self.retry_policy = retry_policy
        #: Nodes whose sensors are blacked out (fault injection): the node
        #: may be computing fine, but every probe of it fails.
        self._blackouts: set[int] = set()
        self._consecutive_failures = [0] * cluster.num_nodes
        self._status = [NodeProbeStatus.HEALTHY] * cluster.num_nodes
        self._retry_overhead_s = 0.0

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
    def _read_sensor(self, metric: str, node: int, t: float | None) -> float:
        """One probe attempt; unreachable nodes fail like dead sensors."""
        if node in self._blackouts:
            raise MonitorError(f"sensor blackout on node {node}")
        if not self.cluster.is_up(node):
            raise MonitorError(f"node {node} is down; probe timed out")
        return self._sensors[metric].probe(node, t).value

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
                if self.retry_policy is not None:
                    for attempt in range(1, self.retry_policy.max_retries + 1):
                        self._retry_overhead_s += (
                            self.retry_policy.backoff.delay(node, attempt)
                        )
                        try:
                            value = self._read_sensor(metric, node, t)
                            break
                        except MonitorError:
                            continue
            if value is None:
                prev = self._last_values[metric][node]
                if prev is None:
                    # Never measured: fall back to an optimistic default so
                    # the capacity calculator still has something to chew on.
                    extract, _ = METRICS[metric]
                    value = float(extract(self.cluster.state_of(node, 0.0)))
                else:
                    value = prev
                stale.add(node)
            self._last_values[metric][node] = value
            self._forecasters[metric][node].update(value)
            values[node] = value
        return values

    def sweep_overhead_seconds(self) -> float:
        """Cost of one full probe sweep (concurrent probes + aggregation)."""
        return (
            self.probe_overhead_s
            + self.aggregation_s_per_node * self.cluster.num_nodes
        )

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

    def probe_all(self, t: float | None = None) -> MonitorSnapshot:
        """Measure every metric on every node.

        The returned snapshot's ``overhead_seconds`` is
        :meth:`sweep_overhead_seconds`; charging it to the simulated clock
        is the caller's responsibility (the runtime engine does this), which
        keeps the monitor reusable for pure observation in tests.
        """
        when = self.cluster.clock.now if t is None else t
        with self.tracer.span(
            "probe", num_nodes=self.cluster.num_nodes
        ) as span:
            stale: set[int] = set()
            self._retry_overhead_s = 0.0
            cpu = self._probe_metric("cpu", t, stale)
            mem = self._probe_metric("memory", t, stale)
            bw = self._probe_metric("bandwidth", t, stale)
            self.num_probes += 1
            self.last_probe_time = when
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
                overhead_seconds=(
                    self.sweep_overhead_seconds() + self._retry_overhead_s
                ),
                stale_nodes=tuple(sorted(stale)),
                failure_counts=tuple(self._consecutive_failures),
            )
            span.set(
                overhead_seconds=snapshot.overhead_seconds,
                num_stale=len(stale),
            )
            if stale:
                span.set(
                    max_consecutive_failures=max(self._consecutive_failures),
                )
        if self.retry_policy is not None:
            self._escalate()
        if self.tracer.enabled and stale:
            self.tracer.metrics.counter("probe_failures").inc(len(stale))
        return snapshot

    def _escalate(self) -> None:
        """Walk every node up/down the escalation ladder, emitting one
        telemetry event per status transition."""
        esc = self.retry_policy.escalation
        for node in range(self.cluster.num_nodes):
            new = esc.classify(self._consecutive_failures[node])
            old = self._status[node]
            if new is old:
                continue
            self._status[node] = new
            if new is NodeProbeStatus.SUSPECT:
                self.tracer.event(
                    "fault.probe_suspect",
                    node=node,
                    consecutive_failures=self._consecutive_failures[node],
                )
            elif new is NodeProbeStatus.EVICTED:
                self.tracer.event(
                    "fault.probe_evicted",
                    node=node,
                    consecutive_failures=self._consecutive_failures[node],
                )
            elif new is NodeProbeStatus.HEALTHY and old in (
                NodeProbeStatus.SUSPECT,
                NodeProbeStatus.EVICTED,
            ):
                self.tracer.event("recovery.probe_healthy", node=node)

    @property
    def evicted_nodes(self) -> tuple[int, ...]:
        """Nodes the escalation policy has removed from the live set."""
        return tuple(
            k
            for k in range(self.cluster.num_nodes)
            if self._status[k] is NodeProbeStatus.EVICTED
        )

    def trusted_mask(self) -> np.ndarray:
        """Per-node mask: up per cluster ground truth *and* not evicted by
        the escalation policy.  This is the live set capacity
        renormalization uses."""
        mask = self.cluster.live_mask()
        for k in self.evicted_nodes:
            mask[k] = False
        return mask

    def forecast_all(self, t: float | None = None) -> MonitorSnapshot:
        """Forecast every metric from history (requires >= 1 prior probe).

        Costs nothing: forecasts are computed from already-gathered history,
        which is exactly why NWS exists -- consumers can ask for predictions
        between (expensive) measurements.
        """
        when = self.cluster.clock.now if t is None else t
        if self.num_probes == 0:
            raise MonitorError("forecast requested before any probe")
        arrays = {}
        for metric in METRICS:
            arrays[metric] = np.array(
                [f.forecast() for f in self._forecasters[metric]]
            )
        return MonitorSnapshot(
            time=when,
            cpu=np.clip(arrays["cpu"], 0.0, 1.0),
            memory_mb=np.maximum(arrays["memory"], 0.0),
            bandwidth_mbps=np.maximum(arrays["bandwidth"], 0.0),
            overhead_seconds=0.0,
            failure_counts=tuple(self._consecutive_failures),
        )
