"""Telemetry: structured tracing, metrics and trace export for the runtime.

The observability backbone of the adaptive runtime.  Three modules, no
third-party dependencies:

- :mod:`repro.telemetry.spans` -- :class:`Tracer` records nested phase
  spans (sense, capacity, partition, migrate, ghost-exchange, compute,
  sync) over both the host wall clock and the simulated cluster clock;
  :data:`NULL_TRACER` is the zero-cost default everywhere.
- :mod:`repro.telemetry.metrics` -- :class:`MetricsRegistry` of counters,
  gauges and histograms (probe cost, migration bytes, boxes split,
  residual imbalance, per-node utilization, iteration durations).
- :mod:`repro.telemetry.export` -- JSONL event logs, Chrome trace-event
  JSON (loadable in Perfetto, one track per simulated rank) and flat
  metric summaries for the benchmark suite.

On top of the recording layer sit the consumers added in PR 2:

- :mod:`repro.telemetry.analysis` -- :class:`HealthMonitor` subscribes to
  a live tracer via the span-close observer hook, derives per-iteration
  :class:`HealthSnapshot` records (imbalance vs. the paper's 40 % bound,
  capacity drift, sensing staleness, probe-overhead fraction, migration
  churn) and runs pluggable anomaly detectors.
- :mod:`repro.telemetry.report` -- renders a tracer or JSONL trace into a
  single self-contained HTML dashboard (inline SVG, no external
  resources): ``repro report <experiment-or-trace>``.
- :mod:`repro.telemetry.profile` -- performance introspection over the
  span stream: per-iteration critical-path analysis with per-rank slack,
  rank-by-rank communication matrices with derated-link attribution,
  collapsed-stack/speedscope flamegraph export, offline metrics
  reconstruction and OpenMetrics text exposition: ``repro profile``.
- :mod:`repro.telemetry.names` -- the central registry of span/event
  names the instrumentation may emit (linted by
  ``tools/check_span_names.py``).
- :mod:`repro.telemetry.live` -- cross-process campaign observability:
  deterministic worker tracers, per-cell artifact bundles, telemetry
  digests, the append-only progress log, live progress aggregation
  (throughput/ETA) and OpenMetrics reconstruction for ``repro serve``.

Instrumented call sites accept an injectable tracer and default to the
ambient one (:func:`get_active_tracer`), which is the no-op tracer unless
:func:`activate` installed a real one::

    from repro.telemetry import Tracer, activate
    from repro.telemetry.export import write_chrome_trace

    tracer = Tracer()
    with activate(tracer):
        SamrRuntime(workload, cluster, partitioner).run()
    write_chrome_trace(tracer, "run.trace.json")
"""

from repro.telemetry.analysis import (
    PAPER_IMBALANCE_BOUND_PCT,
    AnomalyDetector,
    HealthEvent,
    HealthMonitor,
    HealthSnapshot,
    RollingZScore,
    ThresholdRule,
    analyze_records,
    default_detectors,
    fault_summary,
)
from repro.telemetry.export import (
    aggregate_phases,
    chrome_trace_events,
    metrics_csv,
    metrics_summary,
    write_chrome_trace,
    write_jsonl,
    write_metrics_csv,
    write_metrics_json,
)
from repro.telemetry.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    openmetrics_selfcheck,
)
from repro.telemetry.live import (
    ARTIFACT_FILES,
    EVENTS_NAME,
    LiveProgress,
    ProgressLog,
    TelemetryDigest,
    deterministic_tracer,
    digest_from_record,
    format_sse,
    registry_from_progress,
    write_cell_bundle,
)
from repro.telemetry.names import EVENT_NAMES, EVENT_PREFIXES, SPAN_NAMES
from repro.telemetry.profile import (
    CommMatrix,
    CommProfile,
    IterationPath,
    LiveTop,
    PathSegment,
    RunCriticalPath,
    analyze_critical_path,
    comm_profile,
    flamegraph_collapsed,
    format_critical_path_report,
    registry_from_records,
    speedscope_document,
    write_collapsed,
    write_openmetrics,
    write_speedscope,
)
from repro.telemetry.report import (
    load_trace_records,
    render_dashboard,
    write_dashboard,
)
from repro.telemetry.spans import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceEvent,
    Tracer,
    activate,
    get_active_tracer,
)

__all__ = [
    # spans
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "TraceEvent",
    "activate",
    "get_active_tracer",
    # metrics
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    # export
    "chrome_trace_events",
    "write_chrome_trace",
    "write_jsonl",
    "aggregate_phases",
    "metrics_summary",
    "metrics_csv",
    "write_metrics_csv",
    "write_metrics_json",
    # analysis
    "PAPER_IMBALANCE_BOUND_PCT",
    "AnomalyDetector",
    "HealthEvent",
    "HealthMonitor",
    "HealthSnapshot",
    "RollingZScore",
    "ThresholdRule",
    "analyze_records",
    "default_detectors",
    "fault_summary",
    # report
    "load_trace_records",
    "render_dashboard",
    "write_dashboard",
    # metrics exposition
    "openmetrics_selfcheck",
    # names registry
    "SPAN_NAMES",
    "EVENT_NAMES",
    "EVENT_PREFIXES",
    # profile
    "PathSegment",
    "IterationPath",
    "RunCriticalPath",
    "analyze_critical_path",
    "format_critical_path_report",
    "CommMatrix",
    "CommProfile",
    "comm_profile",
    "flamegraph_collapsed",
    "speedscope_document",
    "registry_from_records",
    "write_collapsed",
    "write_speedscope",
    "write_openmetrics",
    "LiveTop",
    # live campaign observability
    "ARTIFACT_FILES",
    "EVENTS_NAME",
    "LiveProgress",
    "ProgressLog",
    "TelemetryDigest",
    "deterministic_tracer",
    "digest_from_record",
    "format_sse",
    "registry_from_progress",
    "write_cell_bundle",
]
