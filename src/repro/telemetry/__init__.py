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
- :mod:`repro.telemetry.model` -- :class:`TraceModel`, a trace grouped by
  run once, which every reader below takes or builds from its source.
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

from repro._lazy import lazy_exports as _lazy_exports

#: public name -> the submodule that defines it, imported on first access
#: (PEP 562): a caller that wants ``Tracer`` does not load the dashboard.
_EXPORTS = {
    # spans
    "Tracer": "spans",
    "NullTracer": "spans",
    "NULL_TRACER": "spans",
    "Span": "spans",
    "TraceEvent": "spans",
    "activate": "spans",
    "get_active_tracer": "spans",
    # metrics
    "MetricsRegistry": "metrics",
    "NullMetricsRegistry": "metrics",
    "NULL_REGISTRY": "metrics",
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    # export
    "chrome_trace_events": "export",
    "write_chrome_trace": "export",
    "write_jsonl": "export",
    "aggregate_phases": "export",
    "metrics_summary": "export",
    "metrics_csv": "export",
    "write_metrics_csv": "export",
    "write_metrics_json": "export",
    # analysis
    "PAPER_IMBALANCE_BOUND_PCT": "analysis",
    "AnomalyDetector": "analysis",
    "HealthEvent": "analysis",
    "HealthMonitor": "analysis",
    "HealthSnapshot": "analysis",
    "RollingZScore": "analysis",
    "ThresholdRule": "analysis",
    "analyze_records": "analysis",
    "default_detectors": "analysis",
    "fault_summary": "analysis",
    # trace model
    "TraceModel": "model",
    "load_trace_records": "model",
    # report
    "render_dashboard": "report",
    "write_dashboard": "report",
    # metrics exposition
    "openmetrics_selfcheck": "metrics",
    # names registry
    "SPAN_NAMES": "names",
    "EVENT_NAMES": "names",
    "EVENT_PREFIXES": "names",
    # profile
    "PathSegment": "profile",
    "IterationPath": "profile",
    "RunCriticalPath": "profile",
    "analyze_critical_path": "profile",
    "format_critical_path_report": "profile",
    "CommMatrix": "profile",
    "CommProfile": "profile",
    "comm_profile": "profile",
    "flamegraph_collapsed": "profile",
    "speedscope_document": "profile",
    "registry_from_records": "profile",
    "write_collapsed": "profile",
    "write_speedscope": "profile",
    "write_openmetrics": "profile",
    "LiveTop": "profile",
    # live campaign observability
    "ARTIFACT_FILES": "live",
    "EVENTS_NAME": "live",
    "LiveProgress": "live",
    "ProgressLog": "live",
    "TelemetryDigest": "live",
    "deterministic_tracer": "live",
    "digest_from_record": "live",
    "format_sse": "live",
    "registry_from_progress": "live",
    "write_cell_bundle": "live",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
