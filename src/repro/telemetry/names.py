"""Central registry of span and event names the runtime may emit.

The trace schema is an API: the health monitor, the critical-path
analyzer, the dashboard and every ``jq`` one-liner in the docs key on
exact span/event names.  A name typo'd at one call site silently
produces spans nobody aggregates, so *every* name the instrumentation
emits must be declared here first.  ``tools/check_span_names.py`` lints
``src/repro`` for literal names passed to ``Tracer.span`` /
``Tracer.add_span`` / ``Tracer.event`` and fails CI on any literal that
is not registered below.

Dynamically composed names (``health.<kind>``, ``comm.<phase>``) cannot
be checked literally; they must fall under one of the registered
:data:`EVENT_PREFIXES` instead.

This module stays pure data + two predicates so the lint tool can import
it without pulling in the rest of the package.
"""

from __future__ import annotations

__all__ = [
    "SPAN_NAMES",
    "EVENT_NAMES",
    "EVENT_PREFIXES",
    "METRIC_NAMES",
    "is_known_span",
    "is_known_event",
    "is_known_metric",
]

#: Every span name the runtime instrumentation emits.
SPAN_NAMES = frozenset(
    {
        # runtime loop structure
        "run",
        "iteration",
        "advance",
        # sense -> capacity -> partition -> migrate pipeline
        "sense",
        "capacity",
        "partition",
        "split",
        "migrate",
        # per-rank simulated-time tracks
        "compute",
        "ghost-exchange",
        "sync",
        # monitor internals
        "probe",
        "forecast",
        # resilience
        "recover",
        "recovery",
        "checkpoint.save",
        "checkpoint.restore",
        # campaign orchestration (one span per completed grid cell)
        "campaign.cell",
        # artifact-bundle publication recorded at cell commit
        "campaign.artifact.bundle",
    }
)

#: Every exact instant-event name the runtime instrumentation emits.
EVENT_NAMES = frozenset(
    {
        "cluster",
        "load_generator",
        "split",
        "fault.step_aborted",
        "recovery.repartition",
        "recovery.complete",
        # campaign artifact bundles (emitted by the orchestrator tracer)
        "campaign.artifact.written",
        # live progress-log records (written by ProgressLog, mirrored
        # here so stream consumers share one registry with the tracer)
        "live.cell_started",
        "live.cell_finished",
        "live.cell_failed",
        "live.heartbeat",
        # forecaster cold-start degradation (last-value fallback taken)
        "forecast.cold",
        # learned-policy decision points (repro.learn)
        "learn.sense_interval",
        "learn.gate",
        "learn.capacity_forecast",
        # decision-provenance ledger mirrors (repro.learn.audit): one
        # event per ledgered record, same fields minus the arrays
        "decision.gate",
        "decision.sense_interval",
        "decision.forecast",
        "decision.recover",
        "decision.prediction",
        "decision.outcome",
    }
)

#: Prefixes under which dynamically composed event names are sanctioned
#: (``tracer.event(f"health.{kind}", ...)`` and friends).
EVENT_PREFIXES = (
    "health.",
    "fault.",
    "recovery.",
    "comm.",
    "checkpoint.",
    "campaign.",
    "live.",
    "forecast.",
    "learn.",
    "decision.",
)

#: Every metric name (counter, gauge or histogram) the instrumentation
#: creates.  The OpenMetrics endpoint and the dashboard key on exact
#: metric names, so they are registered and linted exactly like span
#: names.
METRIC_NAMES = frozenset(
    {
        # runtime counters
        "boxes_split",
        "evacuated_bytes",
        "iterations",
        "migration_bytes",
        "migration_seconds",
        "num_recoveries",
        "num_repartitions",
        "num_sensings",
        "partition_calls",
        "probe_cost_seconds",
        "probe_failures",
        "total_sim_seconds",
        # runtime gauges
        "node_capacity",
        "node_cpu_available",
        "node_utilization",
        "sensing_staleness_seconds",
        # runtime histograms
        "iteration_seconds",
        "phase_sim_seconds",
        "residual_imbalance_pct",
        "step_seconds",
        # communication accounting
        "comm.bytes_total",
        "comm.collective_seconds",
        "comm.derated_bytes_total",
        "comm.messages_total",
        "comm.phase_seconds",
        # campaign orchestration
        "campaign.artifact_bytes",
        "campaign.phase_sim_seconds",
        "campaign.cell_sim_seconds",
        "campaign.cell_wall_seconds",
        "campaign.cells",
        "campaign.cells_completed",
        "campaign.cells_failed",
        "campaign.cells_running",
        "campaign.cells_skipped",
        "campaign.complete",
        "campaign.health_events",
        "campaign.progress_events",
        "campaign.worst_imbalance_pct",
        # HTTP serving layer
        "serve.cache_hits",
        "serve.cache_misses",
        "serve.requests",
        # learned policies (repro.learn)
        "learn.observations",
        "learn.gate_repartitions",
        "learn.gate_skips",
        "learn.sensing_interval",
        "learn.capacity_drift_rate",
        # decision provenance (repro.learn.audit): ledger volume plus
        # the reconciler's calibration and regret scores
        "decision.records",
        "decision.calibration_coverage",
        "decision.calibration_samples",
        "decision.cumulative_regret_seconds",
        "decision.oracle_agreement_rate",
    }
)


def is_known_span(name: str) -> bool:
    """Whether ``name`` is a registered span name."""
    return name in SPAN_NAMES


def is_known_event(name: str) -> bool:
    """Whether ``name`` is a registered event name or prefixed family."""
    return name in EVENT_NAMES or name.startswith(EVENT_PREFIXES)


def is_known_metric(name: str) -> bool:
    """Whether ``name`` is a registered metric name."""
    return name in METRIC_NAMES
