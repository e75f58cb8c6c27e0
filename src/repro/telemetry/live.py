"""Live campaign observability: cross-process telemetry shipping.

Campaign cells execute in fork workers whose tracers die with the
process, so the richest observability in the repo -- critical-path
analysis, comm matrices, flamegraphs -- used to stop at the campaign
boundary.  This module is the bridge:

- :func:`deterministic_tracer` builds the tracer a worker runs its cell
  under: wall readings pinned to ``0.0`` so every derived artifact is a
  pure function of the cell spec (the campaign determinism guarantee
  extends from result records to trace artifacts).
- :func:`write_cell_bundle` persists a per-cell **artifact bundle**
  (span/event JSONL, collapsed-stack flamegraph, critical-path/profile
  summary JSON) into ``artifacts/<cell-key>/`` of the campaign
  directory, each file published atomically.  The bundle doubles as the
  execution-history store the learned-cost-model roadmap item consumes.
- :class:`TelemetryDigest` / :func:`digest_from_record` compress a
  finished cell into the few hundred bytes the parent folds into its
  campaign-level :class:`~repro.telemetry.metrics.MetricsRegistry`.
- :class:`ProgressLog` is the append-only ``events.jsonl`` progress log
  (epoch wall clock, one JSON object per line, O_APPEND single-line
  writes so concurrent workers interleave without tearing).
- :class:`LiveProgress` folds progress records into completion counts,
  throughput and an ETA -- shared by the SSE route in
  :mod:`repro.campaign.serve` and the ``repro campaign watch`` CLI.
- :func:`registry_from_progress` rebuilds a metrics registry from a
  progress log for the ``GET /metrics`` OpenMetrics endpoint.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.telemetry.export import _coerce, _jsonable, aggregate_phases, jsonl_lines
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.model import TraceModel
from repro.telemetry.profile import (
    analyze_critical_path,
    comm_profile,
    flamegraph_collapsed,
    registry_from_records,
)
from repro.telemetry.spans import NullTracer, Tracer
from repro.util import durable

__all__ = [
    "EVENTS_NAME",
    "ARTIFACT_FILES",
    "LIVE_EVENT_NAMES",
    "deterministic_tracer",
    "write_cell_bundle",
    "TelemetryDigest",
    "digest_from_record",
    "ProgressLog",
    "LiveProgress",
    "registry_from_progress",
    "format_sse",
]

#: The append-only progress log inside a campaign directory.
EVENTS_NAME = "events.jsonl"

#: Artifact kind -> file name inside ``artifacts/<cell-key>/``.  The kind
#: is also the last URL segment of the serve route
#: ``/campaigns/<id>/cells/<key>/artifacts/<kind>``.
ARTIFACT_FILES = {
    "trace": "trace.jsonl",
    "flamegraph": "flamegraph.txt",
    "profile": "profile.json",
}

#: Content types the HTTP layer serves each artifact kind with.
ARTIFACT_CONTENT_TYPES = {
    "trace": "application/x-ndjson; charset=utf-8",
    "flamegraph": "text/plain; charset=utf-8",
    "profile": "application/json; charset=utf-8",
}

#: Progress-log record names the SSE stream forwards to clients.
LIVE_EVENT_NAMES = frozenset(
    {
        "campaign.started",
        "campaign.completed",
        "live.cell_started",
        "live.cell_finished",
        "live.cell_failed",
    }
)

#: Bundle format version stamped into every ``profile.json``.
BUNDLE_SCHEMA_VERSION = 1


def _zero_wall() -> float:
    return 0.0


def deterministic_tracer() -> Tracer:
    """A tracer whose wall clock always reads ``0.0``.

    Span records carry ``start_wall``/``end_wall`` fields; a worker that
    traced its cell against ``time.perf_counter`` would bake host timing
    into the artifact bundle and break the byte-identity guarantee across
    worker counts and resumes.  Simulated time is untouched -- it is the
    quantity every analysis in :mod:`repro.telemetry.profile` runs on.
    """
    return Tracer(wall_clock=_zero_wall)


# ----------------------------------------------------------------------
# Artifact bundles
# ----------------------------------------------------------------------
def write_cell_bundle(
    tracer: Tracer | NullTracer,
    directory: str | Path,
    cell_key: str | None = None,
) -> dict[str, Any]:
    """Persist one cell's artifact bundle; return a manifest.

    Three files, all derived from the cell tracer's simulated-time span
    stream and therefore byte-identical for byte-identical cell
    executions:

    - ``trace.jsonl``: every span and event (the execution history);
    - ``flamegraph.txt``: collapsed stacks over simulated self time;
    - ``profile.json``: critical path, comm matrices, per-phase totals
      and the offline-reconstructed metrics registry.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    # Built from records, not the tracer, so the metrics are rebuilt from
    # the span stream: the byte-identity guarantee needs that.
    records = [r.to_dict() for r in tracer.spans + tracer.events]
    model = TraceModel(records, tracer.run_labels)

    profile_doc = {
        "schema_version": BUNDLE_SCHEMA_VERSION,
        "cell_key": cell_key,
        "critical_path": [r.to_dict() for r in analyze_critical_path(model)],
        "comm": [p.to_dict() for p in comm_profile(model)],
        "phases": aggregate_phases(tracer, wall=False),
        "metrics": registry_from_records(model).summary(),
    }

    texts = {
        "trace": "".join(jsonl_lines(tracer)),
        "flamegraph": flamegraph_collapsed(model),
        # Every key of the document is a ``str`` already, so no
        # ``_jsonable`` pass is needed before ``sort_keys``.
        "profile": (
            json.dumps(profile_doc, sort_keys=True, indent=1, default=_coerce)
            + "\n"
        ),
    }
    manifest: dict[str, Any] = {"files": {}, "total_bytes": 0}
    for kind, text in sorted(texts.items()):
        # Not fsynced: a bundle is a pure function of its cell, and a cell
        # whose commit did not survive is re-run and rewrites the same bytes.
        nbytes = durable.publish(
            directory / ARTIFACT_FILES[kind], text, sync=False
        )
        manifest["files"][kind] = {
            "path": ARTIFACT_FILES[kind],
            "bytes": nbytes,
        }
        manifest["total_bytes"] += nbytes
    return manifest


# ----------------------------------------------------------------------
# Telemetry digests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TelemetryDigest:
    """What a worker sends home: the cell's telemetry in a few lines.

    Everything here is simulated-clock or structural -- the parent stamps
    wall timings itself -- so the digest stays deterministic alongside
    the record it summarizes.
    """

    cell_key: str
    scenario: str
    partitioner: str
    seed: int
    sim_seconds: float
    phases: dict[str, float] = field(default_factory=dict)
    health: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    artifacts: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "cell_key": self.cell_key,
            "scenario": self.scenario,
            "partitioner": self.partitioner,
            "seed": self.seed,
            "sim_seconds": self.sim_seconds,
            "phases": dict(self.phases),
            "health": dict(self.health),
            "metrics": dict(self.metrics),
            "artifacts": self.artifacts,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TelemetryDigest":
        return cls(
            cell_key=str(data["cell_key"]),
            scenario=str(data.get("scenario", "")),
            partitioner=str(data.get("partitioner", "")),
            seed=int(data.get("seed", 0)),
            sim_seconds=float(data.get("sim_seconds", 0.0)),
            phases=dict(data.get("phases", {})),
            health=dict(data.get("health", {})),
            metrics=dict(data.get("metrics", {})),
            artifacts=data.get("artifacts"),
        )


def digest_from_record(
    record: dict[str, Any], artifacts: dict[str, Any] | None = None
) -> TelemetryDigest:
    """Build a digest from a ``campaign_cell`` record (+ bundle manifest)."""
    metrics = record.get("metrics", {})
    return TelemetryDigest(
        cell_key=str(record.get("cell_key", "")),
        scenario=str(record.get("scenario", "")),
        partitioner=str(record.get("partitioner", "")),
        seed=int(record.get("seed", 0)),
        sim_seconds=float(metrics.get("total_seconds", 0.0)),
        phases={
            name: float(agg.get("sim_seconds", 0.0))
            for name, agg in record.get("phases", {}).items()
        },
        health=dict(record.get("health", {})),
        metrics={
            k: float(v)
            for k, v in metrics.items()
            if isinstance(v, (int, float))
        },
        artifacts=artifacts,
    )


# ----------------------------------------------------------------------
# The progress log
# ----------------------------------------------------------------------
class ProgressLog:
    """Append-only JSONL progress log shared by orchestrator and workers.

    Record shape matches :meth:`TraceEvent.to_dict` so existing trace
    tooling can read the log, except ``wall`` is the epoch clock
    (``time.time()``): the one clock comparable across the orchestrator
    and every worker process, which is what throughput/ETA need.

    Each append is a single ``write()`` of one newline-terminated line on
    a file opened in append mode, so concurrent writers (pool workers
    announcing ``live.cell_started``) interleave whole lines.  Readers
    skip torn or foreign lines rather than failing.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def append(self, name: str, **attributes: Any) -> dict[str, Any]:
        record = {
            "type": "event",
            "name": name,
            "pid": 0,
            "rank": None,
            "wall": time.time(),
            "sim": 0.0,
            "attributes": _jsonable(attributes),
        }
        # Not fsynced: the log reports progress (its counts are stamped
        # from the result store's view); nothing is recovered from it.
        durable.append_line(
            self.path, json.dumps(record, sort_keys=True), sync=False
        )
        return record

    def read(self) -> list[dict[str, Any]]:
        records, _ = self.read_from(0)
        return records

    def read_from(self, offset: int) -> tuple[list[dict[str, Any]], int]:
        """Records starting at byte ``offset``; returns (records, new offset).

        A partial final line (a writer mid-append) is left unconsumed so
        the next poll picks it up whole.  Tail-follow loops call this
        repeatedly with the returned offset.
        """
        return durable.read_rows(self.path, "name", offset)


# ----------------------------------------------------------------------
# Progress aggregation (SSE + watch)
# ----------------------------------------------------------------------
class LiveProgress:
    """Folds progress-log records into counts, throughput and an ETA.

    Completion counts come from the ``completed`` attribute the
    orchestrator stamps on every lifecycle event (the ledger's view), so
    a resumed campaign reports cumulative progress, not just the cells
    executed since the last restart.  Throughput is measured over the
    *current* session only -- finish events observed since the latest
    ``campaign.started`` -- because cells finished before an interruption
    say nothing about today's rate.
    """

    def __init__(self, num_cells: int | None = None):
        self.num_cells = num_cells
        self.completed = 0
        self.failed = 0
        self.running = 0
        self.complete = False
        self.last_event: dict[str, Any] | None = None
        self._session_start: float | None = None
        self._session_finishes: list[float] = []

    # ------------------------------------------------------------------
    def observe(self, record: dict[str, Any]) -> bool:
        """Fold one record; returns whether it was a live/lifecycle event."""
        name = record.get("name")
        if name not in LIVE_EVENT_NAMES:
            return False
        attrs = record.get("attributes") or {}
        wall = float(record.get("wall", 0.0) or 0.0)
        if "num_cells" in attrs:
            self.num_cells = int(attrs["num_cells"])
        if "completed" in attrs:
            self.completed = int(attrs["completed"])
        if "failed" in attrs:
            self.failed = int(attrs["failed"])
        if name == "campaign.started":
            self._session_start = wall
            self._session_finishes = []
            self.running = 0
        elif name == "live.cell_started":
            self.running += 1
        elif name == "live.cell_finished":
            self.running = max(0, self.running - 1)
            self._session_finishes.append(wall)
        elif name == "live.cell_failed":
            self.running = max(0, self.running - 1)
        elif name == "campaign.completed":
            self.complete = True
            self.running = 0
        if (
            self.num_cells is not None
            and self.completed >= self.num_cells
            and self.num_cells > 0
        ):
            self.complete = True
        self.last_event = record
        return True

    # ------------------------------------------------------------------
    @property
    def throughput(self) -> float | None:
        """Cells per wall second over the current session, if measurable."""
        if not self._session_finishes:
            return None
        start = self._session_start
        if start is None:
            start = self._session_finishes[0]
        elapsed = self._session_finishes[-1] - start
        if elapsed <= 0.0:
            return None
        return len(self._session_finishes) / elapsed

    @property
    def eta_seconds(self) -> float | None:
        rate = self.throughput
        if rate is None or self.num_cells is None:
            return None
        remaining = max(0, self.num_cells - self.completed)
        return remaining / rate

    def snapshot(self) -> dict[str, Any]:
        return {
            "num_cells": self.num_cells,
            "completed": self.completed,
            "failed": self.failed,
            "running": self.running,
            "complete": self.complete,
            "throughput_cells_per_s": self.throughput,
            "eta_seconds": self.eta_seconds,
        }

    def render_line(self) -> str:
        """One-line terminal rendering for ``repro campaign watch``."""
        total = self.num_cells
        if total:
            width = 24
            filled = int(round(width * min(1.0, self.completed / total)))
            bar = "#" * filled + "." * (width - filled)
            head = f"[{bar}] {self.completed}/{total} cells"
        else:
            head = f"{self.completed} cells"
        parts = [head]
        if self.failed:
            parts.append(f"{self.failed} failed")
        if self.running:
            parts.append(f"{self.running} running")
        rate = self.throughput
        if rate is not None:
            parts.append(f"{rate:.2f} cells/s")
        eta = self.eta_seconds
        if eta is not None and not self.complete:
            parts.append(f"ETA {eta:.0f}s")
        if self.complete:
            parts.append("complete")
        return ", ".join(parts)


# ----------------------------------------------------------------------
# OpenMetrics over progress logs
# ----------------------------------------------------------------------
def registry_from_progress(
    records: Iterable[dict[str, Any]],
    registry: MetricsRegistry | None = None,
    campaign: str = "campaign",
) -> MetricsRegistry:
    """Fold a progress log into gauges/histograms for ``GET /metrics``.

    Rebuilt per scrape from the append-only log, so the endpoint needs no
    server-side state to survive restarts: the log *is* the state.
    """
    if registry is None:
        registry = MetricsRegistry()
    progress = LiveProgress()
    events = 0
    for record in records:
        events += 1
        progress.observe(record)
        if record.get("name") != "live.cell_finished":
            continue
        attrs = record.get("attributes") or {}
        if "wall_seconds" in attrs:
            registry.histogram(
                "campaign.cell_wall_seconds", campaign=campaign
            ).observe(float(attrs["wall_seconds"]))
        if "sim_seconds" in attrs:
            registry.histogram(
                "campaign.cell_sim_seconds", campaign=campaign
            ).observe(float(attrs["sim_seconds"]))
    registry.counter("campaign.progress_events", campaign=campaign).inc(
        events
    )
    registry.gauge("campaign.cells", campaign=campaign).set(
        float(progress.num_cells or 0)
    )
    registry.gauge("campaign.cells_completed", campaign=campaign).set(
        float(progress.completed)
    )
    registry.gauge("campaign.cells_failed", campaign=campaign).set(
        float(progress.failed)
    )
    registry.gauge("campaign.cells_running", campaign=campaign).set(
        float(progress.running)
    )
    registry.gauge("campaign.complete", campaign=campaign).set(
        1.0 if progress.complete else 0.0
    )
    return registry


# ----------------------------------------------------------------------
# Server-sent events framing
# ----------------------------------------------------------------------
def format_sse(event: str, payload: Any) -> bytes:
    """One SSE frame: ``event:`` + single-line ``data:`` JSON."""
    data = json.dumps(_jsonable(payload), sort_keys=True)
    return f"event: {event}\ndata: {data}\n\n".encode("utf-8")

