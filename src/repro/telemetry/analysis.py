"""Runtime health: per-iteration snapshots and anomaly detection.

The tracer records *what happened*; this module decides *whether it was
healthy*.  :class:`HealthMonitor` subscribes to a live :class:`Tracer`
through its span-close observer hook (or replays an exported JSONL trace)
and derives one :class:`HealthSnapshot` per iteration of each traced run:

- residual load imbalance against the paper's 40 % bound (section 4: the
  partitioning framework keeps imbalance "within 40 %" on a loaded
  heterogeneous cluster);
- per-node capacity drift between consecutive sensings;
- sensing staleness -- simulated seconds since the monitor last probed;
- probe-overhead fraction -- cumulative sensing cost over elapsed time
  (the ~0.5 s/node NWS query cost of section 6.1.4);
- migration churn per iteration;
- a per-phase time breakdown (compute / ghost-exchange / sync).

Snapshots feed pluggable anomaly detectors.  Two families ship:
:class:`ThresholdRule` (a predicate on one snapshot field) and
:class:`RollingZScore` (iteration-duration spikes against a rolling
window).  Detected anomalies become structured :class:`HealthEvent`
records, which the monitor also emits into the trace as instant
``health.<kind>`` events so every exporter -- JSONL, Chrome trace, the
HTML dashboard -- carries them.

Everything is pure stdlib; like the rest of the telemetry package this
module must stay importable anywhere.  A :class:`HealthMonitor` that is
never attached costs nothing, and attaching one does not perturb the
simulation: analysis is read-only over closed spans.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.telemetry.spans import NullTracer, Span, Tracer

__all__ = [
    "PAPER_IMBALANCE_BOUND_PCT",
    "HealthSnapshot",
    "HealthEvent",
    "AnomalyDetector",
    "ThresholdRule",
    "RollingZScore",
    "default_detectors",
    "HealthMonitor",
    "analyze_records",
    "fault_summary",
]

#: The paper's residual-imbalance bound: the heterogeneous partitioner
#: keeps per-rank imbalance within 40 % on a loaded cluster (section 4).
PAPER_IMBALANCE_BOUND_PCT = 40.0

#: Phase names folded into a snapshot's per-phase breakdown.
_RANK_PHASES = ("compute", "ghost-exchange", "sync")


@dataclass(slots=True)
class HealthSnapshot:
    """Derived health state at the end of one iteration.

    ``None`` fields mean the trace did not carry the signal (e.g. an
    iteration before the first repartition has no imbalance yet).
    """

    pid: int
    run_label: str
    iteration: int
    start_sim: float
    end_sim: float
    duration_s: float
    epoch: int | None = None
    imbalance_pct: float | None = None
    max_imbalance_pct: float | None = None
    staleness_s: float | None = None
    probe_overhead_fraction: float = 0.0
    sensing_seconds_total: float = 0.0
    migration_bytes: float = 0.0
    migration_seconds: float = 0.0
    capacities: tuple[float, ...] | None = None
    capacity_drift: float | None = None
    phase_seconds: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "run_label": self.run_label,
            "iteration": self.iteration,
            "epoch": self.epoch,
            "start_sim": self.start_sim,
            "end_sim": self.end_sim,
            "duration_s": self.duration_s,
            "imbalance_pct": self.imbalance_pct,
            "max_imbalance_pct": self.max_imbalance_pct,
            "staleness_s": self.staleness_s,
            "probe_overhead_fraction": self.probe_overhead_fraction,
            "sensing_seconds_total": self.sensing_seconds_total,
            "migration_bytes": self.migration_bytes,
            "migration_seconds": self.migration_seconds,
            "capacities": (
                None if self.capacities is None else list(self.capacities)
            ),
            "capacity_drift": self.capacity_drift,
            "phase_seconds": dict(self.phase_seconds),
        }


@dataclass(slots=True)
class HealthEvent:
    """One detected anomaly (or notable condition)."""

    kind: str  # e.g. "imbalance_bound", "duration_spike"
    severity: str  # "info" | "warning" | "critical"
    message: str
    pid: int
    iteration: int
    sim_time: float
    attributes: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "message": self.message,
            "pid": self.pid,
            "iteration": self.iteration,
            "sim_time": self.sim_time,
            "attributes": dict(self.attributes),
        }


class AnomalyDetector:
    """Base detector: sees each run's snapshots in iteration order.

    Subclasses override :meth:`observe`; stateful detectors also override
    :meth:`reset`, which the monitor calls once per traced run so rolling
    state never leaks across runs.
    """

    def reset(self) -> None:
        pass

    def observe(self, snapshot: HealthSnapshot) -> list[HealthEvent]:
        raise NotImplementedError


class ThresholdRule(AnomalyDetector):
    """Flag snapshots whose ``field`` exceeds (or dips below) a bound.

    Parameters
    ----------
    field_name:
        Attribute of :class:`HealthSnapshot` to test; ``None`` values
        never fire.
    threshold:
        The bound.
    kind / severity / message:
        Event identity; ``message`` may use ``{value}`` and
        ``{threshold}`` placeholders.
    above:
        ``True`` (default) fires on ``value > threshold``; ``False`` on
        ``value < threshold``.
    warmup:
        Skip snapshots whose iteration index is below this.  Cumulative
        ratios (probe-overhead fraction) are trivially extreme in the
        first iterations; a warmup keeps them from crying wolf at t=0.
    """

    def __init__(
        self,
        field_name: str,
        threshold: float,
        kind: str,
        severity: str = "warning",
        message: str | None = None,
        above: bool = True,
        warmup: int = 0,
    ):
        self.field_name = field_name
        self.threshold = float(threshold)
        self.kind = kind
        self.severity = severity
        self.above = above
        self.warmup = warmup
        self.message = message or (
            f"{field_name} {'above' if above else 'below'} "
            f"{{threshold:g}} (got {{value:.3g}})"
        )

    def observe(self, snapshot: HealthSnapshot) -> list[HealthEvent]:
        if snapshot.iteration < self.warmup:
            return []
        value = getattr(snapshot, self.field_name, None)
        if value is None:
            return []
        value = float(value)
        fired = value > self.threshold if self.above else value < self.threshold
        if not fired:
            return []
        return [
            HealthEvent(
                kind=self.kind,
                severity=self.severity,
                message=self.message.format(
                    value=value, threshold=self.threshold
                ),
                pid=snapshot.pid,
                iteration=snapshot.iteration,
                sim_time=snapshot.end_sim,
                attributes={
                    "field": self.field_name,
                    "value": value,
                    "threshold": self.threshold,
                },
            )
        ]


class RollingZScore(AnomalyDetector):
    """Spike detector: z-score of a field against a rolling window.

    Defaults target iteration duration -- a sudden slowdown means the
    decomposition no longer matches the cluster (external load landed, a
    node degraded) before the imbalance metric can even be recomputed at
    the next regrid.

    Two guards keep a deterministic simulation from false-positives:

    - the sigma used is floored at ``rel_floor`` of the rolling mean, so
      a zero-variance window (identical iterations) cannot produce
      astronomic z-scores for sub-percent wiggles;
    - when snapshots carry an ``epoch`` (the runtime stamps one per
      repartition), the window resets on epoch change -- a regrid
      legitimately shifts iteration cost, and comparing across the shift
      would flag every regrid as an anomaly.
    """

    def __init__(
        self,
        field_name: str = "duration_s",
        window: int = 8,
        z_threshold: float = 3.0,
        min_history: int = 3,
        rel_floor: float = 0.05,
        kind: str | None = None,
        severity: str = "warning",
        reset_on_epoch: bool = True,
    ):
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if min_history < 2:
            raise ValueError(f"min_history must be >= 2, got {min_history}")
        self.field_name = field_name
        self.window = window
        self.z_threshold = float(z_threshold)
        self.min_history = min_history
        self.rel_floor = float(rel_floor)
        self.kind = kind or f"{field_name}_spike"
        self.severity = severity
        self.reset_on_epoch = reset_on_epoch
        self._history: list[float] = []
        self._epoch: int | None = None

    def reset(self) -> None:
        self._history = []
        self._epoch = None

    def observe(self, snapshot: HealthSnapshot) -> list[HealthEvent]:
        value = getattr(snapshot, self.field_name, None)
        if value is None:
            return []
        if self.reset_on_epoch and snapshot.epoch != self._epoch:
            self._epoch = snapshot.epoch
            self._history = []
        value = float(value)
        events: list[HealthEvent] = []
        history = self._history
        if len(history) >= self.min_history:
            mean = sum(history) / len(history)
            var = sum((x - mean) ** 2 for x in history) / len(history)
            sigma = max(math.sqrt(var), abs(mean) * self.rel_floor, 1e-12)
            z = (value - mean) / sigma
            if abs(z) >= self.z_threshold:
                direction = "spike" if z > 0 else "drop"
                events.append(
                    HealthEvent(
                        kind=self.kind,
                        severity=self.severity,
                        message=(
                            f"{self.field_name} {direction}: {value:.4g} is "
                            f"{z:+.1f} sigma from rolling mean {mean:.4g}"
                        ),
                        pid=snapshot.pid,
                        iteration=snapshot.iteration,
                        sim_time=snapshot.end_sim,
                        attributes={
                            "field": self.field_name,
                            "value": value,
                            "zscore": z,
                            "window_mean": mean,
                            "window_sigma": sigma,
                        },
                    )
                )
        history.append(value)
        if len(history) > self.window:
            history.pop(0)
        return events


def default_detectors() -> list[AnomalyDetector]:
    """The stock detector suite, fresh instances each call.

    - mean residual imbalance beyond the paper's 40 % bound (critical --
      the partitioner is no longer delivering its core guarantee);
    - probe overhead above 15 % of elapsed time (the sensing frequency is
      mis-tuned, Table III territory);
    - capacity drift above 0.25 between sensings (the cluster moved a lot
      while we were not looking);
    - iteration-duration spikes at 3 sigma over a rolling window.
    """
    return [
        ThresholdRule(
            "imbalance_pct",
            PAPER_IMBALANCE_BOUND_PCT,
            kind="imbalance_bound",
            severity="critical",
            message=(
                "mean residual imbalance {value:.1f}% exceeds the paper's "
                "{threshold:.0f}% bound"
            ),
        ),
        ThresholdRule(
            "probe_overhead_fraction",
            0.15,
            kind="probe_overhead",
            severity="warning",
            warmup=5,  # the fraction is cumulative; t=0 is always extreme
            message=(
                "sensing overhead is {value:.1%} of elapsed time "
                "(bound {threshold:.0%}); lower the sensing frequency"
            ),
        ),
        ThresholdRule(
            "capacity_drift",
            0.25,
            kind="capacity_drift",
            severity="warning",
            message=(
                "relative capacities moved {value:.2f} (L-inf) between "
                "sensings (bound {threshold:.2f}); sense more often"
            ),
        ),
        RollingZScore("duration_s", kind="duration_spike"),
    ]


# ----------------------------------------------------------------------
def fault_summary(events: Iterable[Any]) -> dict[str, Any]:
    """Aggregate ``fault.*`` / ``recovery.*`` instant events.

    Accepts live :class:`~repro.telemetry.spans.TraceEvent` objects or
    parsed JSONL record dicts (anything with ``name``/``attributes``), so
    the same counters back the attached monitor, the dashboard and the
    ``repro chaos`` report.  ``time_to_recover_s`` collects the per-event
    latency that ``recovery.complete`` carries: simulated seconds from
    detecting the dead rank set to running repartitioned over survivors
    (restore I/O and evacuation included, replayed steps excluded).
    """
    counts: dict[str, int] = {}
    recover_times: list[float] = []
    for ev in events:
        if isinstance(ev, dict):
            if ev.get("type", "event") != "event":
                continue
            name = str(ev.get("name", ""))
            attrs = ev.get("attributes") or {}
        else:
            name = getattr(ev, "name", "")
            attrs = getattr(ev, "attributes", None) or {}
        if not name.startswith(("fault.", "recovery.")):
            continue
        counts[name] = counts.get(name, 0) + 1
        if name == "recovery.complete":
            latency = attrs.get("recovery_seconds")
            if latency is not None:
                recover_times.append(float(latency))
    num_faults = sum(n for k, n in counts.items() if k.startswith("fault."))
    num_recoveries = sum(
        n for k, n in counts.items() if k.startswith("recovery.")
    )
    return {
        "counts": counts,
        "num_fault_events": num_faults,
        "num_recovery_events": num_recoveries,
        "time_to_recover_s": recover_times,
        "mean_time_to_recover_s": (
            sum(recover_times) / len(recover_times) if recover_times else None
        ),
    }


def _attr_float(attrs: dict[str, Any], *names: str) -> float | None:
    for name in names:
        value = attrs.get(name)
        if value is not None:
            try:
                return float(value)
            except (TypeError, ValueError):
                return None
    return None


class _RunAccumulator:
    """Raw per-run span buffers, grouped as they close."""

    __slots__ = ("label", "iterations", "senses", "migrations", "phases")

    def __init__(self, label: str):
        self.label = label
        self.iterations: list[Span] = []
        self.senses: list[Span] = []
        self.migrations: list[Span] = []
        self.phases: list[Span] = []


def _analyze_run(pid: int, acc: _RunAccumulator) -> list[HealthSnapshot]:
    """Fold one run's buffered spans into iteration snapshots.

    Order-independent: spans are matched by simulated time, not arrival
    order, so a live tracer feed and a re-sorted JSONL replay produce the
    same snapshots.
    """
    iterations = sorted(acc.iterations, key=lambda s: s.start_sim)
    if not iterations:
        return []
    senses = sorted(acc.senses, key=lambda s: s.end_sim or s.start_sim)
    migrations = sorted(acc.migrations, key=lambda s: s.end_sim or s.start_sim)
    starts = [s.start_sim for s in iterations]

    snapshots: list[HealthSnapshot] = []
    for idx, span in enumerate(iterations):
        attrs = span.attributes
        iteration = attrs.get("iteration", attrs.get("step", idx))
        epoch = attrs.get("epoch")
        snapshots.append(
            HealthSnapshot(
                pid=pid,
                run_label=acc.label,
                iteration=int(iteration),
                epoch=None if epoch is None else int(epoch),
                start_sim=span.start_sim,
                end_sim=span.end_sim if span.end_sim is not None else span.start_sim,
                duration_s=span.sim_duration,
                imbalance_pct=_attr_float(attrs, "imbalance_pct"),
                max_imbalance_pct=_attr_float(attrs, "max_imbalance_pct"),
                staleness_s=_attr_float(attrs, "staleness_s"),
            )
        )

    # Per-phase breakdown: each rank-phase span lands in the iteration
    # whose [start, end) interval contains its start time.
    for span in acc.phases:
        slot = bisect_right(starts, span.start_sim) - 1
        if slot < 0:
            continue
        snap = snapshots[slot]
        snap.phase_seconds[span.name] = (
            snap.phase_seconds.get(span.name, 0.0) + span.sim_duration
        )

    # Migration churn: bytes/seconds of every migrate span up to (and
    # including) each iteration's end, charged to the first iteration that
    # ends at-or-after the migration (migrations precede the iteration
    # they enable).
    mig_idx = 0
    sense_idx = 0
    sensing_total = 0.0
    last_caps: tuple[float, ...] | None = None
    prev_caps: tuple[float, ...] | None = None
    last_sense_time: float | None = None
    for snap in snapshots:
        while (
            mig_idx < len(migrations)
            and (migrations[mig_idx].end_sim or 0.0) <= snap.end_sim
        ):
            mig = migrations[mig_idx]
            snap.migration_bytes += _attr_float(mig.attributes, "bytes") or 0.0
            snap.migration_seconds += (
                _attr_float(mig.attributes, "sim_seconds") or mig.sim_duration
            )
            mig_idx += 1
        while (
            sense_idx < len(senses)
            and (senses[sense_idx].end_sim or 0.0) <= snap.end_sim
        ):
            sense = senses[sense_idx]
            sensing_total += (
                _attr_float(sense.attributes, "overhead_seconds")
                or sense.sim_duration
            )
            caps = sense.attributes.get("capacities")
            if caps is not None:
                try:
                    caps = tuple(float(c) for c in caps)
                except (TypeError, ValueError):
                    caps = None
            if caps is not None:
                prev_caps, last_caps = last_caps, caps
            last_sense_time = sense.end_sim
            sense_idx += 1
        snap.sensing_seconds_total = sensing_total
        if snap.end_sim > 0:
            snap.probe_overhead_fraction = sensing_total / snap.end_sim
        snap.capacities = last_caps
        if last_caps is not None and prev_caps is not None and (
            len(last_caps) == len(prev_caps)
        ):
            snap.capacity_drift = max(
                abs(a - b) for a, b in zip(last_caps, prev_caps)
            )
        if snap.staleness_s is None and last_sense_time is not None:
            snap.staleness_s = max(snap.end_sim - last_sense_time, 0.0)
    return snapshots


class HealthMonitor:
    """Subscribes to a tracer and turns its spans into health signals.

    Usage::

        tracer = Tracer()
        health = HealthMonitor()
        health.attach(tracer)
        SamrRuntime(..., tracer=tracer).run()
        health.snapshots   # one per iteration, every traced run
        health.events      # detected anomalies (also in tracer.events)

    The monitor buffers each run's spans as they close and analyzes the
    run when its root ``run`` span closes, emitting one ``health.<kind>``
    instant event into the trace per anomaly.  Analysis is read-only and
    happens outside simulated time, so attaching a monitor never changes
    simulation results.
    """

    def __init__(
        self,
        detectors: Sequence[AnomalyDetector] | None = None,
        imbalance_bound_pct: float = PAPER_IMBALANCE_BOUND_PCT,
    ):
        self.detectors: list[AnomalyDetector] = (
            list(detectors) if detectors is not None else default_detectors()
        )
        self.imbalance_bound_pct = imbalance_bound_pct
        self.snapshots: list[HealthSnapshot] = []
        self.events: list[HealthEvent] = []
        self._tracer: Tracer | None = None
        self._runs: dict[int, _RunAccumulator] = {}

    # -- subscription ---------------------------------------------------
    def attach(self, tracer: Tracer | NullTracer) -> "HealthMonitor":
        """Start observing ``tracer`` (no-op tracers are ignored)."""
        if tracer.enabled:
            self._tracer = tracer  # type: ignore[assignment]
            tracer.add_observer(self._on_span_close)
        return self

    def detach(self) -> None:
        if self._tracer is not None:
            self._tracer.remove_observer(self._on_span_close)
            self._tracer = None

    # -- span routing ---------------------------------------------------
    def _accumulator(self, pid: int) -> _RunAccumulator:
        acc = self._runs.get(pid)
        if acc is None:
            label = ""
            if self._tracer is not None:
                label = self._tracer.run_labels.get(pid, "")
            acc = self._runs[pid] = _RunAccumulator(label)
        return acc

    def _on_span_close(self, span: Span) -> None:
        name = span.name
        if name == "run":
            self._finish_run(span.pid)
            return
        if name == "iteration":
            self._accumulator(span.pid).iterations.append(span)
        elif name == "sense":
            self._accumulator(span.pid).senses.append(span)
        elif name == "migrate":
            self._accumulator(span.pid).migrations.append(span)
        elif name in _RANK_PHASES:
            self._accumulator(span.pid).phases.append(span)

    def _finish_run(self, pid: int) -> None:
        acc = self._runs.pop(pid, None)
        if acc is None:
            return
        snapshots = _analyze_run(pid, acc)
        self.snapshots.extend(snapshots)
        for detector in self.detectors:
            detector.reset()
        run_events: list[HealthEvent] = []
        for snap in snapshots:
            for detector in self.detectors:
                run_events.extend(detector.observe(snap))
        self.events.extend(run_events)
        if self._tracer is not None:
            for event in run_events:
                self._tracer.event(
                    f"health.{event.kind}",
                    severity=event.severity,
                    message=event.message,
                    iteration=event.iteration,
                    sim_time=event.sim_time,
                    **{
                        k: v
                        for k, v in event.attributes.items()
                        if isinstance(v, (int, float, str, bool))
                    },
                )

    # -- draining -------------------------------------------------------
    def finish(self) -> None:
        """Analyze any runs whose ``run`` span never closed (crashes)."""
        for pid in sorted(self._runs):
            self._finish_run(pid)

    def worst_imbalance(self) -> float:
        vals = [
            s.imbalance_pct
            for s in self.snapshots
            if s.imbalance_pct is not None
        ]
        return max(vals) if vals else 0.0

    def summary(self) -> dict[str, Any]:
        """Aggregate health view (what ``repro report`` prints)."""
        by_severity: dict[str, int] = {}
        for event in self.events:
            by_severity[event.severity] = by_severity.get(event.severity, 0) + 1
        faults = fault_summary(
            self._tracer.events if self._tracer is not None else ()
        )
        return {
            "num_snapshots": len(self.snapshots),
            "num_events": len(self.events),
            "events_by_severity": by_severity,
            "worst_imbalance_pct": self.worst_imbalance(),
            "imbalance_bound_pct": self.imbalance_bound_pct,
            "num_fault_events": faults["num_fault_events"],
            "num_recovery_events": faults["num_recovery_events"],
            "mean_time_to_recover_s": faults["mean_time_to_recover_s"],
        }


# ----------------------------------------------------------------------
def _span_from_record(record: dict[str, Any]) -> Span:
    return Span(
        name=record["name"],
        span_id=int(record.get("span_id", 0)),
        parent_id=record.get("parent_id"),
        pid=int(record.get("pid", 0)),
        start_wall=float(record.get("start_wall") or 0.0),
        start_sim=float(record.get("start_sim") or 0.0),
        end_wall=record.get("end_wall"),
        end_sim=(
            None if record.get("end_sim") is None else float(record["end_sim"])
        ),
        rank=record.get("rank"),
        attributes=dict(record.get("attributes") or {}),
    )


def analyze_records(
    records: Iterable[dict[str, Any]],
    detectors: Callable[[], Sequence[AnomalyDetector]] | None = None,
    run_labels: dict[int, str] | None = None,
) -> tuple[list[HealthSnapshot], list[HealthEvent]]:
    """Offline analysis of an exported JSONL trace (parsed records).

    Routes the same machinery the live monitor uses, so a dashboard built
    from a trace file shows exactly what an attached monitor saw.
    ``detectors`` is a factory (fresh state per call) defaulting to
    :func:`default_detectors`.
    """
    factory = detectors or default_detectors
    runs: dict[int, _RunAccumulator] = {}
    labels = run_labels or {}
    for record in records:
        if record.get("type") != "span":
            continue
        span = _span_from_record(record)
        acc = runs.get(span.pid)
        if acc is None:
            acc = runs[span.pid] = _RunAccumulator(labels.get(span.pid, ""))
        if span.name == "run":
            if not acc.label:
                acc.label = str(span.attributes.get("partitioner", ""))
        elif span.name == "iteration":
            acc.iterations.append(span)
        elif span.name == "sense":
            acc.senses.append(span)
        elif span.name == "migrate":
            acc.migrations.append(span)
        elif span.name in _RANK_PHASES:
            acc.phases.append(span)
    snapshots: list[HealthSnapshot] = []
    events: list[HealthEvent] = []
    for pid in sorted(runs):
        run_snapshots = _analyze_run(pid, runs[pid])
        snapshots.extend(run_snapshots)
        suite = list(factory())
        for detector in suite:
            detector.reset()
        for snap in run_snapshots:
            for detector in suite:
                events.extend(detector.observe(snap))
    return snapshots, events
