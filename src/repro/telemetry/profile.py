"""Performance introspection: critical paths, comm matrices, flamegraphs.

The tracer (:mod:`repro.telemetry.spans`) records *what happened*; this
module answers *why it took that long*.  Every reader takes any trace
source :meth:`~repro.telemetry.model.TraceModel.of` accepts, a built
model included, and derives:

critical path (:func:`analyze_critical_path`)
    Reconstructs each iteration's execution DAG from the span stream:
    per-rank compute -> that rank's serialized ghost exchange -> the
    collective sync join, plus a residual *barrier* segment whenever the
    priced iteration is longer than the busiest rank (per-level
    synchronization idles ranks between level phases).  The path length
    therefore equals the iteration span's simulated duration exactly,
    and the per-rank slack says which node gated the step and how much a
    perfect capacity-proportional partition could still recover.

communication profile (:func:`comm_profile`)
    Folds the ``comm.exchange`` events the bound
    :class:`~repro.comm.simmpi.SimCommunicator` emits into rank-by-rank
    matrices (bytes, seconds, messages) per phase, with derated-link
    attribution: traffic that crossed a link running below its nominal
    bandwidth.

flamegraphs (:func:`flamegraph_collapsed`, :func:`speedscope_document`)
    The span tree per run as collapsed-stack text (one weighted stack
    per line, the format every flamegraph renderer ingests) and as a
    speedscope JSON document with one evented timeline per run plus one
    per simulated rank.

offline metrics (:func:`registry_from_records`)
    Rebuilds a :class:`~repro.telemetry.metrics.MetricsRegistry` from an
    exported trace so ``repro profile`` can emit OpenMetrics text for a
    run that finished long ago.

live view (:class:`LiveTop`)
    A span-close observer maintaining the rolling per-phase/per-rank
    totals behind the ``repro top`` terminal view.

Everything here is pure stdlib (the telemetry package stays a
zero-required-dependency leaf); matrices are lists of lists, not arrays.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Sequence

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.model import (
    RANK_TRACK,
    RunView,
    TraceModel,
    TraceSource,
    pair_rows,
    rank_rows,
)

__all__ = [
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
]

def _duration(record: dict[str, Any]) -> float:
    end = record.get("end_sim")
    if end is None:
        return 0.0
    return float(end) - float(record["start_sim"])


# ----------------------------------------------------------------------
# Critical-path analysis
# ----------------------------------------------------------------------
@dataclass(slots=True)
class PathSegment:
    """One edge of an iteration's critical path."""

    phase: str  # compute | ghost-exchange | sync | barrier
    rank: int | None  # None for collective/barrier segments
    start_sim: float
    end_sim: float

    @property
    def duration_s(self) -> float:
        return self.end_sim - self.start_sim

    def to_dict(self) -> dict[str, Any]:
        return {
            "phase": self.phase,
            "rank": self.rank,
            "start_sim": self.start_sim,
            "end_sim": self.end_sim,
            "duration_s": self.duration_s,
        }


@dataclass(slots=True)
class IterationPath:
    """The critical path through one priced iteration."""

    iteration: int
    start_sim: float
    end_sim: float
    critical_rank: int | None
    segments: list[PathSegment]
    busy_per_rank: dict[int, float]
    num_ranks: int
    compute_s: float = 0.0
    comm_s: float = 0.0
    sync_s: float = 0.0
    barrier_s: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.end_sim - self.start_sim

    @property
    def path_length_s(self) -> float:
        """Sum of path segments; equals :attr:`duration_s` by construction."""
        return sum(seg.duration_s for seg in self.segments)

    @property
    def slack_per_rank(self) -> dict[int, float]:
        """Seconds each rank idled while the critical rank worked."""
        busiest = max(self.busy_per_rank.values(), default=0.0)
        return {
            rank: busiest - busy
            for rank, busy in sorted(self.busy_per_rank.items())
        }

    @property
    def balance_headroom_s(self) -> float:
        """Busy-time gap the ideal rebalance could close this iteration.

        ``busiest - mean`` busy time over all ranks: with per-rank costs
        made exactly equal (work perfectly proportional to capacity and
        homogeneous per-unit speed -- an approximation on heterogeneous
        clusters) the phase could finish ``mean`` after it started, so
        this is the upper bound on what any partitioner can still win
        here.  Near zero means the step is bounded by the critical
        rank's intrinsic speed/link, not by imbalance.
        """
        if not self.num_ranks:
            return 0.0
        busiest = max(self.busy_per_rank.values(), default=0.0)
        mean = sum(self.busy_per_rank.values()) / self.num_ranks
        return busiest - mean

    def to_dict(self) -> dict[str, Any]:
        return {
            "iteration": self.iteration,
            "start_sim": self.start_sim,
            "end_sim": self.end_sim,
            "duration_s": self.duration_s,
            "path_length_s": self.path_length_s,
            "critical_rank": self.critical_rank,
            "compute_s": self.compute_s,
            "comm_s": self.comm_s,
            "sync_s": self.sync_s,
            "barrier_s": self.barrier_s,
            "balance_headroom_s": self.balance_headroom_s,
            "slack_per_rank": {
                str(k): v for k, v in self.slack_per_rank.items()
            },
            "segments": [seg.to_dict() for seg in self.segments],
        }


@dataclass(slots=True)
class RunCriticalPath:
    """Critical-path decomposition of one traced run."""

    pid: int
    label: str
    iterations: list[IterationPath] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return sum(it.duration_s for it in self.iterations)

    @property
    def compute_s(self) -> float:
        return sum(it.compute_s for it in self.iterations)

    @property
    def comm_s(self) -> float:
        return sum(it.comm_s for it in self.iterations)

    @property
    def sync_s(self) -> float:
        return sum(it.sync_s for it in self.iterations)

    @property
    def barrier_s(self) -> float:
        return sum(it.barrier_s for it in self.iterations)

    @property
    def balance_headroom_s(self) -> float:
        return sum(it.balance_headroom_s for it in self.iterations)

    @property
    def critical_rank_counts(self) -> dict[int, int]:
        """How often each rank sat on the critical path."""
        counts: dict[int, int] = {}
        for it in self.iterations:
            if it.critical_rank is not None:
                counts[it.critical_rank] = counts.get(it.critical_rank, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "label": self.label,
            "num_iterations": len(self.iterations),
            "total_s": self.total_s,
            "compute_s": self.compute_s,
            "comm_s": self.comm_s,
            "sync_s": self.sync_s,
            "barrier_s": self.barrier_s,
            "balance_headroom_s": self.balance_headroom_s,
            "critical_rank_counts": {
                str(k): v for k, v in self.critical_rank_counts.items()
            },
            "iterations": [it.to_dict() for it in self.iterations],
        }


def analyze_critical_path(
    source: TraceSource,
    run_labels: dict[int, str] | None = None,
) -> list[RunCriticalPath]:
    """Reconstruct the per-iteration critical path of every traced run.

    For each ``iteration`` span the per-rank busy time is the sum of
    that rank's ``compute``/``ghost-exchange`` spans inside the
    iteration's simulated interval.  The critical rank is the iteration
    span's ``critical_rank`` attribute when present (stamped by the
    pipeline), else the busiest rank observed; the path walks that
    rank's phases in order, then the ``sync`` collective, then a
    ``barrier`` residual absorbing any remaining idle time (nonzero
    under per-level synchronization, where barrier waits between level
    phases are real cost that belongs to no single span).  By
    construction ``path_length_s == duration_s`` for every iteration.
    """
    results: list[RunCriticalPath] = []
    for view in TraceModel.of(source, run_labels).runs:
        iterations = view.iterations
        if not iterations:
            continue
        run = RunCriticalPath(pid=view.pid, label=view.title)
        cols = view.columns
        names, ranks, starts, ends = cols.name, cols.rank, cols.start, cols.end
        durations = cols.duration
        # ``(rank, row)`` of rank phases and rows of sync spans, bucketed
        # by iteration slot; rows outside every iteration (e.g. replayed
        # work) have none.
        rank_rows: list[list[tuple[int, int]]] = [[] for _ in iterations]
        sync_rows: list[list[int]] = [[] for _ in iterations]
        num_ranks = 0
        for i, idx in enumerate(cols.slot):
            if idx is None:
                continue
            if ranks[i] is not None and names[i] in RANK_TRACK:
                rank = int(ranks[i])
                rank_rows[idx].append((rank, i))
                if rank >= num_ranks:
                    num_ranks = rank + 1
            elif names[i] == "sync":
                sync_rows[idx].append(i)
        by_start = starts.__getitem__
        for idx, it in enumerate(iterations):
            attrs = it.get("attributes") or {}
            start = float(it["start_sim"])
            end = float(it["end_sim"])
            busy: dict[int, float] = {r: 0.0 for r in range(num_ranks)}
            for rank, i in rank_rows[idx]:
                busy[rank] = busy.get(rank, 0.0) + durations[i]
            critical = attrs.get("critical_rank")
            if critical is None and busy:
                busiest = max(busy.values())
                critical = min(r for r, b in busy.items() if b == busiest)
            segments: list[PathSegment] = []
            compute_s = comm_s = 0.0
            if critical is not None:
                critical = int(critical)
                own = [i for rank, i in rank_rows[idx] if rank == critical]
                for i in sorted(own, key=by_start):
                    segments.append(
                        PathSegment(names[i], critical, starts[i], ends[i])
                    )
                    if names[i] == "compute":
                        compute_s += durations[i]
                    else:
                        comm_s += durations[i]
            sync_s = sum(map(durations.__getitem__, sync_rows[idx]))
            segments += [
                PathSegment("sync", None, starts[i], ends[i])
                for i in sorted(sync_rows[idx], key=by_start)
            ]
            covered = compute_s + comm_s + sync_s
            barrier_s = max(0.0, (end - start) - covered)
            if barrier_s > 0.0:
                segments.append(
                    PathSegment("barrier", None, end - barrier_s, end)
                )
            iteration_number = attrs.get("iteration", attrs.get("step", idx))
            run.iterations.append(
                IterationPath(
                    iteration=int(iteration_number),
                    start_sim=start,
                    end_sim=end,
                    critical_rank=critical,
                    segments=segments,
                    busy_per_rank=busy,
                    num_ranks=num_ranks,
                    compute_s=compute_s,
                    comm_s=comm_s,
                    sync_s=sync_s,
                    barrier_s=barrier_s,
                )
            )
        results.append(run)
    return results


def format_critical_path_report(results: list[RunCriticalPath]) -> str:
    """Human-readable critical-path summary for the ``repro profile`` CLI."""
    lines: list[str] = []
    for run in results:
        lines.append(f"run {run.pid}: {run.label}")
        total = run.total_s or 1.0
        lines.append(
            f"  critical path  {run.total_s:12.6f} s over "
            f"{len(run.iterations)} iterations"
        )
        for phase, seconds in (
            ("compute", run.compute_s),
            ("ghost-exchange", run.comm_s),
            ("sync", run.sync_s),
            ("barrier", run.barrier_s),
        ):
            lines.append(
                f"    {phase:<15}{seconds:12.6f} s  "
                f"({100.0 * seconds / total:5.1f}%)"
            )
        lines.append(
            f"  balance headroom {run.balance_headroom_s:10.6f} s  "
            f"({100.0 * run.balance_headroom_s / total:5.1f}% -- upper "
            "bound a perfect capacity-proportional partition could recover)"
        )
        counts = run.critical_rank_counts
        if counts:
            top = sorted(counts.items(), key=lambda kv: -kv[1])[:5]
            described = ", ".join(
                f"rank {rank} x{count}" for rank, count in top
            )
            lines.append(f"  bottleneck ranks: {described}")
        lines.append("")
    if not lines:
        return "no iterations found in trace\n"
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Communication profile
# ----------------------------------------------------------------------
@dataclass(slots=True)
class CommMatrix:
    """Rank-by-rank traffic accounting for one phase family."""

    size: int
    bytes: list[list[float]]
    seconds: list[list[float]]
    messages: list[list[int]]
    derated_bytes: list[list[float]]

    @classmethod
    def zeros(cls, size: int) -> "CommMatrix":
        return cls(
            size=size,
            bytes=[[0.0] * size for _ in range(size)],
            seconds=[[0.0] * size for _ in range(size)],
            messages=[[0] * size for _ in range(size)],
            derated_bytes=[[0.0] * size for _ in range(size)],
        )

    def grow(self, size: int) -> None:
        """Widen in place to ``size`` ranks (traces may mix cluster sizes)."""
        if size <= self.size:
            return
        for name in ("bytes", "seconds", "messages", "derated_bytes"):
            matrix = getattr(self, name)
            filler = 0 if name == "messages" else 0.0
            for row in matrix:
                row.extend([filler] * (size - self.size))
            for _ in range(size - self.size):
                matrix.append([filler] * size)
        self.size = size

    def add_pairs(
        self, rows: Sequence[Sequence[Any]], total: CommMatrix | None = None
    ) -> None:
        """Fold one event's ``(src, dst, bytes, seconds, derated)`` rows
        into this matrix and, if given, into ``total`` too.

        Grows once, to the largest rank named, then adds row by row in
        the given order, so each cell sums its terms in event order.
        """
        top = int(
            max(
                max(map(itemgetter(0), rows), default=-1),
                max(map(itemgetter(1), rows), default=-1),
            )
        )
        into = [self] if total is None else [self, total]
        for matrix in into:
            matrix.grow(top + 1)
        cells = [
            (m.bytes, m.seconds, m.messages, m.derated_bytes) for m in into
        ]
        for src, dst, nbytes, seconds, derated in rows:
            src, dst = int(src), int(dst)
            for nbytes_m, seconds_m, messages_m, derated_m in cells:
                nbytes_m[src][dst] += nbytes
                seconds_m[src][dst] += seconds
                messages_m[src][dst] += 1
                if derated:
                    derated_m[src][dst] += nbytes

    @property
    def bytes_total(self) -> float:
        return sum(map(sum, self.bytes))

    @property
    def seconds_total(self) -> float:
        return sum(map(sum, self.seconds))

    @property
    def derated_bytes_total(self) -> float:
        return sum(map(sum, self.derated_bytes))

    def top_pairs(self, n: int = 10) -> list[dict[str, Any]]:
        """Heaviest (src, dst) pairs by time, with derating attribution."""
        pairs = [
            {
                "src": src,
                "dst": dst,
                "bytes": self.bytes[src][dst],
                "seconds": self.seconds[src][dst],
                "messages": self.messages[src][dst],
                "derated": self.derated_bytes[src][dst] > 0,
            }
            for src in range(self.size)
            for dst in range(self.size)
            if self.messages[src][dst]
        ]
        pairs.sort(key=lambda p: (-p["seconds"], -p["bytes"], p["src"], p["dst"]))
        return pairs[:n]

    def to_dict(self) -> dict[str, Any]:
        return {
            "size": self.size,
            "bytes_total": self.bytes_total,
            "seconds_total": self.seconds_total,
            "derated_bytes_total": self.derated_bytes_total,
            "bytes": self.bytes,
            "seconds": self.seconds,
            "messages": self.messages,
            "derated_bytes": self.derated_bytes,
            "top_pairs": self.top_pairs(),
        }


@dataclass(slots=True)
class CommProfile:
    """Per-phase communication matrices for one traced run."""

    pid: int
    label: str
    phases: dict[str, CommMatrix] = field(default_factory=dict)
    total: CommMatrix = field(default_factory=lambda: CommMatrix.zeros(0))
    events: int = 0
    pairs_dropped: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "label": self.label,
            "events": self.events,
            "pairs_dropped": self.pairs_dropped,
            "total": self.total.to_dict(),
            "phases": {k: v.to_dict() for k, v in sorted(self.phases.items())},
        }


def comm_profile(
    source: TraceSource,
    run_labels: dict[int, str] | None = None,
) -> list[CommProfile]:
    """Fold ``comm.exchange`` events into rank-by-rank traffic matrices.

    ``derated_bytes`` attributes traffic whose path crossed a link
    running below nominal bandwidth at transfer time -- the signature of
    the paper's system-sensitive scenario, where a partitioner that
    ignores NIC derating keeps routing ghost exchanges over the slow
    link.  ``pairs_dropped`` counts per-pair rows the communicator
    truncated from oversized events (totals remain exact).
    """
    profiles: list[CommProfile] = []
    for view in TraceModel.of(source, run_labels).runs:
        if not view.comm_events:
            continue
        profile = CommProfile(pid=view.pid, label=view.title)
        for event in view.comm_events:
            attrs = event.get("attributes") or {}
            phase = str(attrs.get("phase", "exchange"))
            size = int(attrs.get("ranks", 0))
            matrix = profile.phases.get(phase)
            if matrix is None:
                matrix = profile.phases[phase] = CommMatrix.zeros(size)
            matrix.grow(size)
            profile.total.grow(size)
            matrix.add_pairs(pair_rows(attrs, view.pair_tables), profile.total)
            profile.events += 1
            profile.pairs_dropped += int(attrs.get("pairs_dropped", 0))
        profiles.append(profile)
    return profiles


# ----------------------------------------------------------------------
# Flamegraphs
# ----------------------------------------------------------------------
def _span_forest(
    view: RunView, ranks: bool
) -> tuple[list[int], dict[Any, list[int]]]:
    """(roots, children-by-span-id) of one run's closed spans and rank
    rows, as rows of its :attr:`~RunView.columns`, each list in
    :attr:`~repro.telemetry.model.SpanColumns.order`.

    Rows nest by their ``parent_id``: the tracer's stack discipline
    makes a span's exact, and a rank row's is its iteration.  Rank rows
    (and any rank-tagged span) are left out unless ``ranks``.
    """
    cols = view.columns
    rank_of, parent_of = cols.rank, cols.parent_id
    if ranks:
        rows: Sequence[int] = range(len(rank_of))
    else:
        rows = [i for i, rank in enumerate(rank_of) if rank is None]
    known = {cols.span_id[i] for i in rows}
    children: dict[Any, list[int]] = {}
    roots: list[int] = []
    for i in rows:
        parent_id = parent_of[i]
        if parent_id is not None and parent_id in known:
            children.setdefault(parent_id, []).append(i)
        else:
            roots.append(i)
    order = cols.order.__getitem__
    roots.sort(key=order)
    for kids in children.values():
        kids.sort(key=order)
    return roots, children


def _frame_name(name: Any, rank: Any, label: str) -> str:
    if name == "run":
        return f"run: {label}"
    if rank is not None:
        return f"{name} (rank {rank})"
    return str(name)


def flamegraph_collapsed(
    source: TraceSource,
    run_labels: dict[int, str] | None = None,
) -> str:
    """Collapsed-stack flamegraph text over *simulated* time.

    One ``frame;frame;... weight`` line per distinct stack, weight in
    integer microseconds of self time (child time subtracted), the
    format ``flamegraph.pl``, speedscope and Firefox Profiler all
    import.  Iterations share one frame name so the graph aggregates
    across the run -- that is the point of a flamegraph; use the
    speedscope timeline when per-iteration order matters.
    """
    weights: dict[tuple[str, ...], int] = {}

    for view in TraceModel.of(source, run_labels).runs:
        roots, children = _span_forest(view, ranks=True)
        cols = view.columns
        names, ranks, span_ids = cols.name, cols.rank, cols.span_id
        durations = cols.duration
        label = view.title

        def walk(i: int, stack: tuple[str, ...]) -> None:
            stack = stack + (_frame_name(names[i], ranks[i], label),)
            kids = children.get(span_ids[i], [])
            child_s = sum(map(durations.__getitem__, kids))
            self_us = int(round(max(0.0, durations[i] - child_s) * 1e6))
            if self_us > 0 or not kids:
                weights[stack] = weights.get(stack, 0) + self_us
            for kid in kids:
                walk(kid, stack)

        for root in roots:
            walk(root, ())
    # Zero-weight stacks (leaves shorter than a microsecond of sim time)
    # carry no area; flamegraph.pl renders them as confusing slivers.
    lines = [
        ";".join(stack) + f" {weight}"
        for stack, weight in sorted(weights.items())
        if weight > 0
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def speedscope_document(
    source: TraceSource,
    run_labels: dict[int, str] | None = None,
    name: str = "repro trace",
) -> dict[str, Any]:
    """The trace as a speedscope (https://speedscope.app) JSON document.

    One *evented* profile per traced run walks the control-span tree
    (run -> iteration -> sense/migrate/...), plus one profile per
    simulated rank with that rank's compute/ghost-exchange timeline.
    All values are microseconds of simulated time, zeroed at each run's
    first span; children are clamped into their parents so the
    open/close event stream is always well nested, which the speedscope
    importer requires.
    """
    frames: list[dict[str, str]] = []
    frame_index: dict[str, int] = {}

    def frame_of(frame_name: str) -> int:
        idx = frame_index.get(frame_name)
        if idx is None:
            idx = frame_index[frame_name] = len(frames)
            frames.append({"name": frame_name})
        return idx

    profiles: list[dict[str, Any]] = []
    for view in TraceModel.of(source, run_labels).runs:
        if not view.closed:
            continue
        label = view.title
        cols = view.columns
        names, ranks, starts, ends = cols.name, cols.rank, cols.start, cols.end
        t0 = min(starts)

        def us(t: float) -> int:
            return int(round((t - t0) * 1e6))

        def timeline(track: str, events: list, end_value: int) -> None:
            if events:
                profiles.append(
                    {
                        "type": "evented",
                        "name": f"{label} (pid {view.pid}) {track}",
                        "unit": "microseconds",
                        "startValue": 0,
                        "endValue": end_value,
                        "events": events,
                    }
                )

        # Control timeline: the nested span tree, rank tracks excluded.
        roots, children = _span_forest(view, ranks=False)
        events: list[dict[str, Any]] = []
        end_value = 0

        def emit(i: int, lo: float, hi: float, cursor: float) -> float:
            nonlocal end_value
            start = max(starts[i], lo, cursor)
            end = min(ends[i], hi)
            if end <= start + 0.0:
                return cursor
            idx = frame_of(_frame_name(names[i], None, label))
            events.append({"type": "O", "frame": idx, "at": us(start)})
            child_cursor = start
            for kid in children.get(cols.span_id[i], []):
                child_cursor = emit(kid, start, end, child_cursor)
            events.append({"type": "C", "frame": idx, "at": us(end)})
            end_value = max(end_value, us(end))
            return end

        cursor = -math.inf
        for root in roots:
            cursor = emit(root, -math.inf, math.inf, cursor)
        timeline("runtime", events, end_value)
        # One flat timeline per rank: that rank's simulated phases.
        by_rank: dict[Any, list[int]] = {}
        for i, rank in enumerate(ranks):
            if rank is not None:
                by_rank.setdefault(rank, []).append(i)
        order = cols.order.__getitem__
        for rank in sorted(by_rank):
            own = sorted(by_rank[rank], key=order)
            events = []
            end_value = 0
            cursor = -math.inf
            for i in own:
                start = max(starts[i], cursor)
                end = ends[i]
                if end <= start:
                    continue
                idx = frame_of(str(names[i]))
                events.append({"type": "O", "frame": idx, "at": us(start)})
                events.append({"type": "C", "frame": idx, "at": us(end)})
                end_value = max(end_value, us(end))
                cursor = end
            timeline(f"rank {rank}", events, end_value)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "name": name,
        "exporter": "repro profile",
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": profiles,
    }


# ----------------------------------------------------------------------
# Offline metrics reconstruction
# ----------------------------------------------------------------------
def registry_from_records(source: TraceSource) -> MetricsRegistry:
    """Rebuild a metrics registry from an exported trace.

    A JSONL trace carries spans and events but not the live registry, so
    ``repro profile`` re-derives the quantitative view: phase timing
    histograms from spans, traffic counters and per-phase histograms
    from ``comm.exchange`` events, migration totals from ``migrate``
    span attributes.  A live tracer's own registry is richer (probe
    costs, gauges); this is the offline floor.
    """
    model = TraceModel.of(source)
    if model.metrics is not None:
        return model.metrics  # live registry is authoritative
    registry = MetricsRegistry()
    for span in model.spans:
        if span.get("end_sim") is None:
            continue
        attrs = span.get("attributes") or {}
        registry.histogram("phase_sim_seconds", phase=span["name"]).observe(
            _duration(span)
        )
        if span["name"] == "iteration":
            registry.histogram("iteration_seconds").observe(_duration(span))
            for name, _, start, end in rank_rows(float(span["start_sim"]), attrs):
                registry.histogram("phase_sim_seconds", phase=name).observe(
                    end - start
                )
        elif span["name"] == "migrate":
            registry.counter("migration_bytes").inc(
                float(attrs.get("bytes", 0))
            )
            registry.counter("migration_seconds").inc(
                float(attrs.get("sim_seconds", 0.0))
            )
    # Every run's exchanges in recorded order: the counters sum across
    # runs, and that order fixes their floats.
    for event in model.events:
        if event.get("name") != "comm.exchange":
            continue
        attrs = event.get("attributes") or {}
        registry.counter("comm.bytes_total").inc(float(attrs.get("bytes", 0)))
        registry.counter("comm.messages_total").inc(
            float(attrs.get("messages", 0))
        )
        registry.histogram(
            "comm.phase_seconds", phase=str(attrs.get("phase", "exchange"))
        ).observe(float(attrs.get("seconds", 0.0)))
        registry.counter("comm.derated_bytes_total").inc(
            float(attrs.get("derated_bytes", 0))
        )
    return registry


# ----------------------------------------------------------------------
# Writers
# ----------------------------------------------------------------------
def write_collapsed(
    source: TraceSource,
    path: str | os.PathLike,
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(flamegraph_collapsed(source))


def write_speedscope(
    source: TraceSource,
    path: str | os.PathLike,
    name: str = "repro trace",
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(speedscope_document(source, name=name), fh)
        fh.write("\n")


def write_openmetrics(registry, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(registry.to_openmetrics())


# ----------------------------------------------------------------------
# Live terminal view
# ----------------------------------------------------------------------
class LiveTop:
    """Rolling per-phase/per-rank totals behind ``repro top``.

    Attach with ``tracer.add_observer(top.on_span_close)``; every closed
    span updates the aggregates, and :meth:`render` formats the current
    picture.  The observer allocates nothing per span beyond dict
    upkeep, so it is safe to leave attached for a whole run.
    """

    def __init__(self, height: int = 10):
        self.height = int(height)
        self.iterations = 0
        self.last_iteration_s = 0.0
        self.last_critical_rank: int | None = None
        self.phase_seconds: dict[str, float] = {}
        self.rank_busy: dict[int, float] = {}
        self.critical_counts: dict[int, int] = {}

    def on_span_close(self, span) -> None:
        duration = span.sim_duration
        phase_seconds = self.phase_seconds
        phase_seconds[span.name] = phase_seconds.get(span.name, 0.0) + duration
        if span.name == "iteration":
            self.iterations += 1
            self.last_iteration_s = duration
            critical = span.attributes.get("critical_rank")
            if critical is not None:
                self.last_critical_rank = int(critical)
                self.critical_counts[int(critical)] = (
                    self.critical_counts.get(int(critical), 0) + 1
                )
            busy = self.rank_busy
            for name, rank, start, end in rank_rows(
                span.start_sim, span.attributes
            ):
                phase_seconds[name] = phase_seconds.get(name, 0.0) + (end - start)
                busy[rank] = busy.get(rank, 0.0) + (end - start)

    def render(self) -> str:
        lines = [
            f"iterations {self.iterations}   "
            f"last {self.last_iteration_s:.6f} s   "
            f"critical rank {self.last_critical_rank}"
        ]
        top_phases = sorted(
            self.phase_seconds.items(), key=lambda kv: -kv[1]
        )[: self.height]
        width = max((len(name) for name, _ in top_phases), default=4)
        for phase, seconds in top_phases:
            lines.append(f"  {phase:<{width}}  {seconds:12.6f} s")
        if self.rank_busy:
            busiest = max(self.rank_busy.values()) or 1.0
            lines.append("  rank busy (sim s):")
            for rank in sorted(self.rank_busy):
                busy = self.rank_busy[rank]
                bar = "#" * int(round(24 * busy / busiest))
                hot = self.critical_counts.get(rank, 0)
                lines.append(
                    f"  r{rank:<3} {busy:12.6f} {bar:<24} critical x{hot}"
                )
        return "\n".join(lines)
