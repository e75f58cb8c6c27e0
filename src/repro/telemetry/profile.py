"""Performance introspection: critical paths, comm matrices, flamegraphs.

The tracer (:mod:`repro.telemetry.spans`) records *what happened*; this
module answers *why it took that long*.  It consumes the same three
sources everywhere -- a live :class:`~repro.telemetry.spans.Tracer`, an
exported JSONL trace path, or already-parsed record dicts -- and derives:

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
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import NullTracer, Tracer
from repro.util import durable

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

#: Numerical tolerance for "does this rank span lie inside that
#: iteration" containment tests on the simulated clock.
_EPS = 1e-9

#: Rank-track phase names (the simulated per-rank spans the pipeline
#: emits); everything else with ``rank is None`` is runtime control.
_RANK_PHASES = ("compute", "ghost-exchange")


def load_trace_records(path: str | os.PathLike) -> list[dict[str, Any]]:
    """Parse an exported JSONL trace back into record dicts.

    The file may be the log of a live or crashed writer, so it is read
    under the progress log's contract: the complete span/event records,
    a torn tail or a foreign line skipped.  A missing file raises.
    """
    os.stat(path)  # ``read_rows`` reads a missing file as empty
    return durable.read_rows(path, "type")[0]


def _as_records(
    source: "Tracer | NullTracer | str | os.PathLike | Iterable[dict[str, Any]]",
) -> list[dict[str, Any]]:
    """Normalize any trace source into parsed record dicts."""
    if isinstance(source, (Tracer, NullTracer)):
        return [s.to_dict() for s in source.spans] + [
            e.to_dict() for e in source.events
        ]
    if isinstance(source, (str, os.PathLike)):
        return load_trace_records(source)
    return list(source)


def _run_label(
    pid: int,
    spans: list[dict[str, Any]],
    run_labels: dict[int, str] | None,
) -> str:
    if run_labels and pid in run_labels:
        return str(run_labels[pid])
    for s in spans:
        if s["name"] == "run":
            partitioner = (s.get("attributes") or {}).get("partitioner")
            if partitioner:
                return str(partitioner)
    return f"run {pid}"


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
    source: "Tracer | NullTracer | str | os.PathLike | Iterable[dict[str, Any]]",
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
    if isinstance(source, (Tracer, NullTracer)) and run_labels is None:
        run_labels = dict(source.run_labels)
    records = _as_records(source)
    spans = [
        r
        for r in records
        if r.get("type") == "span" and r.get("end_sim") is not None
    ]
    results: list[RunCriticalPath] = []
    for pid in sorted({s["pid"] for s in spans}):
        run_spans = [s for s in spans if s["pid"] == pid]
        iterations = sorted(
            (s for s in run_spans if s["name"] == "iteration"),
            key=lambda s: (float(s["start_sim"]), float(s["end_sim"])),
        )
        if not iterations:
            continue
        run = RunCriticalPath(
            pid=pid, label=_run_label(pid, run_spans, run_labels)
        )
        it_starts = [float(s["start_sim"]) for s in iterations]
        # Bucket rank phases and sync spans by containing iteration.
        rank_spans: list[list[dict[str, Any]]] = [[] for _ in iterations]
        sync_spans: list[list[dict[str, Any]]] = [[] for _ in iterations]
        num_ranks = 0
        for s in run_spans:
            is_rank_phase = (
                s.get("rank") is not None and s["name"] in _RANK_PHASES
            )
            if not (is_rank_phase or s["name"] == "sync"):
                continue
            idx = bisect_right(it_starts, float(s["start_sim"]) + _EPS) - 1
            if idx < 0:
                continue
            it = iterations[idx]
            if float(s["end_sim"]) > float(it["end_sim"]) + _EPS:
                continue  # outside the iteration (e.g. replayed work)
            if is_rank_phase:
                rank_spans[idx].append(s)
                num_ranks = max(num_ranks, int(s["rank"]) + 1)
            else:
                sync_spans[idx].append(s)
        for idx, it in enumerate(iterations):
            attrs = it.get("attributes") or {}
            start = float(it["start_sim"])
            end = float(it["end_sim"])
            busy: dict[int, float] = {r: 0.0 for r in range(num_ranks)}
            for s in rank_spans[idx]:
                busy[int(s["rank"])] = busy.get(int(s["rank"]), 0.0) + _duration(s)
            critical = attrs.get("critical_rank")
            if critical is None and busy:
                busiest = max(busy.values())
                critical = min(r for r, b in busy.items() if b == busiest)
            segments: list[PathSegment] = []
            compute_s = comm_s = 0.0
            if critical is not None:
                critical = int(critical)
                own = sorted(
                    (s for s in rank_spans[idx] if int(s["rank"]) == critical),
                    key=lambda s: float(s["start_sim"]),
                )
                for s in own:
                    segments.append(
                        PathSegment(
                            phase=s["name"],
                            rank=critical,
                            start_sim=float(s["start_sim"]),
                            end_sim=float(s["end_sim"]),
                        )
                    )
                    if s["name"] == "compute":
                        compute_s += _duration(s)
                    else:
                        comm_s += _duration(s)
            sync_s = sum(_duration(s) for s in sync_spans[idx])
            for s in sorted(
                sync_spans[idx], key=lambda s: float(s["start_sim"])
            ):
                segments.append(
                    PathSegment(
                        phase="sync",
                        rank=None,
                        start_sim=float(s["start_sim"]),
                        end_sim=float(s["end_sim"]),
                    )
                )
            covered = compute_s + comm_s + sync_s
            barrier_s = max(0.0, (end - start) - covered)
            if barrier_s > 0.0:
                segments.append(
                    PathSegment(
                        phase="barrier",
                        rank=None,
                        start_sim=end - barrier_s,
                        end_sim=end,
                    )
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

    def add_pairs(self, rows: Sequence[Sequence[Any]]) -> None:
        """Fold one event's ``(src, dst, bytes, seconds, derated)`` rows.

        Grows once, to the largest rank named, then adds row by row in
        the given order, so each cell sums its terms in event order.
        """
        top = -1
        for row in rows:
            src, dst = int(row[0]), int(row[1])
            if src > top:
                top = src
            if dst > top:
                top = dst
        self.grow(top + 1)
        nbytes_m, seconds_m = self.bytes, self.seconds
        messages_m, derated_m = self.messages, self.derated_bytes
        for src, dst, nbytes, seconds, derated in rows:
            src, dst = int(src), int(dst)
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
    source: "Tracer | NullTracer | str | os.PathLike | Iterable[dict[str, Any]]",
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
    if isinstance(source, (Tracer, NullTracer)) and run_labels is None:
        run_labels = dict(source.run_labels)
    records = _as_records(source)
    events = [
        r
        for r in records
        if r.get("type") == "event" and r.get("name") == "comm.exchange"
    ]
    spans = [r for r in records if r.get("type") == "span"]
    profiles: list[CommProfile] = []
    for pid in sorted({e["pid"] for e in events}):
        run_span_records = [s for s in spans if s["pid"] == pid]
        profile = CommProfile(
            pid=pid, label=_run_label(pid, run_span_records, run_labels)
        )
        for event in (e for e in events if e["pid"] == pid):
            attrs = event.get("attributes") or {}
            phase = str(attrs.get("phase", "exchange"))
            size = int(attrs.get("ranks", 0))
            matrix = profile.phases.get(phase)
            if matrix is None:
                matrix = profile.phases[phase] = CommMatrix.zeros(size)
            matrix.grow(size)
            profile.total.grow(size)
            pairs = attrs.get("pairs", ())
            matrix.add_pairs(pairs)
            profile.total.add_pairs(pairs)
            profile.events += 1
            profile.pairs_dropped += int(attrs.get("pairs_dropped", 0))
        profiles.append(profile)
    return profiles


# ----------------------------------------------------------------------
# Flamegraphs
# ----------------------------------------------------------------------
def _span_forest(
    run_spans: list[dict[str, Any]],
) -> tuple[list[dict[str, Any]], dict[int, list[dict[str, Any]]]]:
    """(roots, children-by-span-id) for one run's spans.

    Control spans (``rank is None``) nest by their recorded
    ``parent_id`` -- the tracer's stack discipline makes those exact.
    Rank-phase spans are recorded flat against the enclosing ``run``
    span, so they are re-parented onto the ``iteration`` span whose
    simulated interval contains them; that is the nesting a human
    expects to see in the flamegraph.
    """
    by_id = {s["span_id"]: s for s in run_spans}
    iterations = sorted(
        (s for s in run_spans if s["name"] == "iteration"),
        key=lambda s: float(s["start_sim"]),
    )
    it_starts = [float(s["start_sim"]) for s in iterations]
    children: dict[int, list[dict[str, Any]]] = {}
    roots: list[dict[str, Any]] = []
    for s in run_spans:
        parent_id = s.get("parent_id")
        if s.get("rank") is not None and iterations:
            idx = bisect_right(it_starts, float(s["start_sim"]) + _EPS) - 1
            if idx >= 0:
                it = iterations[idx]
                if (
                    s.get("end_sim") is not None
                    and float(s["end_sim"]) <= float(it["end_sim"]) + _EPS
                ):
                    parent_id = it["span_id"]
        if parent_id is not None and parent_id in by_id:
            children.setdefault(parent_id, []).append(s)
        else:
            roots.append(s)
    order = lambda s: (float(s["start_sim"]), s["span_id"])  # noqa: E731
    roots.sort(key=order)
    for kids in children.values():
        kids.sort(key=order)
    return roots, children


def _frame_name(span: dict[str, Any], label: str) -> str:
    if span["name"] == "run":
        return f"run: {label}"
    if span.get("rank") is not None:
        return f"{span['name']} (rank {span['rank']})"
    return str(span["name"])


def flamegraph_collapsed(
    source: "Tracer | NullTracer | str | os.PathLike | Iterable[dict[str, Any]]",
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
    if isinstance(source, (Tracer, NullTracer)) and run_labels is None:
        run_labels = dict(source.run_labels)
    records = _as_records(source)
    spans = [
        r
        for r in records
        if r.get("type") == "span" and r.get("end_sim") is not None
    ]
    weights: dict[tuple[str, ...], int] = {}

    def walk(
        span: dict[str, Any],
        stack: tuple[str, ...],
        children: dict[int, list[dict[str, Any]]],
        label: str,
    ) -> None:
        stack = stack + (_frame_name(span, label),)
        kids = children.get(span["span_id"], [])
        child_s = sum(_duration(k) for k in kids)
        self_us = int(round(max(0.0, _duration(span) - child_s) * 1e6))
        if self_us > 0 or not kids:
            weights[stack] = weights.get(stack, 0) + self_us
        for kid in kids:
            walk(kid, stack, children, label)

    for pid in sorted({s["pid"] for s in spans}):
        run_spans = [s for s in spans if s["pid"] == pid]
        label = _run_label(pid, run_spans, run_labels)
        roots, children = _span_forest(run_spans)
        for root in roots:
            walk(root, (), children, label)
    # Zero-weight stacks (leaves shorter than a microsecond of sim time)
    # carry no area; flamegraph.pl renders them as confusing slivers.
    lines = [
        ";".join(stack) + f" {weight}"
        for stack, weight in sorted(weights.items())
        if weight > 0
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def speedscope_document(
    source: "Tracer | NullTracer | str | os.PathLike | Iterable[dict[str, Any]]",
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
    if isinstance(source, (Tracer, NullTracer)) and run_labels is None:
        run_labels = dict(source.run_labels)
    records = _as_records(source)
    spans = [
        r
        for r in records
        if r.get("type") == "span" and r.get("end_sim") is not None
    ]
    frames: list[dict[str, str]] = []
    frame_index: dict[str, int] = {}

    def frame_of(frame_name: str) -> int:
        idx = frame_index.get(frame_name)
        if idx is None:
            idx = frame_index[frame_name] = len(frames)
            frames.append({"name": frame_name})
        return idx

    profiles: list[dict[str, Any]] = []
    for pid in sorted({s["pid"] for s in spans}):
        run_spans = [s for s in spans if s["pid"] == pid]
        label = _run_label(pid, run_spans, run_labels)
        t0 = min(float(s["start_sim"]) for s in run_spans)

        def us(t: float) -> int:
            return int(round((t - t0) * 1e6))

        # Control timeline: the nested span tree, rank tracks excluded.
        control = [s for s in run_spans if s.get("rank") is None]
        roots, children = _span_forest(control)
        events: list[dict[str, Any]] = []
        end_value = 0

        def emit(
            span: dict[str, Any], lo: float, hi: float, cursor: float
        ) -> float:
            nonlocal end_value
            start = max(float(span["start_sim"]), lo, cursor)
            end = min(float(span["end_sim"]), hi)
            if end <= start + 0.0:
                return cursor
            idx = frame_of(_frame_name(span, label))
            events.append({"type": "O", "frame": idx, "at": us(start)})
            child_cursor = start
            for kid in children.get(span["span_id"], []):
                child_cursor = emit(kid, start, end, child_cursor)
            events.append({"type": "C", "frame": idx, "at": us(end)})
            end_value = max(end_value, us(end))
            return end

        cursor = -math.inf
        for root in roots:
            cursor = emit(root, -math.inf, math.inf, cursor)
        if events:
            profiles.append(
                {
                    "type": "evented",
                    "name": f"{label} (pid {pid}) runtime",
                    "unit": "microseconds",
                    "startValue": 0,
                    "endValue": end_value,
                    "events": events,
                }
            )
        # One flat timeline per rank: that rank's simulated phases.
        ranks = sorted(
            {s["rank"] for s in run_spans if s.get("rank") is not None}
        )
        for rank in ranks:
            own = sorted(
                (s for s in run_spans if s.get("rank") == rank),
                key=lambda s: (float(s["start_sim"]), s["span_id"]),
            )
            events = []
            end_value = 0
            cursor = -math.inf
            for s in own:
                start = max(float(s["start_sim"]), cursor)
                end = float(s["end_sim"])
                if end <= start:
                    continue
                idx = frame_of(str(s["name"]))
                events.append({"type": "O", "frame": idx, "at": us(start)})
                events.append({"type": "C", "frame": idx, "at": us(end)})
                end_value = max(end_value, us(end))
                cursor = end
            if events:
                profiles.append(
                    {
                        "type": "evented",
                        "name": f"{label} (pid {pid}) rank {rank}",
                        "unit": "microseconds",
                        "startValue": 0,
                        "endValue": end_value,
                        "events": events,
                    }
                )
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
def registry_from_records(
    source: "Tracer | NullTracer | str | os.PathLike | Iterable[dict[str, Any]]",
) -> MetricsRegistry:
    """Rebuild a metrics registry from an exported trace.

    A JSONL trace carries spans and events but not the live registry, so
    ``repro profile`` re-derives the quantitative view: phase timing
    histograms from spans, traffic counters and per-phase histograms
    from ``comm.exchange`` events, migration totals from ``migrate``
    span attributes.  A live tracer's own registry is richer (probe
    costs, gauges); this is the offline floor.
    """
    if isinstance(source, (Tracer, NullTracer)):
        return source.metrics  # live registry is authoritative
    registry = MetricsRegistry()
    for record in _as_records(source):
        attrs = record.get("attributes") or {}
        if record.get("type") == "span":
            if record.get("end_sim") is None:
                continue
            registry.histogram(
                "phase_sim_seconds", phase=record["name"]
            ).observe(_duration(record))
            if record["name"] == "iteration":
                registry.histogram("iteration_seconds").observe(
                    _duration(record)
                )
            elif record["name"] == "migrate":
                registry.counter("migration_bytes").inc(
                    float(attrs.get("bytes", 0))
                )
                registry.counter("migration_seconds").inc(
                    float(attrs.get("sim_seconds", 0.0))
                )
        elif record.get("name") == "comm.exchange":
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
    source: "Tracer | NullTracer | str | os.PathLike | Iterable[dict[str, Any]]",
    path: str | os.PathLike,
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(flamegraph_collapsed(source))


def write_speedscope(
    source: "Tracer | NullTracer | str | os.PathLike | Iterable[dict[str, Any]]",
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
        self.phase_seconds[span.name] = (
            self.phase_seconds.get(span.name, 0.0) + duration
        )
        if span.rank is not None and span.name in _RANK_PHASES:
            self.rank_busy[span.rank] = (
                self.rank_busy.get(span.rank, 0.0) + duration
            )
        if span.name == "iteration":
            self.iterations += 1
            self.last_iteration_s = duration
            critical = span.attributes.get("critical_rank")
            if critical is not None:
                self.last_critical_rank = int(critical)
                self.critical_counts[int(critical)] = (
                    self.critical_counts.get(int(critical), 0) + 1
                )

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
