"""The row-at-a-time trace readers the vector readers replaced.

``analyze_critical_path`` and ``comm_profile`` read each ``iteration``
span's rank vectors and each exchange's pair table as arrays.  The
functions below are the code they replaced, copied verbatim but for
names: the critical path walks the expanded rank rows of
:attr:`~repro.telemetry.model.RunView.columns`, the comm profile joins
every event's rows (:func:`pair_rows`) and folds them one by one into
growing list matrices (:func:`zeros`, :func:`grow`, :func:`add_pairs`).
They are the oracle of ``tests/telemetry/test_vector_readers.py``, and
:func:`pair_rows` lists an exchange's pairs for the tests that read
them row by row.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Sequence

from repro.telemetry.model import RANK_TRACK, TraceModel, TraceSource
from repro.telemetry.profile import (
    CommMatrix,
    CommProfile,
    IterationPath,
    PathSegment,
    RunCriticalPath,
)
from repro.util.errors import TelemetryError


def pair_rows(
    attributes: dict[str, Any], tables: dict[Any, list]
) -> list[tuple[Any, Any, Any, Any, Any]]:
    """A ``comm.exchange`` event's ``(src, dst, bytes, seconds,
    derated)`` rows: its pair table (from ``tables``, by the event's
    ``table``) joined with its own ``pair_seconds`` / ``pair_derated``."""
    table = tables.get(attributes.get("table"))
    if table is None:
        raise TelemetryError(
            f"comm.exchange names pair table {attributes.get('table')!r}, "
            "which no exchange of its run recorded"
        )
    return [
        (src, dst, nbytes, seconds, derated)
        for (src, dst, nbytes), seconds, derated in zip(
            table, attributes["pair_seconds"], attributes["pair_derated"]
        )
    ]


def zeros(size: int) -> CommMatrix:
    """A ``size``-wide matrix of zeros."""
    matrix = CommMatrix(0, [], [], [], [])
    grow(matrix, size)
    return matrix


def grow(matrix: CommMatrix, size: int) -> None:
    """Widen ``matrix`` in place to ``size`` ranks."""
    if size <= matrix.size:
        return
    for name in ("bytes", "seconds", "messages", "derated_bytes"):
        cells = getattr(matrix, name)
        filler = 0 if name == "messages" else 0.0
        for row in cells:
            row.extend([filler] * (size - matrix.size))
        for _ in range(size - matrix.size):
            cells.append([filler] * size)
    matrix.size = size


def add_pairs(
    matrix: CommMatrix,
    rows: Sequence[Sequence[Any]],
    total: CommMatrix | None = None,
) -> None:
    """Fold one event's ``(src, dst, bytes, seconds, derated)`` rows
    into ``matrix`` and, if given, into ``total`` too: grow once, to the
    largest rank named, then add row by row."""
    top = int(
        max(
            max(map(itemgetter(0), rows), default=-1),
            max(map(itemgetter(1), rows), default=-1),
        )
    )
    into = [matrix] if total is None else [matrix, total]
    for m in into:
        grow(m, top + 1)
    cells = [(m.bytes, m.seconds, m.messages, m.derated_bytes) for m in into]
    for src, dst, nbytes, seconds, derated in rows:
        src, dst = int(src), int(dst)
        for nbytes_m, seconds_m, messages_m, derated_m in cells:
            nbytes_m[src][dst] += nbytes
            seconds_m[src][dst] += seconds
            messages_m[src][dst] += 1
            if derated:
                derated_m[src][dst] += nbytes


def row_comm_profile(
    source: TraceSource,
    run_labels: dict[int, str] | None = None,
) -> list[CommProfile]:
    """``comm_profile`` folding :func:`pair_rows` with :func:`add_pairs`."""
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
                matrix = profile.phases[phase] = zeros(size)
            grow(matrix, size)
            grow(profile.total, size)
            add_pairs(matrix, pair_rows(attrs, view.pair_tables), profile.total)
            profile.events += 1
            profile.pairs_dropped += int(attrs.get("pairs_dropped", 0))
        profiles.append(profile)
    return profiles


def row_analyze_critical_path(
    source: TraceSource,
    run_labels: dict[int, str] | None = None,
) -> list[RunCriticalPath]:
    """``analyze_critical_path`` walking the rank rows of
    :attr:`RunView.columns`."""
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
