"""Partitioner interface and result record."""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.partition.workmodel import WorkModel, as_work_model
from repro.telemetry.spans import NULL_TRACER
from repro.util.errors import PartitionError
from repro.util.geometry import BoxArray, BoxList, Layout

__all__ = [
    "WorkModel",
    "as_work_model",
    "PartitionResult",
    "Partitioner",
    "check_tiling",
]

#: Same-source piece pairs :func:`check_tiling` tests directly; above
#: this, its clause 4 grid-hashes the split pieces instead.
MAX_PIECE_PAIRS = 1 << 22


@dataclass(frozen=True, eq=False)
class PartitionResult:
    """Outcome of one partitioning call.

    Attributes
    ----------
    layout:
        The (possibly split) input boxes and the rank each one went to,
        as one :class:`~repro.util.geometry.Layout`; a repartition that
        only reads :meth:`loads` / :meth:`rank_vector` / :meth:`boxes`
        never builds per-box Python objects.
    targets:
        Ideal per-rank loads ``L_k`` the partitioner aimed for.
    num_splits:
        How many box splits were performed.
    work_model:
        The :class:`~repro.partition.workmodel.WorkModel` the partitioner
        priced boxes with; :meth:`loads` and :meth:`work_vector` price
        with it (the default model when ``None``), so load accounting
        reuses the partitioner's cached vectors.
    """

    layout: Layout
    targets: np.ndarray
    num_splits: int = 0
    work_model: WorkModel | None = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionResult({self.num_assigned()} boxes, "
            f"{self.num_ranks} ranks, {self.num_splits} splits)"
        )

    def num_assigned(self) -> int:
        """Number of assigned boxes, without materializing box objects."""
        return len(self.layout)

    @property
    def num_ranks(self) -> int:
        return len(self.targets)

    def boxes(self) -> BoxList:
        """The assigned boxes."""
        return self.layout.boxes

    def rank_vector(self) -> np.ndarray:
        """Assigned rank per box, aligned with :meth:`boxes` (read-only)."""
        return self.layout.ranks

    def work_vector(self) -> np.ndarray:
        """Per-box work aligned with :meth:`boxes` (cached vector)."""
        return as_work_model(self.work_model).vector(self.boxes())

    def loads(self) -> np.ndarray:
        """Realized per-rank work W_k, from the cached work vector."""
        if not self.num_assigned():
            return np.zeros(self.num_ranks)
        return np.bincount(
            self.rank_vector(),
            weights=self.work_vector(),
            minlength=self.num_ranks,
        )

    def validate_covers(self, original: BoxList) -> None:
        """Check the assignment tiles exactly the input boxes.

        Total cells per level must match and assigned boxes must be
        disjoint; raises :class:`PartitionError` otherwise.  Runs on the
        cached column views of both lists -- no per-box objects.

        The provenance-free oracle for tests and benchmarks: partitioners
        certify themselves with the stronger, cheaper :func:`check_tiling`.
        """
        got = self.boxes()
        got_cells = got.cells_by_level()
        orig_cells = original.cells_by_level()
        for level in sorted(set(got_cells) | set(orig_cells)):
            if got_cells.get(level, 0) != orig_cells.get(level, 0):
                raise PartitionError(
                    f"assignment lost cells at level {level}: "
                    f"{got_cells.get(level, 0)} != "
                    f"{orig_cells.get(level, 0)}"
                )
        if not got.is_disjoint():
            raise PartitionError("assignment produced overlapping boxes")


def check_tiling(
    original: BoxList, layout: Layout, source: np.ndarray, num_ranks: int
) -> None:
    """Certify that ``layout`` tiles the disjoint ``original`` exactly.

    ``source[i]`` is the input row layout row ``i`` is, or was cut from.
    Raises :class:`PartitionError` naming the first violated clause:

    1. ``source`` has one entry per row, each an input row index;
    2. every row is at its source's level and inside its source's box;
    3. each source's pieces sum to exactly its cells;
    4. the pieces of every split source (count > 1) are pairwise disjoint;
    5. every rank is in ``[0, num_ranks)``.

    With a disjoint input (:meth:`Partitioner._check_inputs`), 2-4 say
    the pieces of each source tile it and pieces of different sources
    cannot meet -- the output is a disjoint exact cover.  That is
    stronger than :meth:`PartitionResult.validate_covers`, which keeps
    only per-level totals (a piece moved into a hole passes) and never
    reads ranks.  Every pass is O(rows) over the columns; clause 4 tests
    only pairs of pieces cut from one source (pieces of different
    sources lie inside disjoint sources), and grid-hashes the split
    pieces only when those pairs outnumber :data:`MAX_PIECE_PAIRS`.
    """
    orig, got = original.array, layout.boxes.array
    n, m = len(orig), len(got)
    src = np.asarray(source)
    if src.shape != (m,) or (
        m and (src.dtype.kind not in "iu" or src.min() < 0 or src.max() >= n)
    ):
        raise PartitionError(
            f"tiling certificate: source must give one input row in "
            f"[0, {n}) per layout row ({m} rows)"
        )
    # np.take gathers whole rows several times faster than fancy indexing.
    if m and (
        got.ndim != orig.ndim
        or not np.array_equal(got.level, orig.level[src])
        or not (got.lower >= np.take(orig.lower, src, axis=0)).all()
        or not (got.upper <= np.take(orig.upper, src, axis=0)).all()
    ):
        raise PartitionError(
            "tiling certificate: a row is not inside its source box "
            "at its level"
        )
    want = orig.num_cells()
    per_source = np.zeros(n, dtype=np.int64)
    np.add.at(per_source, src, got.num_cells())
    if not np.array_equal(per_source, want):
        bad = int(np.flatnonzero(per_source != want)[0])
        raise PartitionError(
            f"tiling certificate: input row {bad} has {int(per_source[bad])} "
            f"cells assigned, not {int(want[bad])}"
        )
    split = np.flatnonzero(np.bincount(src, minlength=n)[src] > 1)
    if split.size and _split_pieces_overlap(got, src, split):
        raise PartitionError(
            "tiling certificate: pieces of a split box overlap"
        )
    ranks = layout.ranks
    if m and int(ranks.max()) >= num_ranks:
        raise PartitionError(
            f"tiling certificate: rank {int(ranks.max())} outside "
            f"[0, {num_ranks})"
        )


def _split_pieces_overlap(
    got: BoxArray, src: np.ndarray, split: np.ndarray
) -> bool:
    """True if two of the ``split`` rows cut from one source overlap.

    Sorted by source, each row is paired with the later rows of its
    group (pieces of one source share its level).  Past
    :data:`MAX_PIECE_PAIRS` pairs -- a source cut into thousands of
    pieces -- the grid hash over all split rows is the cheaper test.
    """
    by_source = src[split]
    order = np.argsort(by_source, kind="stable")
    by_source = by_source[order]
    rows = split[order]
    pos = np.arange(rows.size)
    group_end = np.searchsorted(by_source, by_source, side="right")
    counts = group_end - pos - 1
    if int(counts.sum()) > MAX_PIECE_PAIRS:
        return not got.take(split).is_disjoint()
    return BoxArray._pairs_overlap(
        np.take(got.lower, rows, axis=0),
        np.take(got.upper, rows, axis=0),
        pos,
        pos + 1,
        counts,
    )


def running_remainders(remaining: float, works: np.ndarray) -> np.ndarray:
    """What ``remaining -= w`` leaves before each of ``works``, and after
    the last: ``[remaining, remaining - w0, remaining - w0 - w1, ...]``.

    ``np.subtract.accumulate`` is a strict left fold of IEEE
    subtractions, so every entry is the float the per-box loop computes
    -- a whole run of boxes is accepted with one call.
    """
    return np.subtract.accumulate(np.concatenate(([remaining], works)))


def _scoped_partition(impl: Callable) -> Callable:
    """Wrap a subclass's ``partition``: resolve its work model and
    record a telemetry span.

    The model keeps no per-call state (split pieces are priced once, by
    the split kernel, and carried with their rows), so a run may hand
    every repartition the same model.  With the default
    :data:`~repro.telemetry.spans.NULL_TRACER` the span costs one
    attribute lookup and one no-op call; with an enabled tracer every
    partition call -- including inner calls made by composite
    partitioners -- records its wall time, box/split counts and realized
    makespan of the decomposition.
    """

    @functools.wraps(impl)
    def partition(self, boxes, capacities, work_of=None):
        model = as_work_model(work_of)
        tracer = self.tracer
        if not tracer.enabled:
            return impl(self, boxes, capacities, model)
        with tracer.span(
            "partition", partitioner=self.name, num_boxes=len(boxes)
        ) as span:
            result = impl(self, boxes, capacities, model)
            span.set(
                num_assigned=result.num_assigned(),
                num_splits=result.num_splits,
                num_ranks=result.num_ranks,
            )
        metrics = tracer.metrics
        metrics.counter("partition_calls", partitioner=self.name).inc()
        if result.num_splits:
            metrics.counter("boxes_split").inc(result.num_splits)
            tracer.event(
                "split", partitioner=self.name, count=result.num_splits
            )
        return result

    partition._partition_wrapped = True  # type: ignore[attr-defined]
    return partition


class Partitioner(abc.ABC):
    """Common interface: distribute a bounding-box list over ranks with
    given relative capacities.

    Subclasses implement :meth:`partition`; the base class transparently
    wraps each implementation (:func:`_scoped_partition`): the call
    resolves its work model and is a telemetry span driven by the
    partitioner's ``tracer`` attribute (the shared no-op tracer unless
    the runtime attaches a real one).
    """

    #: human-readable name used in experiment reports
    name: str = "abstract"

    #: telemetry sink; the runtime replaces this when tracing is enabled
    tracer = NULL_TRACER

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        impl = cls.__dict__.get("partition")
        if impl is not None and not getattr(impl, "_partition_wrapped", False):
            cls.partition = _scoped_partition(impl)

    @abc.abstractmethod
    def partition(
        self,
        boxes: BoxList,
        capacities: Sequence[float],
        work_of: WorkModel | None = None,
    ) -> PartitionResult:
        """Distribute ``boxes`` over ``len(capacities)`` ranks.

        ``capacities`` are relative (summing to ~1); ``work_of`` is the
        :class:`~repro.partition.workmodel.WorkModel` pricing the boxes
        (its cached vector prices the whole box list at once), or
        ``None`` for the default Berger-Oliger model.
        """

    def set_tracer(self, tracer) -> None:
        """Attach ``tracer`` to this partitioner and nested partitioners.

        Composite schemes (levelwise, hybrid) delegate to inner
        partitioners held as attributes; walking ``vars(self)`` attaches
        the tracer to the whole tree so inner partition calls show up as
        nested spans.
        """
        self.tracer = tracer
        for value in vars(self).values():
            if isinstance(value, Partitioner):
                value.set_tracer(tracer)
            elif isinstance(value, (list, tuple, dict)):
                items = value.values() if isinstance(value, dict) else value
                for item in items:
                    if isinstance(item, Partitioner):
                        item.set_tracer(tracer)

    @staticmethod
    def _check_inputs(
        boxes: BoxList, capacities: Sequence[float]
    ) -> np.ndarray:
        caps = np.asarray(capacities, dtype=float)
        if caps.ndim != 1 or len(caps) == 0:
            raise PartitionError("capacities must be a non-empty 1-D sequence")
        if not np.isfinite(caps).all():
            raise PartitionError("capacities must be finite")
        if (caps < 0).any():
            raise PartitionError("capacities must be non-negative")
        if caps.sum() <= 0:
            raise PartitionError("total capacity must be positive")
        # Before any work: a tiling certificate over overlapping sources
        # proves nothing, and the verdict is memoized on the input.
        if not boxes.is_disjoint():
            raise PartitionError("input boxes overlap")
        return caps / caps.sum()
