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
from repro.util.geometry import BoxList, Layout

__all__ = [
    "WorkModel",
    "as_work_model",
    "PartitionResult",
    "Partitioner",
]


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


def _traced_partition(impl: Callable) -> Callable:
    """Wrap a subclass's ``partition`` in a telemetry span.

    With the default :data:`~repro.telemetry.spans.NULL_TRACER` the wrapper
    costs one attribute lookup and one no-op call; with an enabled tracer
    every partition call -- including inner calls made by composite
    partitioners -- records its wall time, box/split counts and realized
    makespan of the decomposition.
    """

    @functools.wraps(impl)
    def partition(self, boxes, capacities, work_of=None):
        tracer = self.tracer
        if not tracer.enabled:
            return impl(self, boxes, capacities, work_of)
        with tracer.span(
            "partition", partitioner=self.name, num_boxes=len(boxes)
        ) as span:
            result = impl(self, boxes, capacities, work_of)
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

    partition._telemetry_wrapped = True  # type: ignore[attr-defined]
    return partition


class Partitioner(abc.ABC):
    """Common interface: distribute a bounding-box list over ranks with
    given relative capacities.

    Subclasses implement :meth:`partition`; the base class transparently
    wraps each implementation in a telemetry span driven by the
    partitioner's ``tracer`` attribute (the shared no-op tracer unless the
    runtime attaches a real one).
    """

    #: human-readable name used in experiment reports
    name: str = "abstract"

    #: telemetry sink; the runtime replaces this when tracing is enabled
    tracer = NULL_TRACER

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        impl = cls.__dict__.get("partition")
        if impl is not None and not getattr(impl, "_telemetry_wrapped", False):
            cls.partition = _traced_partition(impl)

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
        if (caps < 0).any():
            raise PartitionError("capacities must be non-negative")
        if caps.sum() <= 0:
            raise PartitionError("total capacity must be positive")
        return caps / caps.sum()
