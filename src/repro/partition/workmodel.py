"""Vectorized per-box work model -- the single source of box weights.

Every partitioner, :meth:`PartitionResult.loads`, the partition metrics
and the runtime loop need the same box weights many times per
repartition.  The AMReX load-balancing literature treats per-box weights
as one precomputed vector handed to interchangeable strategies;
:class:`WorkModel` is that vector, plus the one-row formula box
*splitting* prices its pieces with.

Contract
--------
- :meth:`WorkModel.vector` returns the per-box work of a ``BoxList``
  as one read-only ``float64`` array, computed vectorized over its
  ``int64`` columns and memoized per list object (``BoxList`` is
  immutable, so identity caching is safe).
- :meth:`WorkModel.work_row` prices a single box given as a plain
  ``(lower, upper, level)`` row, without a memo.  Its one caller is the
  split kernel (:func:`repro.partition.splitting.split_row_to_target`),
  which prices each piece it cuts exactly once and returns the price
  with the piece; a partitioner hands that price back in when it cuts
  the piece again, so no row is priced twice and nothing outlives a
  call.
- :meth:`WorkModel.total` reduces the vector with *sequential* (left to
  right) summation, so partitioner targets -- and therefore
  assignments -- depend neither on NumPy's pairwise reduction order nor
  on the Python version (builtin ``sum`` compensates from 3.12 on).

The default model is the Berger-Oliger weight
``cells * refine_factor ** level`` (finer grids have more cells *and*
subcycle more steps per coarse step, paper section 3.1).  For
application-specific weights (e.g. particle-weighted, per the AMReX
dual-grid studies) subclass and override :meth:`WorkModel.compute` *and*
:meth:`WorkModel.work_row` together -- they are the same formula over
columns and over one row, and a subclass defining only one of them is
rejected at class creation.
"""

from __future__ import annotations

from collections import OrderedDict
from math import prod
from operator import sub

import numpy as np

from repro.util.errors import PartitionError
from repro.util.geometry import BoxList

__all__ = ["WorkModel", "as_work_model"]

#: Vector results memoized per model; FIFO-bounded so a long run over many
#: epochs cannot grow without bound.
_MAX_CACHED_LISTS = 32


class WorkModel:
    """Berger-Oliger work, vectorized: ``cells * refine_factor ** level``."""

    def __init__(self, refine_factor: int = 2):
        if refine_factor < 1:
            raise PartitionError(
                f"refine_factor must be >= 1, got {refine_factor}"
            )
        self.refine_factor = int(refine_factor)
        # id -> (pinned sequence, vector); pinning the sequence keeps its
        # id from being reused while the entry lives.
        self._list_cache: OrderedDict[int, tuple[object, np.ndarray]] = (
            OrderedDict()
        )

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # One formula, two hooks: a subclass re-pricing only the vector
        # (or only the row) would split boxes with a different formula
        # than it weighs them with.
        missing = [
            h for h in ("compute", "work_row") if h not in cls.__dict__
        ]
        if len(missing) == 1:
            raise TypeError(
                f"{cls.__name__} overrides only one of WorkModel.compute /"
                f" WorkModel.work_row; also override {missing[0]}"
            )

    @property
    def name(self) -> str:
        return f"cells*{self.refine_factor}^level"

    # ------------------------------------------------------------------
    # Vector path
    # ------------------------------------------------------------------
    def compute(self, boxes: BoxList) -> np.ndarray:
        """Uncached per-box work vector, straight off the ``int64``
        columns (the vector hook of a custom model; override together
        with :meth:`work_row`)."""
        arr = boxes.array
        if len(arr) == 0:
            return np.zeros(0)
        cells = arr.num_cells()
        return (cells * self.refine_factor**arr.level).astype(np.float64)

    def vector(self, boxes: BoxList) -> np.ndarray:
        """Per-box work of ``boxes`` as one read-only float64 array.

        Memoized on the list object's identity -- pass the same
        ``BoxList`` twice and the second call is a dict lookup.
        """
        key = id(boxes)
        hit = self._list_cache.get(key)
        if hit is not None and hit[0] is boxes:
            return hit[1]
        vec = self.compute(boxes)
        vec.setflags(write=False)
        self._list_cache[key] = (boxes, vec)
        while len(self._list_cache) > _MAX_CACHED_LISTS:
            self._list_cache.popitem(last=False)
        return vec

    def total(self, boxes: BoxList) -> float:
        """Total work, summed strictly left to right: a per-box
        ``total += w`` loop gives the same float bit for bit.

        ``np.cumsum`` is that left fold.  Builtin ``sum`` is not: from
        Python 3.12 it compensates float rounding (Neumaier), so
        ``sum([2.0**53, 1.0, 1.0])`` is ``2.0**53 + 2`` there.
        """
        vec = self.vector(boxes)
        return float(np.cumsum(vec)[-1]) if len(vec) else 0.0

    # ------------------------------------------------------------------
    # Single-box path (splitting)
    # ------------------------------------------------------------------
    def work_row(
        self,
        lower: tuple[int, ...],
        upper: tuple[int, ...],
        level: int,
    ) -> float:
        """Work of one box given as plain ``(lower, upper, level)`` tuples.

        The row hook of a custom model (override together with
        :meth:`compute`): exact Python-int arithmetic, one call per split
        piece.
        """
        cells_times_weight = prod(
            map(sub, upper, lower), start=self.refine_factor**level
        )
        return float(cells_times_weight)


def as_work_model(
    work_of: WorkModel | None,
    refine_factor: int = 2,
) -> WorkModel:
    """The model a ``work_of`` argument stands for.

    ``None`` yields the default Berger-Oliger model; an existing model
    passes through (preserving its caches).  Anything else -- a per-box
    callable included -- is a :class:`PartitionError`.
    """
    if work_of is None:
        return WorkModel(refine_factor)
    if isinstance(work_of, WorkModel):
        return work_of
    raise PartitionError(
        f"work_of must be a WorkModel or None, got {work_of!r}; for custom"
        f" weights subclass WorkModel (override compute and work_row)"
    )
