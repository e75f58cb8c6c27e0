"""Rectilinear index-space geometry: :class:`Box`, :class:`BoxArray`,
:class:`BoxList` and :class:`Layout`.

GrACE maintains every component grid of the adaptive hierarchy as a *list of
bounding boxes*: a bounding box is a rectilinear region of the computational
domain defined by a lower bound, an upper bound and a refinement level (the
level fixes the stride of the box's cells relative to the base grid).  The
partitioners in :mod:`repro.partition` operate purely on these box lists, so
this module is the common currency of the whole system.

Two representations coexist:

- :class:`Box` -- one frozen object per box; convenient for construction,
  splitting and the object-level geometry algebra.
- :class:`BoxArray` -- struct-of-arrays metadata: contiguous ``int64``
  columns (``lower``, ``upper``, ``level``) over *all* boxes at once.  This
  is the extreme-scale form (Schornbaum & Rüde, arXiv:1704.06829): the SFC
  index, the work model and the partitioners operate on these columns
  directly, so a million-box repartition never walks Python objects.

:class:`BoxList` is the list GrACE hands a partitioner, and it is exactly
one :class:`BoxArray` (:attr:`BoxList.array`): boxes given as objects are
lowered to columns once, on construction, and iterating or indexing the
list builds :class:`Box` objects on demand without storing them.
:class:`Layout` pairs such a list with one rank per box: the value that
says which rank owns which box.

Conventions
-----------
- Coordinates are integer cell indices **in the box's own level index space**.
- ``lower`` is inclusive, ``upper`` is exclusive (NumPy slice convention), so
  ``shape[d] == upper[d] - lower[d]``.
- Boxes are immutable; every operation returns a new :class:`Box`.
- ``level`` 0 is the coarsest (base) grid.  Refining by ``factor`` multiplies
  coordinates by ``factor`` and increments ``level``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.util.errors import GeometryError

__all__ = [
    "Box",
    "BoxArray",
    "BoxList",
    "Layout",
    "overlap_pairs",
    "volumes_by_rank_pair",
]


def _as_int_tuple(values: Sequence[int], what: str) -> tuple[int, ...]:
    """Coerce a coordinate sequence to a tuple of Python ints.

    Accepts any integer-like sequence (lists, NumPy arrays).  Raises
    :class:`GeometryError` for non-integral values so silent float
    truncation can never corrupt box arithmetic.
    """
    out = []
    for v in values:
        iv = int(v)
        if iv != v:
            raise GeometryError(f"{what} coordinate {v!r} is not integral")
        out.append(iv)
    return tuple(out)


@dataclass(frozen=True, slots=True)
class Box:
    """An axis-aligned rectilinear region of a refinement level's index space.

    Parameters
    ----------
    lower:
        Inclusive lower corner, one integer per dimension.
    upper:
        Exclusive upper corner; must dominate ``lower`` strictly in every
        dimension (empty boxes are illegal -- use :class:`BoxList` emptiness
        instead).
    level:
        Refinement level the coordinates live on; level 0 is the base grid.

    Examples
    --------
    >>> b = Box((0, 0), (8, 4))
    >>> b.shape
    (8, 4)
    >>> b.num_cells
    32
    >>> left, right = b.split(axis=0, position=3)
    >>> left.shape, right.shape
    ((3, 4), (5, 4))
    """

    lower: tuple[int, ...]
    upper: tuple[int, ...]
    level: int = 0

    def __post_init__(self) -> None:
        lo = _as_int_tuple(self.lower, "lower")
        up = _as_int_tuple(self.upper, "upper")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        if len(lo) != len(up):
            raise GeometryError(
                f"dimensionality mismatch: lower has {len(lo)} dims, "
                f"upper has {len(up)}"
            )
        if len(lo) == 0:
            raise GeometryError("zero-dimensional boxes are not supported")
        if int(self.level) < 0:
            raise GeometryError(f"negative refinement level {self.level}")
        object.__setattr__(self, "level", int(self.level))
        for d, (a, b) in enumerate(zip(lo, up)):
            if b <= a:
                raise GeometryError(
                    f"empty box along axis {d}: lower={a}, upper={b}"
                )

    # ------------------------------------------------------------------
    # Basic measures
    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        """Number of spatial dimensions."""
        return len(self.lower)

    @property
    def shape(self) -> tuple[int, ...]:
        """Extent (number of cells) along each axis."""
        return tuple(u - l for l, u in zip(self.lower, self.upper))

    @property
    def num_cells(self) -> int:
        """Total number of cells in the box."""
        n = 1
        for s in self.shape:
            n *= s
        return n

    def __contains__(self, point: Sequence[int]) -> bool:
        if len(point) != self.ndim:
            return False
        return all(l <= p < u for p, l, u in zip(point, self.lower, self.upper))

    # ------------------------------------------------------------------
    # Set-like operations
    # ------------------------------------------------------------------
    def intersects(self, other: "Box") -> bool:
        """True if the two boxes share at least one cell (same level only)."""
        self._check_compatible(other)
        return all(
            a_lo < b_up and b_lo < a_up
            for a_lo, a_up, b_lo, b_up in zip(
                self.lower, self.upper, other.lower, other.upper
            )
        )

    def intersection(self, other: "Box") -> "Box | None":
        """The overlapping region, or ``None`` when disjoint."""
        self._check_compatible(other)
        lo = tuple(max(a, b) for a, b in zip(self.lower, other.lower))
        up = tuple(min(a, b) for a, b in zip(self.upper, other.upper))
        if any(u <= l for l, u in zip(lo, up)):
            return None
        return Box(lo, up, self.level)

    def contains_box(self, other: "Box") -> bool:
        """True if ``other`` lies entirely inside this box."""
        self._check_compatible(other)
        return all(
            s_lo <= o_lo and o_up <= s_up
            for s_lo, s_up, o_lo, o_up in zip(
                self.lower, self.upper, other.lower, other.upper
            )
        )

    def bounding_union(self, other: "Box") -> "Box":
        """Smallest box containing both operands (not a set union)."""
        self._check_compatible(other)
        lo = tuple(min(a, b) for a, b in zip(self.lower, other.lower))
        up = tuple(max(a, b) for a, b in zip(self.upper, other.upper))
        return Box(lo, up, self.level)

    def difference(self, other: "Box") -> "BoxList":
        """Cells of this box not covered by ``other``, as disjoint boxes.

        Uses axis-by-axis slab decomposition, producing at most ``2 * ndim``
        pieces.  Returns the whole box when the operands are disjoint.
        """
        inter = self.intersection(other)
        if inter is None:
            return BoxList([self])
        pieces: list[Box] = []
        lo = list(self.lower)
        up = list(self.upper)
        for d in range(self.ndim):
            if lo[d] < inter.lower[d]:
                p_lo, p_up = list(lo), list(up)
                p_up[d] = inter.lower[d]
                pieces.append(Box(tuple(p_lo), tuple(p_up), self.level))
            if inter.upper[d] < up[d]:
                p_lo, p_up = list(lo), list(up)
                p_lo[d] = inter.upper[d]
                pieces.append(Box(tuple(p_lo), tuple(p_up), self.level))
            lo[d] = inter.lower[d]
            up[d] = inter.upper[d]
        return BoxList(pieces)

    def _check_compatible(self, other: "Box") -> None:
        if self.ndim != other.ndim:
            raise GeometryError(
                f"dimensionality mismatch: {self.ndim} vs {other.ndim}"
            )
        if self.level != other.level:
            raise GeometryError(
                f"level mismatch: {self.level} vs {other.level}; refine or "
                "coarsen one operand first"
            )

    # ------------------------------------------------------------------
    # Splitting
    # ------------------------------------------------------------------
    def split(self, axis: int, position: int) -> tuple["Box", "Box"]:
        """Cut the box into two along ``axis`` at level coordinate ``position``.

        ``position`` must fall strictly inside the box's extent along the
        axis so both halves are non-empty.
        """
        if not 0 <= axis < self.ndim:
            raise GeometryError(f"axis {axis} out of range for {self.ndim}-D box")
        if not self.lower[axis] < position < self.upper[axis]:
            raise GeometryError(
                f"split position {position} outside open interval "
                f"({self.lower[axis]}, {self.upper[axis]}) on axis {axis}"
            )
        up_a = list(self.upper)
        up_a[axis] = position
        lo_b = list(self.lower)
        lo_b[axis] = position
        return (
            Box(self.lower, tuple(up_a), self.level),
            Box(tuple(lo_b), self.upper, self.level),
        )

    # ------------------------------------------------------------------
    # Level changes and ghosting
    # ------------------------------------------------------------------
    def refine(self, factor: int = 2) -> "Box":
        """The same physical region expressed one level finer."""
        if factor < 2:
            raise GeometryError(f"refinement factor must be >= 2, got {factor}")
        return Box(
            tuple(l * factor for l in self.lower),
            tuple(u * factor for u in self.upper),
            self.level + 1,
        )

    def coarsen(self, factor: int = 2) -> "Box":
        """The covering region one level coarser (rounds outward)."""
        if factor < 2:
            raise GeometryError(f"coarsening factor must be >= 2, got {factor}")
        if self.level == 0:
            raise GeometryError("cannot coarsen below level 0")
        lo = tuple(l // factor for l in self.lower)
        up = tuple(-(-u // factor) for u in self.upper)  # ceil division
        return Box(lo, up, self.level - 1)

    def grow(self, width: int) -> "Box":
        """Expand (or shrink, for negative ``width``) by ``width`` cells per side."""
        lo = tuple(l - width for l in self.lower)
        up = tuple(u + width for u in self.upper)
        if any(u <= l for l, u in zip(lo, up)):
            raise GeometryError(f"grow({width}) would empty box {self}")
        return Box(lo, up, self.level)

    def clip(self, domain: "Box") -> "Box | None":
        """Intersection with ``domain`` (alias with intent: keep in-bounds)."""
        return self.intersection(domain)

    # ------------------------------------------------------------------
    # Conversions / iteration
    # ------------------------------------------------------------------
    def slices(self, origin: Sequence[int] | None = None) -> tuple[slice, ...]:
        """NumPy slices addressing this box within an array whose index 0
        corresponds to level coordinate ``origin`` (default: the box's own
        lower corner, i.e. slices over the box-local array)."""
        if origin is None:
            origin = self.lower
        org = _as_int_tuple(origin, "origin")
        return tuple(
            slice(l - o, u - o) for l, u, o in zip(self.lower, self.upper, org)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Box(L{self.level} {self.lower}->{self.upper})"


class BoxArray:
    """Struct-of-arrays box metadata: contiguous ``int64`` columns.

    ``lower`` and ``upper`` have shape ``(n, ndim)``; ``level`` has shape
    ``(n,)``.  The columns are frozen (read-only) on construction -- a
    ``BoxArray`` is the immutable backing store of a :class:`BoxList`, and
    downstream consumers (work model, SFC index, partitioners) may alias
    its columns without defensive copies.

    Row ``i`` corresponds to ``Box(tuple(lower[i]), tuple(upper[i]),
    int(level[i]))``; :meth:`box` / :meth:`to_boxes` materialize that view
    on demand.  All bulk geometry (cell counts, level bucketing, overlap
    sweeps, deterministic sort orders) runs directly on the columns.
    """

    __slots__ = (
        "lower",
        "upper",
        "level",
        "_num_cells",
        "_cells_by_level",
        "_disjoint",
    )

    #: most bins per box for which the overlap test looks buckets up in a
    #: per-bin offset table (then about as large as the corner columns)
    _DENSE_BINS_PER_BOX = 4

    def __init__(
        self,
        lower: np.ndarray,
        upper: np.ndarray,
        level: np.ndarray,
    ) -> None:
        lower = np.ascontiguousarray(lower, dtype=np.int64)
        upper = np.ascontiguousarray(upper, dtype=np.int64)
        level = np.ascontiguousarray(level, dtype=np.int64)
        if lower.ndim != 2:
            raise GeometryError(
                f"lower must have shape (n, ndim), got {lower.shape}"
            )
        if upper.shape != lower.shape:
            raise GeometryError(
                f"upper shape {upper.shape} != lower shape {lower.shape}"
            )
        if level.shape != (lower.shape[0],):
            raise GeometryError(
                f"level must have shape ({lower.shape[0]},), got {level.shape}"
            )
        if lower.shape[0]:
            if bool((upper <= lower).any()):
                raise GeometryError("empty box in BoxArray (upper <= lower)")
            if bool((level < 0).any()):
                raise GeometryError("negative refinement level in BoxArray")
        for col in (lower, upper, level):
            col.setflags(write=False)
        self.lower = lower
        self.upper = upper
        self.level = level
        self._num_cells: np.ndarray | None = None
        self._cells_by_level: dict[int, int] | None = None
        self._disjoint: bool | None = None

    # -- constructors -------------------------------------------------------
    @classmethod
    def empty(cls, ndim: int = 1) -> "BoxArray":
        return cls(
            np.zeros((0, ndim), dtype=np.int64),
            np.zeros((0, ndim), dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )

    @classmethod
    def from_boxes(cls, boxes: Iterable[Box]) -> "BoxArray":
        seq = boxes if isinstance(boxes, (list, tuple)) else list(boxes)
        if not seq:
            return cls.empty()
        for b in seq:
            if not isinstance(b, Box):
                raise GeometryError(f"BoxList items must be Box, got {type(b)!r}")
        ndim = seq[0].ndim
        if any(b.ndim != ndim for b in seq):
            raise GeometryError("mixed dimensionality in BoxList")
        lower = np.array([b.lower for b in seq], dtype=np.int64)
        upper = np.array([b.upper for b in seq], dtype=np.int64)
        level = np.array([b.level for b in seq], dtype=np.int64)
        return cls(lower, upper, level)

    @staticmethod
    def concatenate(arrays: Sequence["BoxArray"]) -> "BoxArray":
        """Row-wise concatenation (empty operands are skipped)."""
        parts = [a for a in arrays if len(a)]
        if not parts:
            return BoxArray.empty(arrays[0].ndim if arrays else 1)
        if len(parts) == 1:
            return parts[0]
        return BoxArray(
            np.concatenate([a.lower for a in parts]),
            np.concatenate([a.upper for a in parts]),
            np.concatenate([a.level for a in parts]),
        )

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return self.lower.shape[0]

    @property
    def ndim(self) -> int:
        """Spatial dimensionality of every box in the array."""
        return self.lower.shape[1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BoxArray({len(self)} boxes, ndim={self.ndim})"

    # -- object views -------------------------------------------------------
    def box(self, i: int) -> Box:
        """Materialize row ``i`` as a :class:`Box` object."""
        i = int(i)
        return Box(
            tuple(self.lower[i].tolist()),
            tuple(self.upper[i].tolist()),
            int(self.level[i]),
        )

    def row(self, i: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """Row ``i`` as plain ``(lower, upper, level)`` Python tuples.

        The object-free currency of the columnar splitters: cheaper than
        :meth:`box` (no dataclass validation) and hashable for work memos.
        """
        i = int(i)
        return (
            tuple(self.lower[i].tolist()),
            tuple(self.upper[i].tolist()),
            int(self.level[i]),
        )

    def to_boxes(self) -> tuple[Box, ...]:
        """Materialize every row as a :class:`Box` (the object view)."""
        los = self.lower.tolist()
        ups = self.upper.tolist()
        lvls = self.level.tolist()
        return tuple(
            Box(tuple(lo), tuple(up), lv)
            for lo, up, lv in zip(los, ups, lvls)
        )

    # -- selection ----------------------------------------------------------
    def take(self, indices: np.ndarray) -> "BoxArray":
        """Rows selected/reordered by positional ``indices``."""
        idx = np.asarray(indices, dtype=np.intp)
        return BoxArray(self.lower[idx], self.upper[idx], self.level[idx])

    def level_indices(self, level: int) -> np.ndarray:
        """Positional indices of the rows on one refinement level."""
        return np.flatnonzero(self.level == level)

    def at_level(self, level: int) -> "BoxArray":
        """Sub-array of boxes on one refinement level.

        A mask selection keeps rows distinct, so a known-disjoint array
        hands its verdict down (:meth:`take` cannot: repeated indices may
        overlap).
        """
        sub = self.take(self.level_indices(level))
        if self._disjoint:
            sub._disjoint = True
        return sub

    # -- measures -----------------------------------------------------------
    def num_cells(self) -> np.ndarray:
        """Per-box cell count as an ``(n,)`` int64 array (memoized).

        The columns are frozen, so the counts are cached on first use --
        a repartition touches them several times (work vector, cover
        validation, load accounting) and repeated repartitions of an
        unchanged hierarchy skip the pass entirely.
        """
        if self._num_cells is not None:
            return self._num_cells
        if not len(self):
            out = np.zeros(0, dtype=np.int64)
        else:
            out = self.upper[:, 0] - self.lower[:, 0]
            for d in range(1, self.ndim):
                out = out * (self.upper[:, d] - self.lower[:, d])
        out.setflags(write=False)
        self._num_cells = out
        return out

    def total_cells(self) -> int:
        return int(self.num_cells().sum())

    def unique_levels(self) -> np.ndarray:
        return np.unique(self.level)

    def cells_by_level(self) -> dict[int, int]:
        """Total cell count per refinement level, in one vectorized pass."""
        if self._cells_by_level is not None:
            return dict(self._cells_by_level)
        if not len(self):
            return {}
        cells = self.num_cells()
        present = np.bincount(self.level)
        totals = np.bincount(self.level, weights=cells)
        if totals.max(initial=0.0) < 2.0**53:
            # float64 bincount sums are exact below 2**53 cells.
            by_level = {
                int(lvl): int(totals[lvl])
                for lvl in np.flatnonzero(present)
            }
        else:
            uniq, inverse = np.unique(self.level, return_inverse=True)
            exact = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(exact, inverse, cells)
            by_level = {
                int(lvl): int(tot) for lvl, tot in zip(uniq, exact)
            }
        self._cells_by_level = by_level
        return dict(by_level)

    # -- deterministic orderings -------------------------------------------
    def corner_lexsort(self, primary: np.ndarray | None = None) -> np.ndarray:
        """Stable sort indices by ``(primary, level, lower...)``.

        The columnar equivalent of ``sorted(range(n), key=lambda i:
        (primary[i], boxes[i].level, *boxes[i].lower))`` -- ``np.lexsort``
        is stable exactly like ``sorted``, so orders (and therefore downstream
        assignments) are identical to the object path.  With ``primary``
        omitted this is the canonical ``(level, lower)`` ordering.
        """
        keys = [self.lower[:, d] for d in range(self.ndim - 1, -1, -1)]
        keys.append(self.level)
        if primary is not None:
            keys.append(np.asarray(primary))
        return np.lexsort(keys)

    # -- overlap testing ----------------------------------------------------
    def is_disjoint(self) -> bool:
        """True when no two same-level boxes overlap (memoized).

        The columns are frozen, so the verdict is computed once per array:
        a partitioner checks its input here on entry, and repartitioning
        an unchanged hierarchy (or its :meth:`at_level` slices) pays
        nothing again.
        """
        if self._disjoint is None:
            self._disjoint = self._is_disjoint()
        return self._disjoint

    def _is_disjoint(self) -> bool:
        """The grid-hash overlap test behind :meth:`is_disjoint`.

        Small per-level groups use one broadcast comparison; larger ones a
        vectorized grid hash -- bin every box by its lower corner with a
        bin pitch of the level's maximum extent per axis, so two boxes can
        only overlap if their bins are identical or axis-adjacent.
        Candidate pairs then come from ``3**ndim / 2`` bucket joins over
        the bin-sorted rows, and the survivors get one exact broadcast
        test (chunked to bound memory).  A bucket is looked up in a dense
        per-bin offset table when the grid has at most
        ``_DENSE_BINS_PER_BOX`` bins per box (a tiling patchwork), and by
        binary search over the sorted keys otherwise (a sparse level in a
        large domain, where the table would outgrow the boxes).  Unlike a
        single-axis sweep this does not degenerate on grid-aligned
        patchworks where thousands of boxes share one column of the sweep
        axis.  It runs on whole million-box inputs -- every partitioner
        checks its input here -- so it must stay cheap at that scale.
        """
        if len(self) < 2:
            return True
        for lvl in np.flatnonzero(np.bincount(self.level)):
            idx = np.flatnonzero(self.level == lvl)
            n = idx.size
            if n < 2:
                continue
            # np.take gathers whole rows several times faster than
            # fancy indexing.
            lowers = np.take(self.lower, idx, axis=0)
            uppers = np.take(self.upper, idx, axis=0)
            if n <= 32:
                # All i<j pairs in one broadcast.
                hit = (
                    (lowers[:, None, :] < uppers[None, :, :])
                    & (lowers[None, :, :] < uppers[:, None, :])
                ).all(axis=2)
                iu = np.triu_indices(n, k=1)
                if bool(hit[iu].any()):
                    return False
                continue
            pitch = (uppers - lowers).max(axis=0)
            cell = lowers // pitch
            cell -= cell.min(axis=0)
            # One empty bin past the last on every axis: a row-major key
            # plus an offset's constant delta is then the neighbor's key,
            # or -- where a -1 component wraps below bin 0 -- the key of
            # an empty bin.  Either way it lies in [0, bins).
            dims = cell.max(axis=0) + 2
            strides = np.ones(self.ndim, dtype=np.int64)
            for d in range(self.ndim - 2, -1, -1):
                strides[d] = strides[d + 1] * dims[d + 1]
            key = cell @ strides
            order = np.argsort(key, kind="stable")
            lo = np.take(lowers, order, axis=0)
            up = np.take(uppers, order, axis=0)
            skey = key[order]
            bins = 1
            for d in dims.tolist():
                bins *= d
            if bins <= self._DENSE_BINS_PER_BOX * n:
                # Bin b holds the sorted rows bounds[b]:bounds[b + 1].
                bounds = np.zeros(bins + 1, dtype=np.int64)
                np.cumsum(np.bincount(skey, minlength=bins), out=bounds[1:])

                def bucket(t):
                    start = bounds[t]
                    return start, bounds[t + 1] - start

            else:

                def bucket(t):
                    start = np.searchsorted(skey, t, side="left")
                    return start, np.searchsorted(skey, t, side="right") - start

            pos = np.arange(n)
            # Same-bin pairs: every later row of the bucket.
            start, cnt = bucket(skey)
            if self._pairs_overlap(lo, up, pos, pos + 1, start + cnt - pos - 1):
                return False
            # Adjacent-bin pairs: only lexicographically positive offsets,
            # so each unordered pair joins exactly once.
            for off in itertools.product((-1, 0, 1), repeat=self.ndim):
                if off <= (0,) * self.ndim:
                    continue
                start, cnt = bucket(skey + int(np.dot(off, strides)))
                if self._pairs_overlap(lo, up, pos, start, cnt):
                    return False
        return True

    @staticmethod
    def _pairs_overlap(
        lo: np.ndarray,
        up: np.ndarray,
        src: np.ndarray,
        starts: np.ndarray,
        counts: np.ndarray,
        chunk: int = 1 << 20,
    ) -> bool:
        """True if any candidate pair of boxes overlaps in every axis.

        Source box ``src[k]`` is paired with the ``counts[k]`` rows
        beginning at ``starts[k]``; the pair expansion is chunked so the
        broadcast test never materializes more than ``chunk`` rows.
        """
        m = counts.size
        bounds = np.concatenate(([0], np.cumsum(counts)))
        if not int(bounds[-1]):
            return False
        i0 = 0
        while i0 < m:
            i1 = min(
                max(int(np.searchsorted(bounds, bounds[i0] + chunk)), i0 + 1),
                m,
            )
            c = counts[i0:i1]
            tot = int(c.sum())
            if tot:
                reps = np.repeat(np.arange(i0, i1), c)
                offsets = np.concatenate(([0], np.cumsum(c)[:-1]))
                ii = src[reps]
                jj = (
                    np.arange(tot)
                    - np.repeat(offsets, c)
                    + starts[reps]
                )
                # Filter axis by axis on 1-D column gathers, compressing
                # to survivors each round -- most candidates die on the
                # first axis, so the later gathers touch almost nothing.
                for d in range(lo.shape[1]):
                    keep = (lo[ii, d] < up[jj, d]) & (lo[jj, d] < up[ii, d])
                    ii = ii[keep]
                    jj = jj[keep]
                    if not ii.size:
                        break
                if ii.size:
                    return True
            i0 = i1
        return False


def overlap_pairs(
    a_lo: np.ndarray, a_up: np.ndarray, b_lo: np.ndarray, b_up: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every overlapping pair between two sets of same-level boxes.

    The operands are ``(n, ndim)`` corner columns (callers pass grown or
    coarsened corners, so these need not be rows of one ``BoxArray``).
    Returns ``(ai, bj, cells)``: the row indices of each pair whose
    intersection is non-empty and that intersection's cell count, ordered
    ``a``-major / ``b``-minor -- the order a nested ``for a: for b:``
    object walk visits them, which the volume planners' float sums and
    dict key order depend on.

    Candidates come from an axis-0 sweep: with ``b`` sorted by lower
    corner, box ``a`` can only meet the window ``a_lo0 - w < b_lo0 <
    a_up0`` (``w`` the widest ``b`` extent on that axis), found by two
    binary searches per ``a`` box.  The exact extent test drops the false
    positives, so memory is O(candidates), never O(len(a) * len(b)).
    """
    none = np.zeros(0, dtype=np.intp)
    if not len(a_lo) or not len(b_lo):
        return none, none, np.zeros(0, dtype=np.int64)
    order = np.argsort(b_lo[:, 0], kind="stable")
    sorted_lo0 = b_lo[order, 0]
    widest = int((b_up[:, 0] - b_lo[:, 0]).max())
    first = np.searchsorted(sorted_lo0, a_lo[:, 0] - widest, side="right")
    last = np.searchsorted(sorted_lo0, a_up[:, 0], side="left")
    counts = np.maximum(last - first, 0)
    total = int(counts.sum())
    ai = np.repeat(np.arange(len(a_lo)), counts)
    starts = np.cumsum(counts) - counts
    bj = order[np.arange(total) - np.repeat(starts - first, counts)]
    ext = np.minimum(a_up[ai], b_up[bj]) - np.maximum(a_lo[ai], b_lo[bj])
    hit = np.flatnonzero((ext > 0).all(axis=1))
    hit = hit[np.lexsort((bj[hit], ai[hit]))]
    return ai[hit], bj[hit], ext[hit].prod(axis=1)


def volumes_by_rank_pair(
    src: np.ndarray, dst: np.ndarray, cells: np.ndarray, bytes_per_cell: float
) -> dict[tuple[int, int], float]:
    """Bytes per directed ``(src, dst)`` rank pair over a run of overlaps.

    The columnar form of ``volumes[key] = volumes.get(key, 0.0) + c *
    bytes_per_cell`` walked in row order: same-rank rows are skipped, keys
    are inserted in first-appearance order (which
    :meth:`~repro.comm.simmpi.SimCommunicator.exchange_time` iterates) and
    ``np.bincount`` adds each key's rows in row order, so both the dict
    order and every float sum match the scalar walk bit for bit.
    """
    cross = np.flatnonzero(src != dst)
    if not cross.size:
        return {}
    src, dst = src[cross], dst[cross]
    base = min(int(src.min()), int(dst.min()))
    span = max(int(src.max()), int(dst.max())) - base + 1
    _, first, group = np.unique(
        (src - base) * span + (dst - base),
        return_index=True,
        return_inverse=True,
    )
    totals = np.bincount(group, weights=cells[cross] * bytes_per_cell)
    first.sort()
    return dict(
        zip(
            zip(src[first].tolist(), dst[first].tolist()),
            totals[group[first]].tolist(),
        )
    )


class BoxList:
    """An ordered, immutable-ish collection of boxes (possibly mixed-level).

    This is the unit the GrACE runtime hands to a partitioner at every
    regrid: the flattened bounding-box list of the whole grid hierarchy.

    A ``BoxList`` is exactly one :class:`BoxArray`, its :attr:`array`.
    Boxes passed as objects are lowered to columns once, on construction;
    :meth:`from_array` wraps existing columns.  Iteration and integer
    indexing build :class:`Box` objects on demand and never store them;
    everything else (length, slicing, selection, equality, hashing, cell
    accounting, overlap tests) reads the columns.
    """

    __slots__ = ("array",)

    def __init__(self, boxes: Iterable[Box] = ()):
        self.array = BoxArray.from_boxes(boxes)

    @classmethod
    def from_array(cls, array: BoxArray) -> "BoxList":
        """A list over existing columns (shared, not copied)."""
        if not isinstance(array, BoxArray):
            raise GeometryError(
                f"from_array expects a BoxArray, got {type(array)!r}"
            )
        self = object.__new__(cls)
        self.array = array
        return self

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self.array)

    def __iter__(self) -> Iterator[Box]:
        return iter(self.array.to_boxes())

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(np.arange(len(self))[i])
        return self.array.box(i)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoxList):
            return NotImplemented
        a, b = self.array, other.array
        # Empty lists are equal whatever their dimensionality.
        return len(a) == len(b) and (
            not len(a)
            or (
                bool(np.array_equal(a.lower, b.lower))
                and bool(np.array_equal(a.upper, b.upper))
                and bool(np.array_equal(a.level, b.level))
            )
        )

    def __hash__(self) -> int:
        a = self.array
        return hash((a.lower.tobytes(), a.upper.tobytes(), a.level.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BoxList({len(self)} boxes, {self.total_cells} cells)"

    # -- measures -----------------------------------------------------------
    @property
    def total_cells(self) -> int:
        """Sum of cell counts over all boxes."""
        return self.array.total_cells()

    @property
    def levels(self) -> tuple[int, ...]:
        """Sorted distinct refinement levels present."""
        return tuple(int(lvl) for lvl in self.array.unique_levels())

    def cells_by_level(self) -> dict[int, int]:
        """Total cell count per refinement level, in one vectorized pass.

        Replaces ``at_level(lvl).total_cells`` loops on hot validation
        paths (one array build instead of per-box Python arithmetic per
        level).
        """
        return self.array.cells_by_level()

    def at_level(self, level: int) -> "BoxList":
        """Sub-list of boxes on one refinement level."""
        return BoxList.from_array(self.array.at_level(level))

    # -- transformations ----------------------------------------------------
    def take(self, indices) -> "BoxList":
        """Sub-list selected/reordered by positional ``indices``."""
        return BoxList.from_array(self.array.take(indices))

    def is_disjoint(self) -> bool:
        """True when no two same-level boxes overlap (memoized on the
        columns)."""
        return self.array.is_disjoint()

    def bounding_box(self) -> Box:
        """Smallest single box covering every member (single-level lists only)."""
        if not len(self):
            raise GeometryError("bounding_box of an empty BoxList")
        return functools.reduce(Box.bounding_union, self)


@dataclass(frozen=True, eq=False)
class Layout:
    """Which rank owns which box: a :class:`BoxList` and one rank per box.

    The one value the repartition loop hands from stage to stage --
    partitioners produce it, the migrate stage diffs the previous one
    against the new one, checkpoints store it.
    ``ranks`` is an ``intp`` vector aligned with ``boxes``, checked on
    construction and frozen in place (not copied), so no holder can edit
    the ownership another holder prices from.  :meth:`from_pairs` is the
    only lowering of per-box ``(Box, rank)`` objects to these columns.
    """

    boxes: BoxList
    ranks: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.boxes, BoxList):
            raise GeometryError(
                f"Layout boxes must be a BoxList, got {type(self.boxes)!r}"
            )
        ranks = np.asarray(self.ranks)
        if ranks.size and ranks.dtype.kind not in "iu":
            raise GeometryError(
                f"Layout ranks must be integers, got dtype {ranks.dtype}"
            )
        if ranks.shape != (len(self.boxes),):
            raise GeometryError(
                f"rank vector shape {ranks.shape} does not match "
                f"{len(self.boxes)} boxes"
            )
        if ranks.size and int(ranks.min()) < 0:
            raise GeometryError(f"negative rank {int(ranks.min())} in Layout")
        ranks = np.ascontiguousarray(ranks, dtype=np.intp)
        ranks.setflags(write=False)
        object.__setattr__(self, "ranks", ranks)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Box, int]]) -> "Layout":
        """Lower ``(box, rank)`` pairs to columns, keeping their order."""
        pairs = list(pairs)
        return cls(
            BoxList(b for b, _ in pairs), np.array([r for _, r in pairs])
        )

    def __len__(self) -> int:
        return len(self.boxes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Layout({len(self)} boxes)"

    def remapped(self, index: np.ndarray) -> "Layout":
        """The same boxes with rank ``k`` renamed ``index[k]`` (one gather:
        compact live-rank numbering back to true node indices)."""
        return Layout(self.boxes, np.asarray(index)[self.ranks])
