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

:class:`BoxList` bridges the two: it can be built from either form and
converts lazily.  A list created from columns (:meth:`BoxList.from_array`)
stays columnar until some caller actually iterates box objects; a list
built from objects exposes its column view through :attr:`BoxList.array`,
computed once and cached.  :class:`Layout` pairs such a list with one rank
per box: the value that says which rank owns which box.

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

    @property
    def longest_axis(self) -> int:
        """Index of the axis with the largest extent (ties -> lowest axis)."""
        shp = self.shape
        return int(np.argmax(shp))

    @property
    def shortest_side(self) -> int:
        """Smallest extent over all axes."""
        return min(self.shape)

    @property
    def longest_side(self) -> int:
        """Largest extent over all axes."""
        return max(self.shape)

    @property
    def aspect_ratio(self) -> float:
        """Ratio of the longest side to the shortest side (>= 1.0).

        The paper's box-splitting constraint keeps this ratio low by always
        cutting along the longest dimension.
        """
        return self.longest_side / self.shortest_side

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

    def halve(self, axis: int | None = None) -> tuple["Box", "Box"]:
        """Split into two (near-)equal halves, by default along the longest axis."""
        if axis is None:
            axis = self.longest_axis
        if self.shape[axis] < 2:
            raise GeometryError(
                f"cannot halve axis {axis} of extent {self.shape[axis]}"
            )
        mid = self.lower[axis] + self.shape[axis] // 2
        return self.split(axis, mid)

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

    def translate(self, offset: Sequence[int]) -> "Box":
        """Shift the box by ``offset`` cells along each axis."""
        off = _as_int_tuple(offset, "offset")
        if len(off) != self.ndim:
            raise GeometryError("offset dimensionality mismatch")
        return Box(
            tuple(l + o for l, o in zip(self.lower, off)),
            tuple(u + o for u, o in zip(self.upper, off)),
            self.level,
        )

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

    def cell_centers(self) -> Iterator[tuple[int, ...]]:
        """Iterate all integer cell coordinates in the box (row-major)."""
        return itertools.product(
            *(range(l, u) for l, u in zip(self.lower, self.upper))
        )

    def corner_key(self) -> tuple[int, ...]:
        """Sort key: (level, lower...) -- deterministic box ordering."""
        return (self.level, *self.lower)

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

    __slots__ = ("lower", "upper", "level", "_num_cells", "_cells_by_level")

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
        """Sub-array of boxes on one refinement level."""
        return self.take(self.level_indices(level))

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
        (primary[i], *boxes[i].corner_key()))`` -- ``np.lexsort`` is stable
        exactly like ``sorted``, so orders (and therefore downstream
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
        """True when no two same-level boxes overlap.

        Small per-level groups use one broadcast comparison; larger ones a
        vectorized grid hash -- bin every box by its lower corner with a
        bin pitch of the level's maximum extent per axis, so two boxes can
        only overlap if their bins are identical or axis-adjacent.
        Candidate pairs then come from ``3**ndim / 2`` bucket joins, each
        a pair of ``searchsorted`` calls over the bin-sorted keys, and the
        survivors get one exact broadcast test (chunked to bound memory).
        Unlike a single-axis sweep this does not degenerate on
        grid-aligned patchworks where thousands of boxes share one column
        of the sweep axis.  Every partition validates its output through
        here, so this must stay cheap at millions of boxes; the columns
        are built once per :class:`BoxList` and reused across calls.
        """
        if len(self) < 2:
            return True
        for lvl in np.flatnonzero(np.bincount(self.level)):
            idx = np.flatnonzero(self.level == lvl)
            n = idx.size
            if n < 2:
                continue
            lowers = self.lower[idx]
            uppers = self.upper[idx]
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
            cell = cell - cell.min(axis=0)
            dims = cell.max(axis=0) + 2
            strides = np.ones(self.ndim, dtype=np.int64)
            for d in range(self.ndim - 2, -1, -1):
                strides[d] = strides[d + 1] * dims[d + 1]
            key = cell[:, 0] * int(strides[0])
            for d in range(1, self.ndim):
                key += cell[:, d] * int(strides[d])
            order = np.argsort(key, kind="stable")
            lo = lowers[order]
            up = uppers[order]
            skey = key[order]
            scell = cell[order]
            pos = np.arange(n)
            # Same-bin pairs: every j > i inside the bucket.  Bucket ends
            # come from the sorted keys' run-length structure (O(n), no
            # binary searches).
            change = skey[1:] != skey[:-1]
            run_ends = np.append(np.flatnonzero(change) + 1, n)
            right = run_ends[np.cumsum(np.concatenate(([0], change)))]
            if self._pairs_overlap(lo, up, pos, pos + 1, right - pos - 1):
                return False
            # Adjacent-bin pairs: enumerate only lexicographically
            # positive offsets so each unordered pair joins exactly once.
            # Row-major keys make an offset a constant key delta; only
            # offsets with a -1 component need a validity mask (bin
            # coordinate 0 has no neighbor below, while +1 always stays
            # in range because ``dims`` leaves headroom).
            for off in itertools.product((-1, 0, 1), repeat=self.ndim):
                if off <= (0,) * self.ndim:
                    continue
                neg = [d for d, o in enumerate(off) if o < 0]
                delta = int(np.dot(off, strides))
                if neg:
                    mask = scell[:, neg[0]] >= 1
                    for d in neg[1:]:
                        mask &= scell[:, d] >= 1
                    valid = np.flatnonzero(mask)
                    if not valid.size:
                        continue
                    tkey = skey[valid] + delta
                else:
                    valid = pos
                    tkey = skey + delta
                left = np.searchsorted(skey, tkey, side="left")
                # A hit bin's size comes from the run-length structure:
                # ``right[left]`` is the end of the run starting at
                # ``left`` when the key actually matches (no second
                # binary search needed).
                safe = np.minimum(left, n - 1)
                cnt = np.where(
                    (left < n) & (skey[safe] == tkey),
                    right[safe] - left,
                    0,
                )
                if self._pairs_overlap(lo, up, valid, left, cnt):
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

    A ``BoxList`` is backed by either per-box :class:`Box` objects, a
    columnar :class:`BoxArray`, or both.  Lists built from objects expose
    their column view through :attr:`array` (computed once, cached);
    lists built from columns (:meth:`from_array`) defer materializing
    Box objects until something actually iterates them.  Hot bulk paths
    (cell accounting, level slicing, overlap sweeps, deterministic sorts)
    run on the columns either way.
    """

    __slots__ = ("_boxes", "_array")

    def __init__(self, boxes: Iterable[Box] = ()):
        self._array: BoxArray | None = None
        self._boxes: tuple[Box, ...] | None = tuple(boxes)
        for b in self._boxes:
            if not isinstance(b, Box):
                raise GeometryError(f"BoxList items must be Box, got {type(b)!r}")
        if self._boxes:
            ndim = self._boxes[0].ndim
            for b in self._boxes:
                if b.ndim != ndim:
                    raise GeometryError("mixed dimensionality in BoxList")

    @classmethod
    def from_array(cls, array: BoxArray) -> "BoxList":
        """A list backed purely by columns; Box objects materialize lazily."""
        if not isinstance(array, BoxArray):
            raise GeometryError(
                f"from_array expects a BoxArray, got {type(array)!r}"
            )
        self = object.__new__(cls)
        self._boxes = None
        self._array = array
        return self

    # -- representation management -----------------------------------------
    @property
    def array(self) -> BoxArray:
        """The columnar view (built once from the objects, then cached)."""
        if self._array is None:
            self._array = BoxArray.from_boxes(self._boxes)
        return self._array

    @property
    def is_materialized(self) -> bool:
        """True when per-box objects exist (False for pure-columnar lists)."""
        return self._boxes is not None

    def _tuple(self) -> tuple[Box, ...]:
        if self._boxes is None:
            self._boxes = self._array.to_boxes()
        return self._boxes

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        if self._boxes is not None:
            return len(self._boxes)
        return len(self._array)

    def __iter__(self) -> Iterator[Box]:
        return iter(self._tuple())

    def __getitem__(self, i):
        if isinstance(i, slice):
            if self._boxes is not None:
                return BoxList(self._boxes[i])
            n = len(self._array)
            return BoxList.from_array(self._array.take(np.arange(n)[i]))
        if self._boxes is not None:
            return self._boxes[i]
        return self._array.box(i)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoxList):
            return NotImplemented
        if self._boxes is None and other._boxes is None:
            a, b = self._array, other._array
            return (
                a.lower.shape == b.lower.shape
                and bool(np.array_equal(a.lower, b.lower))
                and bool(np.array_equal(a.upper, b.upper))
                and bool(np.array_equal(a.level, b.level))
            )
        return self._tuple() == other._tuple()

    def __hash__(self) -> int:
        return hash(self._tuple())

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
        if self._boxes is not None:
            return BoxList(b for b in self._boxes if b.level == level)
        return BoxList.from_array(self._array.at_level(level))

    # -- transformations ----------------------------------------------------
    def take(self, indices) -> "BoxList":
        """Sub-list selected/reordered by positional ``indices``.

        Preserves the backing representation: a materialized list yields
        the same Box objects; a columnar list stays columnar.
        """
        idx = np.asarray(indices, dtype=np.intp)
        if self._boxes is not None:
            boxes = self._boxes
            out = BoxList(boxes[int(i)] for i in idx)
            if self._array is not None:
                out._array = self._array.take(idx)
            return out
        return BoxList.from_array(self._array.take(idx))

    def append(self, box: Box) -> "BoxList":
        return BoxList((*self._tuple(), box))

    def extend(self, boxes: Iterable[Box]) -> "BoxList":
        if (
            self._boxes is None
            and isinstance(boxes, BoxList)
            and boxes._boxes is None
        ):
            return BoxList.from_array(
                BoxArray.concatenate([self._array, boxes._array])
            )
        return BoxList((*self._tuple(), *boxes))

    def sorted_by_cells(self, reverse: bool = False) -> "BoxList":
        """Stable sort by cell count (the paper sorts boxes ascending)."""
        if self._boxes is not None:
            return BoxList(
                sorted(self._boxes, key=lambda b: (b.num_cells, b.corner_key()),
                       reverse=reverse)
            )
        arr = self._array
        keys = [arr.lower[:, d] for d in range(arr.ndim - 1, -1, -1)]
        keys.append(arr.level)
        keys.append(arr.num_cells())
        if reverse:
            # Negating every key column reverses the tuple comparison while
            # lexsort's stability keeps equal keys in original order --
            # exactly ``sorted(..., reverse=True)``.
            keys = [-k for k in keys]
        return self.take(np.lexsort(keys))

    def sorted_canonical(self) -> "BoxList":
        """Deterministic (level, lower-corner) ordering."""
        if self._boxes is not None:
            return BoxList(sorted(self._boxes, key=Box.corner_key))
        return self.take(self._array.corner_lexsort())

    def is_disjoint(self) -> bool:
        """True when no two same-level boxes overlap.

        Delegates to the cached column view: the coordinate arrays the
        sweep-line needs are built once per list and reused across calls
        (validate_covers used to rebuild them on every partition).
        """
        return self.array.is_disjoint()

    def bounding_box(self) -> Box:
        """Smallest single box covering every member (single-level lists only)."""
        boxes = self._tuple()
        if not boxes:
            raise GeometryError("bounding_box of an empty BoxList")
        out = boxes[0]
        for b in boxes[1:]:
            out = out.bounding_union(b)
        return out


@dataclass(frozen=True, eq=False)
class Layout:
    """Which rank owns which box: a :class:`BoxList` and one rank per box.

    The one value the repartition loop hands from stage to stage --
    partitioners produce it, the migrate stage diffs the previous one
    against the new one, the HDDA applies it, checkpoints store it.
    ``ranks`` is an ``intp`` vector aligned with ``boxes``, checked on
    construction and frozen in place (not copied), so no holder can edit
    the ownership another holder prices from.  :meth:`from_pairs` and
    :meth:`pairs` are the only crossings between these columns and
    per-box ``(Box, rank)`` objects.
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

    def pairs(self) -> list[tuple[Box, int]]:
        """The object view: ``(Box, rank)`` with plain-``int`` ranks."""
        return list(zip(self.boxes, self.ranks.tolist()))

    def __len__(self) -> int:
        return len(self.boxes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Layout({len(self)} boxes)"

    def of_rank(self, rank: int) -> BoxList:
        """The boxes ``rank`` owns, in layout order."""
        return self.boxes.take(np.flatnonzero(self.ranks == rank))

    def remapped(self, index: np.ndarray) -> "Layout":
        """The same boxes with rank ``k`` renamed ``index[k]`` (one gather:
        compact live-rank numbering back to true node indices)."""
        return Layout(self.boxes, np.asarray(index)[self.ranks])
