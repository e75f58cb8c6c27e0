"""Partition-quality metrics.

``load_imbalance`` is the paper's eq. (2): for rank *k* with realized work
``W_k`` and ideal capacity-proportional load ``L_k``,

    I_k = |W_k - L_k| / L_k * 100  [%].

``makespan_estimate`` prices a partition against effective node speeds:
the slowest rank's compute time dominates a bulk-synchronous iteration.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.partition.base import PartitionResult
from repro.util.errors import PartitionError
from repro.util.geometry import Layout, overlap_pairs, volumes_by_rank_pair

__all__ = [
    "imbalance_pct",
    "load_imbalance",
    "makespan_estimate",
    "redistribution_volume_columns",
]


def redistribution_volume_columns(
    prev: Layout, new: Layout, bytes_per_cell: float = 8.0
) -> dict[tuple[int, int], float]:
    """Bytes that must move between ranks to turn ``prev`` into ``new``.

    Computed geometrically: for every cell of the new layout that was
    previously owned by a different rank, its payload crosses the
    ``(old_owner, new_owner)`` link.  This captures re-split boxes correctly
    (block identity changes, but only the cells whose *owner* changed
    actually travel), which is what redistribution costs on a real cluster.
    Cells with no previous owner (newly refined regions) are free -- their
    data is prolonged locally from the parent level.

    Per level, :func:`~repro.util.geometry.overlap_pairs` yields the
    (new box, previous box) overlaps in the object walk's order -- new
    box major, previous-list position minor -- and
    :func:`~repro.util.geometry.volumes_by_rank_pair` sums them per
    ``(old_rank, new_rank)``, so the per-key float sums and the dict's
    key insertion order (which
    :meth:`~repro.comm.simmpi.SimCommunicator.exchange_time` iterates)
    are byte-identical to a walk over ``(box, rank)`` pairs.
    """
    if len(prev) == 0 or len(new) == 0:
        return {}
    parr = prev.boxes.array
    narr = new.boxes.array
    overlaps: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for lvl in np.unique(narr.level).tolist():
        ppos = parr.level_indices(lvl)
        npos = narr.level_indices(lvl)
        ni, pj, cells = overlap_pairs(
            narr.lower[npos], narr.upper[npos], parr.lower[ppos], parr.upper[ppos]
        )
        overlaps.append((npos[ni], ppos[pj], cells))
    gi, gj, cells = map(np.concatenate, zip(*overlaps))
    # Levels interleave in the new list: restore new-box-major order across
    # them (stable, so previous-position-minor survives inside each box).
    order = np.argsort(gi, kind="stable")
    return volumes_by_rank_pair(
        prev.ranks[gj[order]], new.ranks[gi[order]], cells[order], bytes_per_cell
    )


def imbalance_pct(
    loads: Sequence[float], targets: Sequence[float]
) -> np.ndarray:
    """Eq. (2) on raw vectors: ``|W_k - L_k| / L_k * 100`` elementwise.

    A zero-target rank is perfectly balanced only when idle (0 %), and
    infinitely imbalanced otherwise.  Both runtimes and
    :func:`load_imbalance` derive their imbalance figures from this one
    vectorized form.
    """
    loads = np.asarray(loads, dtype=float)
    targets = np.asarray(targets, dtype=float)
    out = np.zeros(len(targets))
    pos = targets > 0
    out[pos] = np.abs(loads[pos] - targets[pos]) / targets[pos] * 100.0
    out[~pos & (loads != 0)] = float("inf")
    return out


def load_imbalance(
    result: PartitionResult,
    targets: Sequence[float] | None = None,
) -> np.ndarray:
    """Per-rank percentage imbalance I_k.

    By default measured against the result's own targets; pass ``targets``
    to measure against external ideals -- the paper's fig. 10 judges *both*
    schemes against the capacity-proportional loads ``L_k = C_k * L``, which
    is what makes the capacity-blind default score badly on a loaded
    cluster even though it met its own equal-share goals.
    """
    targets = result.targets if targets is None else np.asarray(targets, float)
    if len(targets) == 0:
        raise PartitionError("result has no targets")
    if len(targets) != result.num_ranks:
        raise PartitionError(
            f"{len(targets)} targets for {result.num_ranks} ranks"
        )
    return imbalance_pct(result.loads(), targets)


def makespan_estimate(
    result: PartitionResult,
    effective_speeds: Sequence[float],
) -> float:
    """Seconds the slowest rank needs to chew through its assigned work."""
    speeds = np.asarray(effective_speeds, dtype=float)
    if len(speeds) != result.num_ranks:
        raise PartitionError(
            f"{len(speeds)} speeds for {result.num_ranks} ranks"
        )
    if (speeds <= 0).any():
        raise PartitionError("effective speeds must be positive")
    loads = result.loads()
    return float((loads / speeds).max())
