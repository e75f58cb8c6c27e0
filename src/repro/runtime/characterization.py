"""Partitioner characterization metrics.

The paper's group published a companion study ("Characterization of
domain-based partitioners for parallel SAMR applications", Steensland,
Chandra, Thune & Parashar, 2000 -- reference [17]) defining the axes on
which SAMR partitioners should be compared.  This module computes that
metric panel for any partitioner over any workload trace:

- **load imbalance** against capacity-proportional targets (paper eq. 2);
- **communication volume** of one ghost exchange under the assignment;
- **data migration** between consecutive epochs (repartitioning cost);
- **fragmentation**: boxes produced per input box (splitting pressure);
- **partitioning time**: wall-clock cost of the partitioning call itself.

The characterization benchmark prints one row per partitioner, giving the
multi-objective picture a single execution-time number hides.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.amr.ghost import plan_exchange_volumes
from repro.kernels.workloads import SyntheticWorkload
from repro.partition.base import Partitioner
from repro.partition.metrics import (
    load_imbalance,
    redistribution_volume_columns,
)
from repro.partition.workmodel import WorkModel
from repro.util.geometry import Layout

__all__ = ["CharacterizationRow", "characterize"]


@dataclass(frozen=True, slots=True)
class CharacterizationRow:
    """Aggregated metrics for one partitioner over a trace."""

    partitioner: str
    mean_imbalance_pct: float
    max_imbalance_pct: float
    mean_comm_kb: float
    mean_migration_kb: float
    fragmentation: float  # output boxes / input boxes
    mean_partition_ms: float


def characterize(
    partitioner: Partitioner,
    workload: SyntheticWorkload,
    capacities: Sequence[float],
    bytes_per_cell: float = 40.0,
    ghost_width: int = 1,
) -> CharacterizationRow:
    """Run ``partitioner`` over every epoch of ``workload`` and aggregate."""
    caps = np.asarray(capacities, dtype=float)
    caps = caps / caps.sum()
    model = WorkModel(workload.refine_factor)
    imbalances: list[float] = []
    comm: list[float] = []
    migration: list[float] = []
    frag: list[float] = []
    times: list[float] = []
    prev = Layout.from_pairs(())
    for epoch in range(workload.num_regrids):
        boxes = workload.epoch(epoch)
        t0 = time.perf_counter()
        result = partitioner.partition(boxes, caps, model)
        times.append((time.perf_counter() - t0) * 1e3)
        total = result.loads().sum()
        imb = load_imbalance(result, targets=caps * total)
        imbalances.append(float(imb.max()))
        vols = plan_exchange_volumes(
            result.boxes(),
            result.rank_vector(),
            ghost_width=ghost_width,
            bytes_per_cell=bytes_per_cell,
            refine_factor=workload.refine_factor,
        )
        comm.append(sum(vols.values()) / 1e3)
        moved = redistribution_volume_columns(
            prev, result.layout, bytes_per_cell
        )
        if epoch > 0:
            migration.append(sum(moved.values()) / 1e3)
        frag.append(result.num_assigned() / max(len(boxes), 1))
        prev = result.layout
    return CharacterizationRow(
        partitioner=partitioner.name,
        mean_imbalance_pct=float(np.mean(imbalances)),
        max_imbalance_pct=float(np.max(imbalances)),
        mean_comm_kb=float(np.mean(comm)),
        mean_migration_kb=float(np.mean(migration)) if migration else 0.0,
        fragmentation=float(np.mean(frag)),
        mean_partition_ms=float(np.mean(times)),
    )
