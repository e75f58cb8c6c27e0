"""Partitioning and load balancing -- the paper's core contribution.

- :mod:`repro.partition.capacity` -- the relative-capacity metric
  ``C_k = w_p P_k + w_m M_k + w_b B_k`` over normalized CPU / memory /
  bandwidth availabilities (section 5.2);
- :mod:`repro.partition.splitting` -- constrained box splitting: always
  along the longest axis (aspect-ratio control), never below the minimum
  box size, optionally snapped to refinement-aligned planes;
- :mod:`repro.partition.heterogeneous` -- **ACEHeterogeneous**, the
  system-sensitive partitioner (section 5.3);
- :mod:`repro.partition.composite` -- **ACEComposite**, GrACE's default
  SFC-based equal-work partitioner (the paper's baseline);
- :mod:`repro.partition.greedy` -- a capacity-weighted LPT baseline used
  in ablations;
- :mod:`repro.partition.metrics` -- the load-imbalance metric
  ``I_k = |W_k - L_k| / L_k * 100`` (section 6.2.2, eq. 2).
"""

from repro.partition.base import Partitioner, PartitionResult
from repro.partition.capacity import CapacityCalculator, CapacityWeights
from repro.partition.composite import ACEComposite
from repro.partition.graphpart import GraphPartitioner, build_box_graph
from repro.partition.greedy import GreedyLPT
from repro.partition.heterogeneous import ACEHeterogeneous
from repro.partition.hybrid import SFCHybrid
from repro.partition.levelwise import LevelPartitioner
from repro.partition.metrics import (
    imbalance_pct,
    load_imbalance,
    makespan_estimate,
)
from repro.partition.splitting import SplitConstraints
from repro.partition.workmodel import WorkModel, as_work_model

__all__ = [
    "Partitioner",
    "PartitionResult",
    "CapacityCalculator",
    "CapacityWeights",
    "ACEHeterogeneous",
    "ACEComposite",
    "GreedyLPT",
    "SFCHybrid",
    "GraphPartitioner",
    "build_box_graph",
    "LevelPartitioner",
    "SplitConstraints",
    "WorkModel",
    "as_work_model",
    "imbalance_pct",
    "load_imbalance",
    "makespan_estimate",
]
