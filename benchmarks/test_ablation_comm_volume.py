"""Ablation: communication volume per partitioner.

The paper's key partitioning requirements include "minimize communication
overheads by maintaining inter-level and intra-level locality" (section
3.1).  This bench measures each partitioner's ghost-exchange volume on the
same hierarchy: the curve-span schemes (ACEComposite, SFCHybrid) should
cut the least, the sorted-by-size heterogeneous assignment pays a locality
penalty for its tighter balance, and the graph partitioner sits between.
"""

import numpy as np

from repro.amr.ghost import plan_exchange_volumes
from repro.kernels.workloads import paper_rm3d_trace
from repro.partition import (
    ACEComposite,
    ACEHeterogeneous,
    GraphPartitioner,
    GreedyLPT,
    SFCHybrid,
)
from repro.runtime.experiment import PAPER_CAPACITIES


def _comm_volume(partitioner, boxes, caps) -> float:
    result = partitioner.partition(boxes, caps)
    vols = plan_exchange_volumes(result.boxes(), result.rank_vector())
    return sum(vols.values())


def test_locality_comparison(run_experiment):
    boxes = paper_rm3d_trace(num_regrids=8).epoch(5)

    def sweep():
        out = {}
        for part in (
            ACEComposite(),
            SFCHybrid(),
            GraphPartitioner(),
            ACEHeterogeneous(),
            GreedyLPT(),
        ):
            out[part.name] = _comm_volume(part, boxes, PAPER_CAPACITIES)
        return out

    volumes = run_experiment(sweep)
    print()
    print("ghost-exchange bytes per iteration, by partitioner:")
    for name, vol in sorted(volumes.items(), key=lambda kv: kv[1]):
        print(f"  {name:>17}: {vol / 1e3:9.1f} kB")
    # Locality-preserving span schemes beat the capacity-sorted scheme.
    assert volumes["SFCHybrid"] <= volumes["ACEHeterogeneous"]
    assert volumes["ACEComposite"] <= volumes["ACEHeterogeneous"]
    # Everything is finite and positive on a connected hierarchy.
    assert all(v > 0 for v in volumes.values())
