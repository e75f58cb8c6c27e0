"""repro: adaptive system-sensitive partitioning of SAMR applications on
heterogeneous clusters.

A faithful, self-contained reproduction of Sinha & Parashar, *Adaptive
Runtime Partitioning of AMR Applications on Heterogeneous Clusters*
(CLUSTER 2001).  The package implements the paper's framework end to end:

- the **GrACE-style SAMR substrate** (:mod:`repro.amr`, :mod:`repro.hdda`):
  Berger-Oliger grid hierarchies, Berger-Rigoutsos clustering, space-filling
  curve index spaces, extendible-hash block storage;
- **application kernels** (:mod:`repro.kernels`): the RM3D
  Richtmyer-Meshkov compressible-flow kernel of the paper's evaluation, a
  Buckley-Leverett reservoir kernel, scalar advection, and paper-scale
  synthetic workload traces;
- a **heterogeneous-cluster simulator** (:mod:`repro.cluster`,
  :mod:`repro.comm`) with the paper's synthetic load generator;
- an **NWS-equivalent resource monitor** (:mod:`repro.monitor`) with the
  forecaster suite and the 0.5 s/node probe cost;
- the **capacity metric and partitioners** (:mod:`repro.partition`):
  ACEHeterogeneous (system-sensitive) and ACEComposite (default baseline);
- the **adaptive runtime** (:mod:`repro.runtime`) wiring it all into the
  sense -> capacity -> partition -> execute loop, plus experiment builders
  for every table and figure in the paper;
- a **telemetry subsystem** (:mod:`repro.telemetry`): structured phase
  tracing over wall and simulated clocks, a metrics registry, and
  exporters to JSONL / Chrome trace-event (Perfetto) / flat summaries --
  no-op by default, enabled per run or via ``repro trace``.

Quickstart::

    from repro import (
        ACEHeterogeneous, Cluster, RuntimeConfig, SamrRuntime,
        paper_rm3d_trace,
    )

    workload = paper_rm3d_trace()
    cluster = Cluster.paper_linux_cluster(8, seed=7)
    runtime = SamrRuntime(
        workload, cluster, ACEHeterogeneous(),
        config=RuntimeConfig(iterations=40, regrid_interval=5),
    )
    result = runtime.run()
    print(f"execution time: {result.total_seconds:.1f} simulated seconds")
"""

from repro.amr import (
    AmrKernel,
    BergerOligerIntegrator,
    GridHierarchy,
    GridLevel,
    GridPatch,
    berger_rigoutsos,
)
from repro.cluster import Cluster, LinkModel, NodeSpec, SyntheticLoadGenerator
from repro.comm import SimCommunicator
from repro.hdda import HDDA, HierarchicalIndexSpace
from repro.kernels import (
    AdvectionKernel,
    BuckleyLeverettKernel,
    RM3DKernel,
    SyntheticWorkload,
    moving_blob_trace,
    paper_rm3d_trace,
)
from repro.monitor import ResourceMonitor
from repro.partition import (
    ACEComposite,
    ACEHeterogeneous,
    CapacityCalculator,
    CapacityWeights,
    GreedyLPT,
    SplitConstraints,
    load_imbalance,
    makespan_estimate,
)
from repro.runtime import RunResult, RuntimeConfig, SamrRuntime
from repro.telemetry import (
    NULL_TRACER,
    MetricsRegistry,
    NullTracer,
    Tracer,
    activate,
)
from repro.util import Box, BoxList, Layout, ReproError

__version__ = "1.0.0"

__all__ = [
    # geometry
    "Box",
    "BoxList",
    "Layout",
    "ReproError",
    # AMR substrate
    "AmrKernel",
    "GridPatch",
    "GridLevel",
    "GridHierarchy",
    "BergerOligerIntegrator",
    "berger_rigoutsos",
    "HDDA",
    "HierarchicalIndexSpace",
    # kernels
    "AdvectionKernel",
    "RM3DKernel",
    "BuckleyLeverettKernel",
    "SyntheticWorkload",
    "moving_blob_trace",
    "paper_rm3d_trace",
    # cluster + monitoring
    "Cluster",
    "NodeSpec",
    "LinkModel",
    "SyntheticLoadGenerator",
    "SimCommunicator",
    "ResourceMonitor",
    # partitioning
    "CapacityCalculator",
    "CapacityWeights",
    "ACEHeterogeneous",
    "ACEComposite",
    "GreedyLPT",
    "SplitConstraints",
    "load_imbalance",
    "makespan_estimate",
    # runtime
    "SamrRuntime",
    "RuntimeConfig",
    "RunResult",
    # telemetry
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "MetricsRegistry",
    "activate",
    "__version__",
]
