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

from repro._lazy import lazy_exports as _lazy_exports

__version__ = "1.0.0"

#: public name -> the submodule that defines it.  Names resolve on first
#: access (PEP 562), so ``import repro`` -- which also runs first for
#: ``import repro.partition`` -- loads no subsystem it was not asked for.
_EXPORTS = {
    # geometry
    "Box": "util.geometry",
    "BoxList": "util.geometry",
    "Layout": "util.geometry",
    "ReproError": "util.errors",
    # AMR substrate
    "AmrKernel": "amr.api",
    "GridPatch": "amr.patch",
    "GridLevel": "amr.level",
    "GridHierarchy": "amr.hierarchy",
    "BergerOligerIntegrator": "amr.integrator",
    "berger_rigoutsos": "amr.clustering",
    "HDDA": "hdda.hdda",
    "HierarchicalIndexSpace": "hdda.index",
    # kernels
    "AdvectionKernel": "kernels.advection",
    "RM3DKernel": "kernels.rm3d",
    "BuckleyLeverettKernel": "kernels.buckley_leverett",
    "SyntheticWorkload": "kernels.workloads",
    "moving_blob_trace": "kernels.workloads",
    "paper_rm3d_trace": "kernels.workloads",
    # cluster + monitoring
    "Cluster": "cluster.cluster",
    "NodeSpec": "cluster.node",
    "LinkModel": "cluster.network",
    "SyntheticLoadGenerator": "cluster.loadgen",
    "SimCommunicator": "comm.simmpi",
    "ResourceMonitor": "monitor.service",
    # partitioning
    "CapacityCalculator": "partition.capacity",
    "CapacityWeights": "partition.capacity",
    "ACEHeterogeneous": "partition.heterogeneous",
    "ACEComposite": "partition.composite",
    "GreedyLPT": "partition.greedy",
    "SplitConstraints": "partition.splitting",
    "load_imbalance": "partition.metrics",
    "makespan_estimate": "partition.metrics",
    # runtime
    "SamrRuntime": "runtime.engine",
    "RuntimeConfig": "runtime.engine",
    "RunResult": "runtime.engine",
    # telemetry
    "Tracer": "telemetry.spans",
    "NullTracer": "telemetry.spans",
    "NULL_TRACER": "telemetry.spans",
    "MetricsRegistry": "telemetry.metrics",
    "activate": "telemetry.spans",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
