"""Ablation experiments beyond the paper's tables (DESIGN.md section 5).

The paper closes with two directions we implement and measure:

- **Weight choice** (section 8): "we are currently working with a more
  careful choice of weights w_p, w_m, w_b that will adequately reflect the
  computational needs of the application" -- :func:`weight_ablation` runs
  application profiles (CPU-, memory-, comm-weighted) against clusters
  whose scarcity matches or mismatches the profile.
- **Multi-axis splitting** (section 8): "if the box is instead cut along
  more axes, it could lead to finer partitioning granularity and hence
  better work assignments" -- :func:`multiaxis_split_ablation` compares the
  residual imbalance with the longest-axis-only rule against the extension.

Two more isolate design choices of the reproduction itself:

- :func:`forecaster_ablation` -- which NWS-style predictor yields the best
  capacities when measurements are noisy;
- :func:`partitioner_panel` -- ACEHeterogeneous vs the no-split greedy LPT
  vs the capacity-blind default, separating the value of capacity awareness
  from the value of constrained splitting.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from repro.cluster import Cluster, SyntheticLoadGenerator
from repro.kernels.workloads import SyntheticWorkload, paper_rm3d_trace
from repro.monitor.forecasting import make_forecaster
from repro.monitor.service import MonitorSnapshot, ResourceMonitor
from repro.partition import (
    ACEComposite,
    ACEHeterogeneous,
    GraphPartitioner,
    GreedyLPT,
    SFCHybrid,
    SplitConstraints,
    load_imbalance,
)
from repro.partition.capacity import CapacityCalculator, CapacityWeights
from repro.runtime.engine import RuntimeConfig, SamrRuntime

__all__ = [
    "weight_ablation",
    "multiaxis_split_ablation",
    "forecaster_ablation",
    "partitioner_panel",
    "probe_cost_sensitivity",
    "heterogeneity_sweep",
    "weak_scaling",
    "learn_ablation",
    "learn_scenario",
]


def _cpu_loaded_cluster(n: int = 4) -> Cluster:
    """Nodes differing only in CPU load (memory/bandwidth uniform)."""
    c = Cluster.homogeneous(n)
    for k, level in enumerate(np.linspace(0.0, 2.5, n)):
        if level > 0:
            c.add_load_generator(
                SyntheticLoadGenerator(
                    node=k, start_time=-1.0, ramp_rate=10.0,
                    target_level=float(level), memory_per_unit_mb=0.0,
                )
            )
    return c


def weight_ablation(iterations: int = 30) -> dict:
    """Execution time per weight profile on a CPU-heterogeneous cluster.

    On a cluster whose only scarcity is CPU, weighting CPU higher should
    beat the paper's equal weights, which dilute the CPU signal with the
    uninformative memory/bandwidth shares.
    """
    workload = paper_rm3d_trace(num_regrids=iterations // 5 + 1)
    profiles = {
        "equal (paper)": CapacityWeights.equal(),
        "compute-bound": CapacityWeights.compute_bound(),
        "memory-bound": CapacityWeights.memory_bound(),
        "comm-bound": CapacityWeights.comm_bound(),
    }
    rows = []
    for label, weights in profiles.items():
        cluster = _cpu_loaded_cluster(4)
        runtime = SamrRuntime(
            workload,
            cluster,
            ACEHeterogeneous(),
            capacity_calculator=CapacityCalculator(weights),
            config=RuntimeConfig(iterations=iterations, regrid_interval=5),
        )
        rows.append(
            {"profile": label, "seconds": runtime.run().total_seconds}
        )
    return {"rows": rows, "cluster": "cpu-loaded 4-node"}


def multiaxis_split_ablation(
    num_regrids: int = 8,
    min_box_size: int = 2,
    snap: int = 2,
) -> dict:
    """Residual imbalance: longest-axis-only vs multi-axis splitting.

    The paper attributes the system-sensitive scheme's residual imbalance
    to cutting "only along the longest axis" and proposes multi-axis cuts
    as the remedy; this ablation measures that remedy.  The effect grows
    with the splitting granularity (``min_box_size``/``snap``): the coarser
    a single longest-axis plane is, the more a sub-plane cut can recover.
    """
    workload = paper_rm3d_trace(num_regrids=num_regrids)
    cluster = Cluster.paper_four_node()
    cluster.clock.advance(5.0)
    caps = CapacityCalculator().relative_capacities(
        ResourceMonitor(cluster).probe_all()
    )
    out = {}
    for label, multi in (("longest-axis", False), ("multi-axis", True)):
        constraints = SplitConstraints(
            min_box_size=min_box_size, snap=snap, allow_multi_axis=multi
        )
        part = ACEHeterogeneous(constraints=constraints)
        per_regrid = []
        splits = 0
        for epoch in range(num_regrids):
            result = part.partition(workload.epoch(epoch), caps)
            total = result.loads().sum()
            per_regrid.append(
                float(load_imbalance(result, targets=caps * total).max())
            )
            splits += result.num_splits
        out[label] = {
            "max_imbalance_pct": per_regrid,
            "total_splits": splits,
        }
    return out


def forecaster_ablation(
    noise: float = 0.25,
    probes: int = 40,
    seeds: Sequence[int] = (0, 1, 2),
) -> dict:
    """Capacity-estimation error per forecaster under noisy measurements.

    The cluster is static (paper_four_node), so the true relative
    capacities are constant; every snapshot of a noisy monitor feeds one
    forecaster per (resource, node), and we measure the mean absolute
    error of the capacities computed from the forecasts against the
    noise-free truth.
    Averaging forecasters (mean/median) should beat last-value; the
    adaptive ensemble should be competitive with the best member.
    """
    calc = CapacityCalculator()
    truth_cluster = Cluster.paper_four_node()
    truth_cluster.clock.advance(5.0)
    truth = calc.relative_capacities(
        ResourceMonitor(truth_cluster).probe_all()
    )
    rows = []
    for kind in ("last", "mean", "median", "ar", "adaptive"):
        errs = []
        for seed in seeds:
            cluster = Cluster.paper_four_node()
            cluster.clock.advance(5.0)
            monitor = ResourceMonitor(cluster, noise=noise, seed=seed)
            forecasters = [
                [make_forecaster(kind) for _ in range(cluster.num_nodes)]
                for _ in range(3)
            ]
            for i in range(probes):
                snap = monitor.probe_all(t=5.0 + i)
                readings = (snap.cpu, snap.memory_mb, snap.bandwidth_mbps)
                for row, values in zip(forecasters, readings):
                    for forecaster, value in zip(row, values.tolist()):
                        forecaster.update(value)
            cpu, memory_mb, bandwidth_mbps = (
                np.array([f.forecast() for f in row]) for row in forecasters
            )
            estimate = calc.relative_capacities(
                MonitorSnapshot(
                    time=cluster.clock.now,
                    cpu=np.clip(cpu, 0.0, 1.0),
                    memory_mb=np.maximum(memory_mb, 0.0),
                    bandwidth_mbps=np.maximum(bandwidth_mbps, 0.0),
                    overhead_seconds=0.0,
                )
            )
            errs.append(float(np.abs(estimate - truth).mean()))
        rows.append({"forecaster": kind, "mae": float(np.mean(errs))})
    return {"rows": rows, "noise": noise, "truth": truth.tolist()}


def probe_cost_sensitivity(
    probe_costs: Sequence[float] = (0.0, 0.5, 2.0, 8.0),
    sensing_interval: int = 10,
    iterations: int = 120,
    seed: int = 5,
) -> dict:
    """How the value of dynamic sensing depends on the probe's price.

    The paper's 0.5 s NWS figure sits in a sweet region; this sweep shows
    the frequency/overhead trade-off collapsing as probes get expensive --
    with pricey probes, the same sensing cadence stops paying for itself
    against the sense-once baseline.
    """
    workload = paper_rm3d_trace(num_regrids=iterations // 5 + 2)
    rows = []
    for cost in probe_costs:
        times = {}
        horizon = None
        for label, interval in (("dynamic", sensing_interval), ("once", 0)):
            cluster = Cluster.paper_linux_cluster(
                4, seed=seed, dynamic=True,
                horizon_s=horizon if horizon else 300.0,
            )
            monitor = ResourceMonitor(cluster, probe_overhead_s=cost)
            runtime = SamrRuntime(
                workload,
                cluster,
                ACEHeterogeneous(),
                monitor=monitor,
                config=RuntimeConfig(
                    iterations=iterations,
                    regrid_interval=5,
                    sensing_interval=interval,
                ),
            )
            times[label] = runtime.run().total_seconds
        rows.append(
            {
                "probe_cost_s": cost,
                "dynamic_s": times["dynamic"],
                "once_s": times["once"],
                "benefit_pct": (times["once"] - times["dynamic"])
                / times["once"] * 100.0,
            }
        )
    return {"rows": rows, "sensing_interval": sensing_interval}


def heterogeneity_sweep(
    load_levels: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 4.0),
    iterations: int = 30,
    num_procs: int = 4,
) -> dict:
    """System-sensitive improvement as a function of cluster heterogeneity.

    Half the nodes carry ``level`` units of load; the improvement of
    ACEHeterogeneous over the capacity-blind default should grow
    monotonically with the load level (zero load -> no advantage), the
    paper's 'greater heterogeneity' extrapolation made measurable.
    """
    workload = paper_rm3d_trace(num_regrids=iterations // 5 + 1)
    rows = []
    for level in load_levels:
        times = {}
        for key, part in (
            ("het", ACEHeterogeneous()),
            ("comp", ACEComposite()),
        ):
            cluster = Cluster.homogeneous(num_procs)
            for k in range(num_procs // 2):
                if level > 0:
                    cluster.add_load_generator(
                        SyntheticLoadGenerator(
                            node=k, start_time=-1.0, ramp_rate=10.0,
                            target_level=level, memory_per_unit_mb=60.0,
                        )
                    )
            runtime = SamrRuntime(
                workload,
                cluster,
                part,
                config=RuntimeConfig(iterations=iterations, regrid_interval=5),
            )
            times[key] = runtime.run().total_seconds
        rows.append(
            {
                "load_level": level,
                "improvement_pct": (times["comp"] - times["het"])
                / times["comp"] * 100.0,
            }
        )
    return {"rows": rows, "procs": num_procs}


def weak_scaling(
    processor_counts: Sequence[int] = (2, 4, 8, 16),
    iterations: int = 20,
    cells_per_proc_y: int = 16,
    seed: int = 7,
) -> dict:
    """Weak scaling: problem size grows with the processor count.

    The mesh's *transverse* extent is ``cells_per_proc_y * P`` -- the
    interface slab and the instability fingers span the transverse plane,
    so refined (dominant) work genuinely scales with P, keeping
    per-processor work constant.  Ideal weak scaling keeps execution time
    flat; efficiency is ``T(P_min) / T(P)``.
    """
    rows = []
    base_time = {}
    for p in processor_counts:
        workload = paper_rm3d_trace(
            num_regrids=iterations // 5 + 1,
            base_shape=(64, cells_per_proc_y * p, 16),
        )
        times = {}
        for key, part in (
            ("het", ACEHeterogeneous()),
            ("comp", ACEComposite()),
        ):
            cluster = Cluster.paper_linux_cluster(p, seed=seed)
            runtime = SamrRuntime(
                workload,
                cluster,
                part,
                config=RuntimeConfig(iterations=iterations, regrid_interval=5),
            )
            times[key] = runtime.run().total_seconds
            base_time.setdefault(key, times[key])
        rows.append(
            {
                "procs": p,
                "het_s": times["het"],
                "comp_s": times["comp"],
                "het_efficiency": base_time["het"] / times["het"],
                "comp_efficiency": base_time["comp"] / times["comp"],
            }
        )
    return {"rows": rows, "cells_per_proc_y": cells_per_proc_y}


def partitioner_panel(iterations: int = 30, seed: int = 7) -> dict:
    """Execution time: the paper's two schemes plus two extension baselines.

    Separates the ingredients of the system-sensitive scheme: capacity
    awareness (ACEHeterogeneous, SFCHybrid and GreedyLPT have it,
    ACEComposite doesn't), constrained box splitting (all but GreedyLPT),
    and curve-span locality (ACEComposite and SFCHybrid).
    """
    workload = paper_rm3d_trace(num_regrids=iterations // 5 + 1)
    rows = []
    for part in (
        ACEHeterogeneous(),
        SFCHybrid(),
        GreedyLPT(),
        GraphPartitioner(),
        ACEComposite(),
    ):
        cluster = Cluster.paper_linux_cluster(8, seed=seed)
        runtime = SamrRuntime(
            workload,
            cluster,
            part,
            config=RuntimeConfig(iterations=iterations, regrid_interval=5),
        )
        result = runtime.run()
        rows.append(
            {
                "partitioner": part.name,
                "seconds": result.total_seconds,
                "mean_imbalance_pct": result.mean_imbalance,
            }
        )
    return {"rows": rows}


def learn_scenario(
    iterations: int, regrid_interval: int, seed: int
) -> tuple[SyntheticWorkload, float]:
    """The learned-policy runs' RM3D workload and the simulated length of
    its sense-once run on the dynamic 8-node Linux cluster, which
    calibrates the load-script horizon (the same discipline as
    ``experiment._calibrated_horizon``)."""
    workload = paper_rm3d_trace(num_regrids=iterations // regrid_interval + 2)
    cluster = Cluster.paper_linux_cluster(8, seed=seed, dynamic=True, horizon_s=1e9)
    config = RuntimeConfig(iterations=iterations, regrid_interval=regrid_interval)
    run = SamrRuntime(workload, cluster, ACEHeterogeneous(), config=config).run()
    return workload, run.total_seconds


def learn_ablation(
    iterations: int = 150,
    sensing_interval: int = 20,
    regrid_interval: int = 7,
    seed: int = 11,
    drift_tolerance: float = 0.02,
    ledger_dir: str | None = None,
) -> dict:
    """Attribute the learned loop's win per piece (repro.learn).

    Five variants of the adaptive runtime -- the paper's fixed-f loop,
    each learned behavior alone (adaptive sensing interval, payoff-gated
    repartitioning, transient capacity forecasting) and all three
    together -- on two scenarios:

    - **load-dynamics**: the paper's dynamic Linux-cluster load scripts
      (8 nodes, calibrated horizon);
    - **chaos**: the same dynamic cluster plus a two-node outage window
      mid-run, recovered through the resilience stage.

    The regrid interval is deliberately co-prime with f so that
    sense-triggered repartitions exist at all (with the paper's f=20 and
    regrid=5, every sensing lands on a regrid and the gate would have
    nothing to decide).  Returns per-scenario rows with the win over
    fixed-f attributed to each piece.

    With ``ledger_dir`` set, every learned variant records its decision
    provenance to ``<ledger_dir>/<scenario>/<variant>`` for
    ``repro explain``; decisions themselves are unchanged.
    """
    from repro.learn import DecisionLedger, LearnConfig, LearnController
    from repro.resilience import FaultInjector, FaultPlan
    from repro.resilience.checkpoint import ResilienceConfig

    workload, cal_seconds = learn_scenario(iterations, regrid_interval, seed)
    horizon = 0.8 * cal_seconds

    def flags(**kw) -> LearnConfig:
        base = dict(
            adaptive_sensing=False,
            payoff_gate=False,
            transient_forecast=False,
            fallback_interval=sensing_interval,
            drift_tolerance=drift_tolerance,
        )
        base.update(kw)
        return LearnConfig(**base)

    variants: list[tuple[str, LearnConfig | None]] = [
        ("fixed-f", None),
        ("adaptive-f", flags(adaptive_sensing=True)),
        ("gate", flags(payoff_gate=True)),
        ("transient", flags(transient_forecast=True)),
        (
            "all",
            flags(
                adaptive_sensing=True,
                payoff_gate=True,
                transient_forecast=True,
            ),
        ),
    ]

    def run_variant(
        scenario: str, name: str, learn_cfg: LearnConfig | None
    ) -> dict:
        cluster = Cluster.paper_linux_cluster(
            8, seed=seed, dynamic=True, horizon_s=horizon
        )
        monitor = ResourceMonitor(cluster)
        resilience = None
        if scenario == "chaos":
            plan = FaultPlan.node_outage(
                [2, 5],
                at=0.3 * cal_seconds,
                duration=0.3 * cal_seconds,
                seed=seed,
            )
            FaultInjector(cluster, monitor=monitor).arm(plan)
            resilience = ResilienceConfig()
        learn = None
        if learn_cfg is not None:
            ledger = None
            if ledger_dir is not None:
                ledger = DecisionLedger(
                    Path(ledger_dir) / scenario / name
                )
            learn = LearnController(learn_cfg, ledger=ledger)
        runtime = SamrRuntime(
            workload,
            cluster,
            ACEHeterogeneous(),
            monitor=monitor,
            config=RuntimeConfig(
                iterations=iterations,
                regrid_interval=regrid_interval,
                sensing_interval=sensing_interval,
            ),
            resilience=resilience,
            learn=learn,
        )
        result = runtime.run()
        row = {
            "seconds": result.total_seconds,
            "num_sensings": result.num_sensings,
            "migration_seconds": result.migration_seconds,
            "sensing_seconds": result.sensing_seconds,
        }
        if learn is not None:
            summary = learn.summary()
            row["sensing_interval"] = summary["sensing_interval"]
            row["gate_skips"] = summary["gate"]["skips"]
            row["gate_decisions"] = summary["gate"]["decisions"]
            row["capacity_model_cold"] = summary["capacity_model"]["cold"]
        return row

    scenarios: dict[str, dict] = {}
    for scenario in ("load-dynamics", "chaos"):
        rows = []
        baseline_s: float | None = None
        for name, learn_cfg in variants:
            row = {
                "variant": name,
                **run_variant(scenario, name, learn_cfg),
            }
            if name == "fixed-f":
                baseline_s = row["seconds"]
            row["win_pct"] = (
                (baseline_s - row["seconds"]) / baseline_s * 100.0
                if baseline_s
                else 0.0
            )
            rows.append(row)
        scenarios[scenario] = {"rows": rows}
    return {
        "scenarios": scenarios,
        "iterations": iterations,
        "sensing_interval": sensing_interval,
        "regrid_interval": regrid_interval,
        "seed": seed,
        "drift_tolerance": drift_tolerance,
    }
