"""Pre-configured builders for every experiment in the paper's evaluation.

Each function assembles workload + cluster + runtime for one table or
figure and returns plain data (dicts / arrays) that the benchmark harness
prints as the paper's rows and series.  Experiments are deterministic given
their seed; multi-seed variants average out placement luck the same way the
paper averaged repeated runs.

Experiment index (see DESIGN.md section 4):

========  ====================================================
Fig. 7    :func:`execution_time_comparison`
Table I   :func:`execution_time_comparison` (percentage column)
Fig. 8/9  :func:`load_assignment_tracking`
Fig. 10   :func:`imbalance_comparison`
Fig. 11   :func:`dynamic_allocation_trace`
Table II  :func:`dynamic_vs_static_sensing`
Table III :func:`sensing_frequency_sweep`
Fig 12-15 :func:`sensing_frequency_traces`
========  ====================================================
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cluster import Cluster
from repro.kernels.workloads import SyntheticWorkload, paper_rm3d_trace
from repro.monitor.service import ResourceMonitor
from repro.partition import (
    ACEComposite,
    ACEHeterogeneous,
    GraphPartitioner,
    GreedyLPT,
    SFCHybrid,
)
from repro.partition.base import Partitioner
from repro.partition.capacity import CapacityCalculator, CapacityWeights
from repro.runtime.engine import RunResult, RuntimeConfig, SamrRuntime
from repro.telemetry.analysis import HealthMonitor, fault_summary
from repro.telemetry.export import aggregate_phases
from repro.telemetry.live import deterministic_tracer
from repro.telemetry.spans import Tracer, activate
from repro.util.errors import ExperimentError

__all__ = [
    "PAPER_CAPACITIES",
    "CAMPAIGN_SCENARIOS",
    "make_partitioner",
    "run_once",
    "campaign_cell",
    "execution_time_comparison",
    "load_assignment_tracking",
    "imbalance_comparison",
    "dynamic_allocation_trace",
    "dynamic_vs_static_sensing",
    "sensing_frequency_sweep",
    "sensing_frequency_traces",
    "chaos_experiment",
]

#: The fixed relative capacities of the paper's 4-node scenario (~16/19/31/34 %).
PAPER_CAPACITIES = np.array([0.16, 0.19, 0.31, 0.34])


def make_partitioner(name: str) -> Partitioner:
    """Partitioner registry used by benchmarks and examples."""
    table = {
        "heterogeneous": ACEHeterogeneous,
        "ACEHeterogeneous": ACEHeterogeneous,
        "composite": ACEComposite,
        "ACEComposite": ACEComposite,
        "hybrid": SFCHybrid,
        "SFCHybrid": SFCHybrid,
        "greedy": GreedyLPT,
        "GreedyLPT": GreedyLPT,
        "graph": GraphPartitioner,
        "GraphPartitioner": GraphPartitioner,
    }
    try:
        return table[name]()
    except KeyError:
        raise ExperimentError(
            f"unknown partitioner {name!r}; choose from {sorted(table)}"
        ) from None


def run_once(
    workload: SyntheticWorkload,
    cluster: Cluster,
    partitioner: Partitioner,
    config: RuntimeConfig,
    weights: CapacityWeights | None = None,
) -> RunResult:
    """One runtime execution (thin convenience wrapper)."""
    runtime = SamrRuntime(
        workload,
        cluster,
        partitioner,
        monitor=ResourceMonitor(cluster),
        capacity_calculator=CapacityCalculator(weights),
        config=config,
    )
    return runtime.run()


# ---------------------------------------------------------------------------
# Campaign cells: the per-cell execution entrypoint
# ---------------------------------------------------------------------------
def _scenario_paper_four_node(seed: int, config: dict) -> Cluster:
    return Cluster.paper_four_node()


def _scenario_linux_static(seed: int, config: dict) -> Cluster:
    return Cluster.paper_linux_cluster(
        int(config.get("procs", 4)),
        loaded_fraction=float(config.get("loaded_fraction", 0.5)),
        seed=seed,
    )


def _scenario_linux_dynamic(seed: int, config: dict) -> Cluster:
    return Cluster.paper_linux_cluster(
        int(config.get("procs", 4)),
        loaded_fraction=float(config.get("loaded_fraction", 0.5)),
        seed=seed,
        dynamic=True,
        horizon_s=float(config.get("horizon_s", 600.0)),
    )


def _scenario_homogeneous(seed: int, config: dict) -> Cluster:
    return Cluster.homogeneous(int(config.get("procs", 4)))


def _scenario_heterogeneous_hw(seed: int, config: dict) -> Cluster:
    return Cluster.heterogeneous(int(config.get("procs", 4)), seed=seed)


#: Scenario registry for campaign grids: name -> cluster builder.  Every
#: builder is a pure function of (seed, config), so a cell re-executed on
#: any worker -- or any resume -- reproduces the identical simulation.
CAMPAIGN_SCENARIOS = {
    "paper-four-node": _scenario_paper_four_node,
    "linux-static": _scenario_linux_static,
    "linux-dynamic": _scenario_linux_dynamic,
    "homogeneous": _scenario_homogeneous,
    "heterogeneous-hw": _scenario_heterogeneous_hw,
}


def campaign_cell(
    scenario: str,
    partitioner: str,
    seed: int,
    config: dict | None = None,
    tracer=None,
) -> dict:
    """Execute one campaign grid cell; return its deterministic record.

    This is the unit of work :class:`repro.campaign.CampaignRunner` ships
    to worker processes.  The returned dict contains **simulated-clock
    quantities only** (run metrics, health summary, per-phase sim-second
    breakdown) -- never wall-clock readings, worker ids or timestamps --
    so the same cell produces byte-identical records whether it ran
    inline, on any of N pool workers, or in a resumed campaign.  Wall
    timings belong to the orchestrator's own telemetry, not the record.

    ``tracer`` injects the tracer the cell runs under (the campaign
    worker passes :func:`repro.telemetry.live.deterministic_tracer` so
    the per-cell artifact bundle it persists afterwards is also a pure
    function of the spec).  The default is such a deterministic tracer,
    not a wall-clock one, for the same reason.
    """
    config = dict(config or {})
    try:
        build_cluster = CAMPAIGN_SCENARIOS[scenario]
    except KeyError:
        raise ExperimentError(
            f"unknown campaign scenario {scenario!r}; choose from "
            f"{sorted(CAMPAIGN_SCENARIOS)}"
        ) from None
    iterations = int(config.get("iterations", 20))
    num_regrids = int(config.get("num_regrids", iterations // 5 + 2))
    workload = paper_rm3d_trace(num_regrids=num_regrids)
    cluster = build_cluster(seed, config)
    cfg = RuntimeConfig(
        iterations=iterations,
        regrid_interval=int(config.get("regrid_interval", 5)),
        sensing_interval=int(config.get("sensing_interval", 10)),
    )
    if tracer is None:
        tracer = deterministic_tracer()
    health = HealthMonitor().attach(tracer)
    with activate(tracer):
        result = run_once(workload, cluster, make_partitioner(partitioner), cfg)
    health.finish()

    summary = health.summary()
    return {
        "scenario": scenario,
        "partitioner": partitioner,
        "seed": int(seed),
        "config": config,
        "metrics": {
            "total_seconds": result.total_seconds,
            "compute_seconds": result.compute_seconds,
            "comm_seconds": result.comm_seconds,
            "migration_seconds": result.migration_seconds,
            "sensing_seconds": result.sensing_seconds,
            "iterations": result.iterations,
            "num_sensings": result.num_sensings,
            "num_regrids": len(result.regrids),
            "mean_imbalance_pct": result.mean_imbalance,
            "max_imbalance_pct": result.max_imbalance,
        },
        "health": {
            "num_snapshots": summary["num_snapshots"],
            "num_events": summary["num_events"],
            "events_by_severity": summary["events_by_severity"],
            "worst_imbalance_pct": summary["worst_imbalance_pct"],
            "imbalance_bound_pct": summary["imbalance_bound_pct"],
        },
        "phases": aggregate_phases(tracer, wall=False),
    }


# ---------------------------------------------------------------------------
# Fig. 7 / Table I
# ---------------------------------------------------------------------------
def execution_time_comparison(
    processor_counts: Sequence[int] = (4, 8, 16, 32),
    iterations: int = 40,
    seeds: Sequence[int] = (7, 19, 31),
    num_regrids: int = 8,
) -> dict:
    """Total execution time, system-sensitive vs default (Fig. 7), and the
    percentage improvement (Table I), averaged over seeds."""
    workload = paper_rm3d_trace(num_regrids=num_regrids)
    rows = []
    for p in processor_counts:
        het_times, comp_times = [], []
        for seed in seeds:
            for times, part in (
                (het_times, ACEHeterogeneous()),
                (comp_times, ACEComposite()),
            ):
                cluster = Cluster.paper_linux_cluster(p, seed=seed)
                cfg = RuntimeConfig(iterations=iterations, regrid_interval=5)
                times.append(
                    run_once(workload, cluster, part, cfg).total_seconds
                )
        het = float(np.mean(het_times))
        comp = float(np.mean(comp_times))
        rows.append(
            {
                "procs": p,
                "system_sensitive_s": het,
                "default_s": comp,
                "improvement_pct": (comp - het) / comp * 100.0,
            }
        )
    return {"rows": rows, "seeds": list(seeds), "iterations": iterations}


# ---------------------------------------------------------------------------
# Figs. 8, 9, 10: fixed capacities 16/19/31/34, regrid every 5 iterations
# ---------------------------------------------------------------------------
def _paper_four_node_run(
    partitioner: Partitioner, num_regrids: int = 8
) -> RunResult:
    workload = paper_rm3d_trace(num_regrids=num_regrids)
    cluster = Cluster.paper_four_node()
    cfg = RuntimeConfig(
        iterations=num_regrids * 5,
        regrid_interval=5,
        sensing_interval=0,  # capacities computed once before the start
    )
    return run_once(workload, cluster, partitioner, cfg)


def load_assignment_tracking(
    partitioner_name: str = "heterogeneous", num_regrids: int = 8
) -> dict:
    """Per-processor work assignment vs regrid number (Figs. 8 and 9).

    With the default partitioner the four series coincide (equal work);
    with ACEHeterogeneous they order by relative capacity 16/19/31/34 %.
    """
    result = _paper_four_node_run(make_partitioner(partitioner_name), num_regrids)
    loads = result.loads_by_regrid()
    return {
        "partitioner": partitioner_name,
        "capacities": result.regrids[0].capacities.tolist(),
        "regrid_numbers": list(range(1, len(result.regrids) + 1)),
        "loads": loads,  # shape (num_regrids, 4)
    }


def imbalance_comparison(num_regrids: int = 6) -> dict:
    """Percentage load imbalance per regrid for both schemes (Fig. 10),
    both judged against capacity-proportional targets."""
    out: dict = {"regrid_numbers": list(range(1, num_regrids + 1))}
    for key, name in (
        ("system_sensitive", "heterogeneous"),
        ("default", "composite"),
    ):
        result = _paper_four_node_run(make_partitioner(name), num_regrids)
        out[key] = np.array([r.imbalance.max() for r in result.regrids])
    return out


# ---------------------------------------------------------------------------
# Fig. 11 and sensing-frequency experiments (dynamic cluster)
# ---------------------------------------------------------------------------
def _calibrated_horizon(
    num_procs: int,
    workload: SyntheticWorkload,
    iterations: int,
    seed: int,
    fraction: float = 0.8,
) -> float:
    """Load-script horizon matched to the expected run length.

    The paper hand-tuned its load scripts to span the application run; we
    reproduce that by calibrating on a sense-once execution and scaling.
    """
    cluster = Cluster.paper_linux_cluster(
        num_procs, seed=seed, dynamic=True, horizon_s=1e9
    )
    cfg = RuntimeConfig(iterations=iterations, regrid_interval=5)
    base = run_once(workload, cluster, ACEHeterogeneous(), cfg).total_seconds
    return fraction * base


def dynamic_allocation_trace(
    num_sensings: int = 2,
    iterations: int = 30,
    seed: int = 5,
) -> dict:
    """Fig. 11: 4 nodes, loads on a subset, NWS queried once before the
    start plus ``num_sensings`` times during the run; work allocation and
    relative capacities tracked at every repartition point."""
    workload = paper_rm3d_trace(num_regrids=iterations // 5 + 2)
    interval = max(1, iterations // (num_sensings + 1))
    horizon = _calibrated_horizon(4, workload, iterations, seed)
    cluster = Cluster.paper_linux_cluster(
        4, seed=seed, dynamic=True, horizon_s=horizon
    )
    cfg = RuntimeConfig(
        iterations=iterations, regrid_interval=5, sensing_interval=interval
    )
    result = run_once(workload, cluster, ACEHeterogeneous(), cfg)
    return {
        "iterations": [r.iteration for r in result.regrids],
        "capacities": [r.capacities for r in result.regrids],
        "loads": [r.loads for r in result.regrids],
        "triggers": [r.trigger for r in result.regrids],
        "total_seconds": result.total_seconds,
    }


def dynamic_vs_static_sensing(
    processor_counts: Sequence[int] = (2, 4, 6, 8),
    iterations: int = 160,
    sensing_interval: int = 20,
    seeds: Sequence[int] = (5, 11, 23),
) -> dict:
    """Table II: execution time with dynamic sensing vs sensing only once,
    under identical load dynamics, averaged over seeds."""
    workload = paper_rm3d_trace(num_regrids=iterations // 5 + 2)
    rows = []
    for p in processor_counts:
        dyn_times, once_times = [], []
        for seed in seeds:
            horizon = _calibrated_horizon(p, workload, iterations, seed)
            for times, interval in (
                (dyn_times, sensing_interval),
                (once_times, 0),
            ):
                cluster = Cluster.paper_linux_cluster(
                    p, seed=seed, dynamic=True, horizon_s=horizon
                )
                cfg = RuntimeConfig(
                    iterations=iterations,
                    regrid_interval=5,
                    sensing_interval=interval,
                )
                times.append(
                    run_once(
                        workload, cluster, ACEHeterogeneous(), cfg
                    ).total_seconds
                )
        rows.append(
            {
                "procs": p,
                "dynamic_s": float(np.mean(dyn_times)),
                "once_s": float(np.mean(once_times)),
            }
        )
    return {"rows": rows, "seeds": list(seeds)}


def sensing_frequency_sweep(
    frequencies: Sequence[int] = (10, 20, 30, 40),
    iterations: int = 160,
    num_procs: int = 4,
    seeds: Sequence[int] = (5, 11, 23),
) -> dict:
    """Table III: execution time vs sensing frequency on 4 processors."""
    workload = paper_rm3d_trace(num_regrids=iterations // 5 + 2)
    rows = []
    horizons = {
        seed: _calibrated_horizon(num_procs, workload, iterations, seed)
        for seed in seeds
    }
    for freq in frequencies:
        times = []
        for seed in seeds:
            cluster = Cluster.paper_linux_cluster(
                num_procs, seed=seed, dynamic=True, horizon_s=horizons[seed]
            )
            cfg = RuntimeConfig(
                iterations=iterations, regrid_interval=5, sensing_interval=freq
            )
            times.append(
                run_once(workload, cluster, ACEHeterogeneous(), cfg).total_seconds
            )
        rows.append({"frequency": freq, "seconds": float(np.mean(times))})
    return {"rows": rows, "seeds": list(seeds), "procs": num_procs}


def sensing_frequency_traces(
    frequencies: Sequence[int] = (10, 20, 30, 40),
    iterations: int = 120,
    seed: int = 5,
) -> dict:
    """Figs. 12-15: per-processor allocation traces for each frequency."""
    workload = paper_rm3d_trace(num_regrids=iterations // 5 + 2)
    horizon = _calibrated_horizon(4, workload, iterations, seed)
    traces = {}
    for freq in frequencies:
        cluster = Cluster.paper_linux_cluster(
            4, seed=seed, dynamic=True, horizon_s=horizon
        )
        cfg = RuntimeConfig(
            iterations=iterations, regrid_interval=5, sensing_interval=freq
        )
        result = run_once(workload, cluster, ACEHeterogeneous(), cfg)
        traces[freq] = {
            "iterations": [r.iteration for r in result.regrids],
            "capacities": [r.capacities for r in result.regrids],
            "loads": [r.loads for r in result.regrids],
            "total_seconds": result.total_seconds,
        }
    return {"frequencies": list(frequencies), "traces": traces}


# ----------------------------------------------------------------------
# Chaos: checkpoint/restart + failure-aware repartitioning, end to end
# ----------------------------------------------------------------------
def _chaos_hierarchy():
    from repro.amr.hierarchy import GridHierarchy
    from repro.kernels.advection import AdvectionKernel
    from repro.util.geometry import Box

    kernel = AdvectionKernel(
        velocity=(1.0, 0.5), pulse_center=(8.0, 8.0), pulse_width=2.0
    )
    return GridHierarchy(Box((0, 0), (32, 32)), kernel, max_levels=3)


def chaos_experiment(
    num_nodes: int = 8,
    steps: int = 12,
    kill: int = 2,
    seed: int = 7,
    checkpoint_interval: int = 3,
    regrid_interval: int = 3,
    outage_window: tuple[float, float] = (0.3, 0.7),
    tracer=None,
) -> dict:
    """Kill ``kill`` of ``num_nodes`` mid-run, recover them, and verify.

    Three executions of the same advection problem:

    1. a *sequential* integrator run -- the reference solution;
    2. a fault-free distributed run -- calibrates total runtime so the
       outage can be placed mid-flight (at ``outage_window`` fractions);
    3. the *chaos* run: checkpoints every ``checkpoint_interval`` steps,
       a seeded :class:`~repro.resilience.chaos.FaultPlan` crashes the
       victim nodes and later brings them back, and the recovery stage
       restores + repartitions over the survivors.

    Solution integrity is the partition-invariance property under fire:
    the chaos run's final solution must be **bitwise identical** to the
    sequential one.  Returns a stats dict (the ``repro chaos`` report).
    """
    from repro.amr.ghost import GhostFiller
    from repro.amr.integrator import BergerOligerIntegrator
    from repro.resilience import FaultInjector, FaultPlan, ResilienceConfig
    from repro.runtime.distributed import (
        DistributedAmrRun,
        DistributedRunConfig,
    )
    if not 0 < kill < num_nodes:
        raise ExperimentError(
            f"kill must leave at least one survivor: kill={kill}, "
            f"nodes={num_nodes}"
        )
    # 1. Sequential reference.
    h_ref = _chaos_hierarchy()
    integ = BergerOligerIntegrator(h_ref, regrid_interval=regrid_interval)
    integ.setup()
    for _ in range(steps):
        integ.advance()
    reference = GhostFiller(h_ref).fetch(h_ref.domain, 0)

    cfg = DistributedRunConfig(steps=steps, regrid_interval=regrid_interval)
    # 2. Fault-free calibration run (also the no-overhead baseline).  The
    # initial sense + migration dominates short runs, so the outage is
    # placed inside the *stepping* phase -- its start is read off the
    # first "advance" span of an instrumented baseline.
    probe_tracer = Tracer()
    h_base = _chaos_hierarchy()
    baseline = DistributedAmrRun(
        h_base,
        Cluster.homogeneous(num_nodes),
        ACEHeterogeneous(),
        config=cfg,
        tracer=probe_tracer,
    ).run()
    step_starts = [
        s.start_sim for s in probe_tracer.spans if s.name == "advance"
    ]
    t_begin = min(step_starts) if step_starts else 0.0
    window = baseline.total_seconds - t_begin

    # 3. The chaos run.
    victims = list(range(kill))
    at = t_begin + outage_window[0] * window
    duration = (outage_window[1] - outage_window[0]) * window
    plan = FaultPlan.node_outage(victims, at=at, duration=duration, seed=seed)
    h_chaos = _chaos_hierarchy()
    cluster = Cluster.homogeneous(num_nodes)
    run = DistributedAmrRun(
        h_chaos,
        cluster,
        ACEHeterogeneous(),
        config=cfg,
        tracer=tracer,
        resilience=ResilienceConfig(checkpoint_interval=checkpoint_interval),
    )
    injector = FaultInjector(cluster, monitor=run.monitor, tracer=tracer)
    injector.arm(plan)
    result = run.run()
    solution = GhostFiller(h_chaos).fetch(h_chaos.domain, 0)

    identical = bool(np.array_equal(solution, reference))
    faults = fault_summary(tracer.events if tracer is not None else ())
    return {
        "num_nodes": num_nodes,
        "steps": steps,
        "killed_nodes": victims,
        "outage_at_s": at,
        "outage_duration_s": duration,
        "plan_events": len(plan.events),
        "applied_events": [
            {"time": t, "kind": kind, "node": node}
            for t, kind, node in injector.applied
        ],
        "baseline_seconds": baseline.total_seconds,
        "chaos_seconds": result.total_seconds,
        "overhead_pct": (
            (result.total_seconds / baseline.total_seconds - 1.0) * 100.0
            if baseline.total_seconds > 0
            else 0.0
        ),
        "num_checkpoints": result.num_checkpoints,
        "num_restores": result.num_restores,
        "num_recoveries": result.num_recoveries,
        "replayed_steps": result.replayed_steps,
        "recovery_seconds": result.recovery_seconds,
        "checkpoint_seconds": result.checkpoint_seconds,
        "time_to_recover_s": faults["time_to_recover_s"],
        "mean_time_to_recover_s": faults["mean_time_to_recover_s"],
        "bitwise_identical": identical,
    }
