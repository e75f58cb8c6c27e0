"""The seven reference workloads.

A workload is four steps the child process (:mod:`bench.child`) drives:

``setup(seed, scratch)``
    Import the ``repro`` modules the workload needs and build its inputs
    from the seed.  Timed as ``setup_s`` (with interpreter start-up).
``body(rep_dir)``
    One pass of the measured work.  Timed as one ``wall_s`` sample; the
    only code that runs between the two clock reads.
``digest(out)``
    Cheap, untimed: the deterministic quantities of the pass
    (``sim_time_s``, ``max_imbalance_pct``, bytes left on disk) and a
    fingerprint that must be identical on every pass of one seed.
``check(out)``
    Untimed output checks, each a ``(name, ok)`` pair counted into
    ``attempted``/``failed``.  Run once per distinct fingerprint.

Program modules are imported inside ``setup`` so that a workload's
``setup_s`` pays for exactly the imports it uses.  Functions the traced
pass wraps are called through their module (``export.write_jsonl``), not
imported by name, so a wrapper installed on the module is seen here too.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bench import inputs

#: Paper set-up shared by the two RM3D workloads.
RM3D_NODES = 32
RM3D_ITERATIONS = 200
RM3D_REGRID = 5
RM3D_SENSING = 20
RM3D_HORIZON_S = 600.0

MILLION_BOXES = 1_000_000
MILLION_RANKS = 1024

SWEEP_PASSES = 3
SWEEP_BOXES = 20_000
SWEEP_PATCH_RANKS = 64
SWEEP_RM3D_RANKS = 256
SWEEP_RM3D_EPOCHS = 8

CAMPAIGN_SCENARIOS = (
    "paper-four-node",
    "linux-static",
    "linux-dynamic",
    "heterogeneous-hw",
)
CAMPAIGN_PARTITIONERS = ("heterogeneous", "composite", "hybrid", "greedy")
CAMPAIGN_SEEDS = 6
CAMPAIGN_CELLS = (
    len(CAMPAIGN_SCENARIOS) * len(CAMPAIGN_PARTITIONERS) * CAMPAIGN_SEEDS
)

CHAOS_NODES = 8
CHAOS_STEPS = 12
CHAOS_KILL = 2


@dataclass
class Digest:
    """Deterministic summary of one pass (identical for one seed)."""

    fingerprint: str
    sim_time_s: float
    max_imbalance_pct: float | None = None
    disk_bytes: int | None = None
    #: per-layer counts read off the outputs (traced pass only)
    layer_counts: dict[str, float] = field(default_factory=dict)
    #: wall the program's own tracer recorded per stage (not deterministic;
    #: printed beside the harness's reading of the same stage)
    stage_wall: dict[str, float] = field(default_factory=dict)


def _fingerprint(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, float):
            h.update(part.hex().encode())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def disk_bytes(root: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _, names in os.walk(root)
        for name in names
    )


class Workload:
    """Base: the driver contract every workload fills in."""

    name = ""
    #: untimed passes before the timed ones (the partition span assigner
    #: needs two before the allocator stops faulting in fresh pages)
    warmups = 1

    def setup(self, seed: int, scratch: Path) -> None:
        raise NotImplementedError

    def warm(self, rep_dir: Path) -> None:
        """One untimed pass; workloads with a long body run a short one."""
        self.body(rep_dir)

    def body(self, rep_dir: Path):
        raise NotImplementedError

    def digest(self, out) -> Digest:
        raise NotImplementedError

    def check(self, out) -> list[tuple[str, bool]]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# rm3d32_trace / rm3d32_observed
# ----------------------------------------------------------------------
def _run_invariants(result, workload) -> list[tuple[str, bool]]:
    """The paper's invariants on a ``RunResult``."""
    caps_ok = all(
        abs(float(caps.sum()) - 1.0) < 1e-9 for _, caps in result.capacity_history
    )
    targets_ok = all(
        np.array_equal(r.targets, r.capacities * r.loads.sum())
        for r in result.regrids
    )
    last = workload.num_regrids - 1
    work_ok = all(
        np.isclose(
            r.loads.sum(),
            workload.work_of(min(r.iteration // RM3D_REGRID, last)),
            rtol=1e-12,
            atol=0.0,
        )
        for r in result.regrids
    )
    return [
        ("capacities_sum_to_one", caps_ok),
        ("targets_equal_capacity_times_work", targets_ok),
        ("loads_conserve_epoch_work", work_ok),
        ("iterations_completed", result.iterations == RM3D_ITERATIONS),
    ]


class Rm3dTrace(Workload):
    name = "rm3d32_trace"

    def setup(self, seed, scratch):
        from repro.cluster import Cluster
        from repro.kernels.workloads import paper_rm3d_trace
        from repro.partition import ACEHeterogeneous
        from repro.runtime.engine import RuntimeConfig, SamrRuntime

        self.seed = seed
        self.Cluster, self.Partitioner = Cluster, ACEHeterogeneous
        self.RuntimeConfig, self.SamrRuntime = RuntimeConfig, SamrRuntime
        self.workload = paper_rm3d_trace(
            num_regrids=RM3D_ITERATIONS // RM3D_REGRID + 2
        )

    def runtime(self, iterations=RM3D_ITERATIONS, **kwargs):
        """A fresh cluster (seeded load script) and runtime over it."""
        cluster = self.Cluster.paper_linux_cluster(
            RM3D_NODES, seed=self.seed, dynamic=True, horizon_s=RM3D_HORIZON_S
        )
        config = self.RuntimeConfig(
            iterations=iterations,
            regrid_interval=RM3D_REGRID,
            sensing_interval=RM3D_SENSING,
        )
        return self.SamrRuntime(
            self.workload, cluster, self.Partitioner(), config=config, **kwargs
        )

    def warm(self, rep_dir):
        # Same code path on a tenth of the iterations: imports, numpy
        # first-call costs and the allocator are warm after it.
        self.runtime(iterations=RM3D_ITERATIONS // 10).run()

    def body(self, rep_dir):
        return self.runtime().run()

    def digest(self, result):
        return Digest(
            fingerprint=_fingerprint(
                result.total_seconds,
                result.max_imbalance,
                result.mean_imbalance,
                len(result.regrids),
                result.num_sensings,
            ),
            sim_time_s=result.total_seconds,
            max_imbalance_pct=result.max_imbalance,
        )

    def check(self, result):
        return _run_invariants(result, self.workload)


class Rm3dObserved(Rm3dTrace):
    name = "rm3d32_observed"

    def setup(self, seed, scratch):
        super().setup(seed, scratch)
        from repro.learn import DecisionLedger, LearnConfig, LearnController
        from repro.learn import audit
        from repro.telemetry import export, profile, report
        from repro.telemetry.analysis import HealthMonitor
        from repro.telemetry.metrics import openmetrics_selfcheck
        from repro.telemetry.spans import Tracer

        self.Tracer, self.HealthMonitor = Tracer, HealthMonitor
        self.DecisionLedger, self.LearnController = DecisionLedger, LearnController
        self.learn_config = LearnConfig(
            adaptive_sensing=True, payoff_gate=True, transient_forecast=True
        )
        self.audit, self.export, self.profile, self.report = (
            audit,
            export,
            profile,
            report,
        )
        self.selfcheck = openmetrics_selfcheck

    def observed_runtime(self, rep_dir, iterations=RM3D_ITERATIONS, rungs=4):
        """Runtime with the first ``rungs`` instruments switched on.

        The order is the ladder the traced pass prices one rung at a
        time: 1 ``Tracer``, 2 + ``HealthMonitor``, 3 + ``LearnController``,
        4 + ``DecisionLedger``.
        """
        tracer = self.Tracer() if rungs >= 1 else None
        health = self.HealthMonitor().attach(tracer) if rungs >= 2 else None
        ledger = self.DecisionLedger(rep_dir / "ledger") if rungs >= 4 else None
        learn = (
            self.LearnController(self.learn_config, ledger=ledger)
            if rungs >= 3
            else None
        )
        runtime = self.runtime(iterations, tracer=tracer, learn=learn)
        return runtime, tracer, health

    def warm(self, rep_dir):
        runtime, _, health = self.observed_runtime(
            rep_dir, iterations=RM3D_ITERATIONS // 10
        )
        runtime.run()
        health.finish()

    def body(self, rep_dir):
        runtime, tracer, health = self.observed_runtime(rep_dir)
        result = runtime.run()
        health.finish()
        trace_path = rep_dir / "trace.jsonl"
        self.export.write_jsonl(tracer, trace_path)
        records = self.report.load_trace_records(trace_path)
        self.profile.analyze_critical_path(records)
        self.profile.comm_profile(records)
        flame = self.profile.flamegraph_collapsed(records)
        (rep_dir / "flamegraph.txt").write_text(flame, encoding="utf-8")
        html = self.report.render_dashboard(records)
        (rep_dir / "dashboard.html").write_text(html, encoding="utf-8")
        rows = self.audit.load_ledger_rows(rep_dir / "ledger")
        reconciled = self.audit.reconcile(rows)
        return {
            "result": result,
            "tracer": tracer,
            "records": records,
            "rows": rows,
            "reconciled": reconciled,
            "rep_dir": rep_dir,
            "trace_path": trace_path,
        }

    def digest(self, out):
        result, tracer = out["result"], out["tracer"]
        base = super().digest(result)
        run_spans = [s for s in tracer.spans if s.name == "run"]
        run_wall = sum(s.wall_duration for s in run_spans)
        run_ids = {s.span_id for s in run_spans}
        # Stages under the run span that carry a wall reading of their
        # own; nested stages (capacity under sense) are already covered
        # by their parent.
        staged = sum(
            s.wall_duration for s in tracer.spans if s.parent_id in run_ids
        )
        stage_wall = dict.fromkeys(("sense", "capacity", "partition", "migrate"), 0.0)
        for span in tracer.spans:
            if span.name in stage_wall:
                stage_wall[span.name] += span.wall_duration
        return Digest(
            fingerprint=_fingerprint(
                base.fingerprint, len(tracer.spans), len(out["rows"])
            ),
            sim_time_s=base.sim_time_s,
            max_imbalance_pct=base.max_imbalance_pct,
            disk_bytes=disk_bytes(out["rep_dir"]),
            layer_counts={
                "telemetry.spans_recorded": len(tracer.spans),
                "telemetry.export_bytes": out["trace_path"].stat().st_size,
                "telemetry.span_coverage_frac": (
                    staged / run_wall if run_wall > 0 else 0.0
                ),
            },
            stage_wall=stage_wall,
        )

    def check(self, out):
        tracer, records, rows = out["tracer"], out["records"], out["rows"]
        checks = _run_invariants(out["result"], self.workload)
        gates = [r for r in rows if r.get("kind") == "gate"]
        checks += [
            (f"gate_replay_bit_exact[{r['seq']}]", self.audit.verify_decision(r)["match"])
            for r in gates
        ]
        span_records = sum(1 for r in records if r.get("type") == "span")
        checks += [
            ("jsonl_span_count_round_trip", span_records == len(tracer.spans)),
            (
                "openmetrics_selfcheck",
                self.selfcheck(tracer.metrics.to_openmetrics()) == [],
            ),
            (
                "reconcile_counts_every_row",
                sum(out["reconciled"]["counts"].values()) == len(rows),
            ),
        ]
        return checks


# ----------------------------------------------------------------------
# partition_1m / partition_sweep
# ----------------------------------------------------------------------
def _partition_quality(result, capacities, spwu):
    """(worst I_k vs capacity-proportional targets, modelled step seconds)."""
    from repro.partition.metrics import imbalance_pct, makespan_estimate

    loads = result.loads()
    imbalance = imbalance_pct(loads, capacities * loads.sum())
    # Relative capacity x P is the rank's effective speed (a rank of
    # mean capacity has speed 1), so this is the simulated compute time
    # of one iteration under the partition -- the paper's quantity.
    seconds = makespan_estimate(result, capacities * len(capacities)) * spwu
    return float(imbalance.max()), seconds


def _partition_checks(result, boxes, capacities, tag):
    from repro.util.errors import PartitionError

    try:
        result.validate_covers(boxes)  # covers every level + is_disjoint
        covers = True
    except PartitionError:
        covers = False
    loads = result.loads()
    total = result.work_model.total(boxes)
    return [
        (f"covers_and_disjoint[{tag}]", covers),
        (f"work_conserved[{tag}]", bool(np.isclose(loads.sum(), total, rtol=1e-12))),
        (f"ranks_in_range[{tag}]", int(result.rank_vector().max()) < len(capacities)),
    ]


class Partition1m(Workload):
    name = "partition_1m"
    warmups = 2

    def setup(self, seed, scratch):
        from repro.partition import SFCHybrid, WorkModel
        from repro.runtime.timemodel import DEFAULT_SECONDS_PER_WORK_UNIT
        from repro.util.geometry import BoxArray, BoxList

        self.SFCHybrid, self.WorkModel = SFCHybrid, WorkModel
        self.spwu = DEFAULT_SECONDS_PER_WORK_UNIT
        rng = inputs.rng_for(seed, "partition_1m")
        self.columns = inputs.patchwork_columns(MILLION_BOXES, rng)
        self.boxes = BoxList.from_array(BoxArray(*self.columns))
        self.capacities = inputs.class_capacities(MILLION_RANKS, rng)

    def body(self, rep_dir):
        result = self.SFCHybrid().partition(
            self.boxes, self.capacities, self.WorkModel()
        )
        result.loads()
        return result

    def digest(self, result):
        imbalance, seconds = _partition_quality(result, self.capacities, self.spwu)
        return Digest(
            fingerprint=_fingerprint(
                result.rank_vector(), result.loads(), result.num_splits
            ),
            sim_time_s=seconds,
            max_imbalance_pct=imbalance,
        )

    def check(self, result):
        return _partition_checks(result, self.boxes, self.capacities, "1m")


class PartitionSweep(Workload):
    name = "partition_sweep"

    def setup(self, seed, scratch):
        from repro.kernels.workloads import paper_rm3d_trace
        from repro.partition import (
            ACEComposite,
            ACEHeterogeneous,
            GreedyLPT,
            LevelPartitioner,
            SFCHybrid,
            WorkModel,
        )
        from repro.runtime.timemodel import DEFAULT_SECONDS_PER_WORK_UNIT
        from repro.util.geometry import BoxArray, BoxList

        self.WorkModel = WorkModel
        self.spwu = DEFAULT_SECONDS_PER_WORK_UNIT
        self.partitioners = (
            ACEHeterogeneous,
            ACEComposite,
            SFCHybrid,
            GreedyLPT,
            lambda: LevelPartitioner(ACEHeterogeneous()),
        )
        rng = inputs.rng_for(seed, "partition_sweep")
        patchwork = BoxList.from_array(
            BoxArray(*inputs.patchwork_columns(SWEEP_BOXES, rng))
        )
        patch_caps = inputs.skewed_capacities(SWEEP_PATCH_RANKS, rng)
        rm3d_caps = inputs.skewed_capacities(SWEEP_RM3D_RANKS, rng)
        trace = paper_rm3d_trace(num_regrids=SWEEP_RM3D_EPOCHS)
        #: (tag, boxes, capacities) per partition call of one pass
        self.cases = [("patchwork", patchwork, patch_caps)] + [
            (f"rm3d{e}", trace.epoch(e), rm3d_caps)
            for e in range(SWEEP_RM3D_EPOCHS)
        ]

    def body(self, rep_dir):
        for _ in range(SWEEP_PASSES):
            results = []
            for make in self.partitioners:
                partitioner = make()
                for _, boxes, capacities in self.cases:
                    result = partitioner.partition(
                        boxes, capacities, self.WorkModel()
                    )
                    result.loads()
                    results.append(result)
        return results  # every pass produces the same partitions

    def _cases_of(self, results):
        cases = self.cases * len(self.partitioners)
        return zip(results, cases)

    def digest(self, results):
        worst, seconds = 0.0, 0.0
        for result, (_, _, capacities) in self._cases_of(results):
            imbalance, step_s = _partition_quality(result, capacities, self.spwu)
            worst = max(worst, imbalance)
            seconds += step_s
        return Digest(
            fingerprint=_fingerprint(
                *[r.rank_vector() for r in results],
                sum(r.num_splits for r in results),
            ),
            sim_time_s=seconds,
            max_imbalance_pct=worst,
        )

    def check(self, results):
        checks = []
        for i, (result, (tag, boxes, capacities)) in enumerate(
            self._cases_of(results)
        ):
            which = i // len(self.cases)
            checks += _partition_checks(result, boxes, capacities, f"p{which}/{tag}")
        return checks


# ----------------------------------------------------------------------
# campaign_inline / campaign_sharded
# ----------------------------------------------------------------------
class CampaignInline(Workload):
    name = "campaign_inline"
    workers = 1

    def setup(self, seed, scratch):
        from repro.campaign.orchestrator import CampaignRunner
        from repro.campaign.spec import CampaignSpec
        from repro.campaign.store import RESULTS_NAME, ResultStore

        self.CampaignRunner, self.ResultStore = CampaignRunner, ResultStore
        self.results_name = RESULTS_NAME
        self.spec = CampaignSpec(
            name="bench",
            scenarios=CAMPAIGN_SCENARIOS,
            partitioners=CAMPAIGN_PARTITIONERS,
            seeds=inputs.campaign_seeds(seed, CAMPAIGN_SEEDS),
            base_config={"iterations": 6},
        )

    def campaign_dir(self, rep_dir: Path) -> Path:
        # <root>/<campaign_id> is the layout `repro serve` expects.
        return rep_dir / self.spec.campaign_id

    def body(self, rep_dir):
        return self.run_campaign(rep_dir, self.workers)

    def run_campaign(self, rep_dir, workers):
        directory = self.campaign_dir(rep_dir)
        first = self.CampaignRunner(self.spec, directory, workers=workers).run()
        resumed = self.CampaignRunner(self.spec, directory, workers=workers).run()
        store = self.ResultStore(directory)
        store.compact()
        records = store.records()
        return {
            "first": first,
            "resumed": resumed,
            "records": records,
            "rep_dir": rep_dir,
            "directory": directory,
        }

    def _results_sha(self, directory: Path) -> str:
        return hashlib.sha256(
            (directory / self.results_name).read_bytes()
        ).hexdigest()

    def digest(self, out):
        metrics = [r["metrics"] for r in out["records"]]
        return Digest(
            fingerprint=self._results_sha(out["directory"])[:16],
            sim_time_s=sum(m["total_seconds"] for m in metrics),
            max_imbalance_pct=max(m["max_imbalance_pct"] for m in metrics),
            disk_bytes=disk_bytes(out["rep_dir"]),
            layer_counts={"campaign.cells": out["first"]["executed"]},
        )

    def check(self, out):
        first, resumed = out["first"], out["resumed"]
        return [
            ("executed_all_cells", first["executed"] == CAMPAIGN_CELLS),
            ("no_failed_cells", first["failed"] == 0 and resumed["failed"] == 0),
            ("campaign_complete", bool(first["complete"])),
            ("resume_executes_nothing", resumed["executed"] == 0),
            ("read_back_all_cells", len(out["records"]) == CAMPAIGN_CELLS),
        ]


class CampaignSharded(CampaignInline):
    name = "campaign_sharded"
    workers = 2  # = nproc of the reference machine

    def check(self, out):
        # The sharded store must be byte-identical to an inline run of
        # the same spec; artifacts do not enter results.jsonl, so the
        # reference skips them.
        reference = out["rep_dir"] / "inline-reference"
        self.CampaignRunner(
            self.spec, reference, workers=1, artifacts=False
        ).run()
        same = self._results_sha(reference) == self._results_sha(out["directory"])
        return super().check(out) + [("results_equal_inline_sha256", same)]


# ----------------------------------------------------------------------
# chaos_amr
# ----------------------------------------------------------------------
class ChaosAmr(Workload):
    name = "chaos_amr"

    def setup(self, seed, scratch):
        from repro.runtime import experiment

        self.experiment = experiment
        self.seed = seed
        self.window = inputs.outage_window(inputs.rng_for(seed, "chaos_amr"))

    def body(self, rep_dir):
        return self.experiment.chaos_experiment(
            num_nodes=CHAOS_NODES,
            steps=CHAOS_STEPS,
            kill=CHAOS_KILL,
            seed=self.seed,
            outage_window=self.window,
        )

    def digest(self, stats):
        return Digest(
            fingerprint=_fingerprint(
                stats["chaos_seconds"],
                stats["baseline_seconds"],
                stats["recovery_seconds"],
                stats["num_checkpoints"],
                stats["replayed_steps"],
            ),
            # Both distributed runs: the fault-free one and the chaos one.
            sim_time_s=stats["baseline_seconds"] + stats["chaos_seconds"],
        )

    def check(self, stats):
        return [
            ("bitwise_identical_to_sequential", bool(stats["bitwise_identical"])),
            ("restored_at_least_once", stats["num_restores"] >= 1),
            ("recovered_at_least_once", stats["num_recoveries"] >= 1),
            ("all_steps_completed", stats["steps"] == CHAOS_STEPS),
        ]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        Rm3dTrace,
        Rm3dObserved,
        Partition1m,
        PartitionSweep,
        CampaignInline,
        CampaignSharded,
        ChaosAmr,
    )
}
