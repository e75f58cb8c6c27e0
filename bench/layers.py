"""Per-layer attribution: which public functions are wrapped, and how the
recorded spans become the per-layer metrics of ``BENCHMARK.json``.

Three tables drive everything (the first two built lazily, since they
import the program):

- :func:`_method_spans` / :func:`_function_spans` -- span name -> the
  program's public callables wrapped under it.  The part of a span name
  before the first dot is the *layer*; a layer's share of a pass is the
  summed self time of its spans.
- :data:`METRICS` -- every per-layer metric: unit, direction, the
  end-to-end metric and workload it should move, and how it is read off
  one repetition's span statistics (``None`` for metrics measured by a
  dedicated step in :func:`extras`).
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from bench.trace import END, NAME, PARENT, REP, START, TAG, SpanRecorder, SpanStats

REPO_ROOT = Path(__file__).resolve().parent.parent

PARTITION_SPAN = "partition.partition"


# ----------------------------------------------------------------------
# What is wrapped
# ----------------------------------------------------------------------
def _outermost(rec: SpanRecorder, span: list) -> bool:
    parent = span[PARENT]
    return parent < 0 or rec.spans[parent][NAME] != span[NAME]


def _note_partition(rec, span, args, result):
    span[TAG] = type(args[0]).__name__
    if _outermost(rec, span):
        rec.counts[span[REP], "partition.boxes_in"] += len(args[1])
        rec.counts[span[REP], "partition.splits"] += result.num_splits


def _note_exchange(rec, span, args, result):
    rec.counts[span[REP], "comm.messages"] += len(args[1])


def _note_kernel_step(rec, span, args, result):
    rec.counts[span[REP], "kernels.cell_updates"] += args[1][0].size


def _note_checkpoint(rec, span, args, result):
    rec.counts[span[REP], "resilience.checkpoint_bytes"] += result.nbytes


def _note_campaign_run(rec, span, args, result):
    span[TAG] = "resume" if result["executed"] == 0 else "run"


def _observe_state_query(rec, args, kwargs):
    cluster, node = args[0], args[1]
    t = args[2] if len(args) > 2 else kwargs.get("t")
    rec.unique[rec.rep, "cluster.state_query"].add(
        (node, cluster.clock.now if t is None else t)
    )


def _method_spans():
    """(span name, class, method, annotate) for every wrapped method."""
    from repro.amr.ghost import GhostFiller
    from repro.amr.integrator import BergerOligerIntegrator
    from repro.campaign.orchestrator import CampaignRunner
    from repro.campaign.store import ResultStore
    from repro.comm.simmpi import SimCommunicator
    from repro.hdda import HDDA
    from repro.kernels.advection import AdvectionKernel
    from repro.learn import DecisionLedger, LearnController
    from repro.monitor.service import ResourceMonitor
    from repro.partition import (
        ACEComposite,
        ACEHeterogeneous,
        GraphPartitioner,
        GreedyLPT,
        LevelPartitioner,
        SFCHybrid,
    )
    from repro.partition.capacity import CapacityCalculator
    from repro.resilience.checkpoint import (
        CheckpointManager,
        DirectoryCheckpointStore,
    )
    from repro.runtime.distributed import DistributedAmrRun
    from repro.runtime.engine import SamrRuntime
    from repro.runtime.pipeline import RepartitionPipeline
    from repro.runtime.timemodel import TimeModel
    from repro.telemetry.live import ProgressLog

    rows = [
        ("runtime.price", TimeModel, "iteration_cost", None),
        ("runtime.price", TimeModel, "iteration_cost_per_level", None),
        ("runtime.sense", RepartitionPipeline, "sense", None),
        ("runtime.repartition", RepartitionPipeline, "repartition", None),
        ("runtime.recover", RepartitionPipeline, "recover", None),
        ("runtime.loop", SamrRuntime, "run", None),
        ("runtime.loop", DistributedAmrRun, "run", None),
        ("comm.exchange", SimCommunicator, "exchange_time", _note_exchange),
        ("comm.exchange", SimCommunicator, "allreduce_time", None),
        ("amr.ghost_fill", GhostFiller, "fill_level_ghosts", None),
        # setup() is the initial regrid (the integrator counts it as one).
        ("amr.regrid", BergerOligerIntegrator, "setup", None),
        ("amr.regrid", BergerOligerIntegrator, "regrid", None),
        ("amr.advance", BergerOligerIntegrator, "advance", None),
        ("kernels.step", AdvectionKernel, "step", _note_kernel_step),
        ("hdda.apply", HDDA, "apply_assignment", None),
        ("monitor.probe", ResourceMonitor, "probe_all", None),
        ("partition.capacity", CapacityCalculator, "relative_capacities", None),
        ("learn.observe", LearnController, "observe_sense", None),
        ("learn.observe", LearnController, "observe_iteration", None),
        ("learn.observe", LearnController, "observe_repartition", None),
        ("learn.observe", LearnController, "observe_recover", None),
        ("learn.decide", LearnController, "repartition_decision", None),
        ("learn.decide", LearnController, "sense_due", None),
        ("learn.ledger_append", DecisionLedger, "record", None),
        ("resilience.checkpoint_save", CheckpointManager, "save", _note_checkpoint),
        ("resilience.restore", CheckpointManager, "restore_latest", None),
        ("resilience.state_checkpoint", DirectoryCheckpointStore, "save", None),
        ("campaign.run", CampaignRunner, "run", _note_campaign_run),
        ("campaign.store_append", ResultStore, "append", None),
        ("campaign.compact", ResultStore, "compact", None),
        ("telemetry.progress_append", ProgressLog, "append", None),
    ]
    # Each concrete scheme carries its own (program-wrapped) ``partition``.
    for cls in (
        ACEHeterogeneous,
        ACEComposite,
        SFCHybrid,
        GreedyLPT,
        LevelPartitioner,
        GraphPartitioner,
    ):
        rows.append((PARTITION_SPAN, cls, "partition", _note_partition))
    return rows


def _function_spans():
    """(span name, module, function name, rebind) for wrapped functions.

    ``rebind`` patches every ``from m import f`` copy of the function as
    well (the program calls it through one); without it only calls that
    go through the module attribute -- the workload body's -- are seen,
    which keeps e.g. the profile passes *inside* ``render_dashboard``
    out of ``telemetry.profile``.
    """
    from repro.amr import ghost
    from repro.campaign import orchestrator
    from repro.learn import audit
    from repro.partition import metrics
    from repro.telemetry import export, live, profile, report

    return [
        ("amr.exchange_plan", ghost, "plan_exchange_volumes", True),
        ("partition.redistribution", metrics, "redistribution_volume_columns", True),
        ("campaign.execute_cell", orchestrator, "execute_cell", False),
        ("telemetry.bundle_write", live, "write_cell_bundle", True),
        ("telemetry.export", export, "write_jsonl", False),
        ("telemetry.load", report, "load_trace_records", False),
        ("telemetry.profile", profile, "analyze_critical_path", False),
        ("telemetry.profile", profile, "comm_profile", False),
        ("telemetry.profile", profile, "flamegraph_collapsed", False),
        ("telemetry.report", report, "render_dashboard", False),
        ("learn.reconcile", audit, "load_ledger_rows", False),
        ("learn.reconcile", audit, "reconcile", False),
        ("io.fsync", os, "fsync", False),
    ]


def install(rec: SpanRecorder) -> None:
    """Swap every wrapped callable in; :meth:`SpanRecorder.remove` undoes it."""
    from repro.cluster.cluster import Cluster
    from repro.util.geometry import Box

    for name, cls, attr, annotate in _method_spans():
        rec.patch_attr(
            cls, attr, lambda fn, n=name, a=annotate: rec.span_wrapper(fn, n, a)
        )
    for name, module, attr, rebind in _function_spans():
        make = lambda fn, n=name: rec.span_wrapper(fn, n)  # noqa: E731
        if rebind:
            rec.patch_function(getattr(module, attr), make)
        else:
            rec.patch_attr(module, attr, make)
    rec.patch_attr(
        Cluster,
        "state_of",
        lambda fn: rec.leaf_wrapper(fn, "cluster.state_query", _observe_state_query),
    )
    rec.patch_attr(
        Box, "intersection", lambda fn: rec.count_wrapper(fn, "util.box_intersections")
    )


# ----------------------------------------------------------------------
# The per-layer metrics
# ----------------------------------------------------------------------
@dataclass
class RepView:
    """One traced repetition as the metric readers see it."""

    rec: SpanRecorder
    rep: int
    stats: dict[str, SpanStats]  # a defaultdict: an unseen span reads as zeros

    def count(self, name: str) -> float:
        return self.rec.counts.get((self.rep, name), 0.0)

    def leaf(self, name: str) -> list:
        return self.rec.leaves.get((self.rep, name), [0, 0.0])


Reader = Callable[[RepView], float]


def _calls(span: str) -> Reader:
    return lambda v: v.stats[span].calls


def _total(span: str) -> Reader:
    return lambda v: v.stats[span].total_s


def _self(span: str) -> Reader:
    return lambda v: v.stats[span].self_s


def _tagged(span: str, tag: str) -> Reader:
    return lambda v: v.stats[span].by_tag.get(tag, 0.0)


def _count(name: str) -> Reader:
    return lambda v: v.count(name)


def _unique_frac(v: RepView) -> float:
    calls = v.leaf("cluster.state_query")[0]
    seen = v.rec.unique.get((v.rep, "cluster.state_query"), ())
    return len(seen) / calls if calls else 0.0


RM3D = "wall_s on rm3d32_trace, rm3d32_observed"
CAMPAIGN = "wall_s on campaign_inline, campaign_sharded"
PARTITION = "wall_s, sim_time_s on partition_1m, partition_sweep"

#: (name, unit, better, moves, reader) -- reader None: see extras()/child
METRICS: list[tuple[str, str, str, str, Reader | None]] = [
    # runtime
    ("runtime.price_calls", "count", "lower", RM3D, _calls("runtime.price")),
    ("runtime.price_s", "s", "lower", RM3D, _total("runtime.price")),
    ("runtime.sense_calls", "count", "lower", RM3D, _calls("runtime.sense")),
    ("runtime.sense_s", "s", "lower", RM3D, _total("runtime.sense")),
    ("runtime.repartition_calls", "count", "lower", RM3D, _calls("runtime.repartition")),
    ("runtime.repartition_self_s", "s", "lower", RM3D, _self("runtime.repartition")),
    ("runtime.recover_calls", "count", "lower", "wall_s on chaos_amr", _calls("runtime.recover")),
    ("runtime.recover_s", "s", "lower", "wall_s on chaos_amr", _total("runtime.recover")),
    ("runtime.loop_self_s", "s", "lower", RM3D + ", chaos_amr", _self("runtime.loop")),
    # comm
    ("comm.exchange_calls", "count", "lower", RM3D, _calls("comm.exchange")),
    ("comm.exchange_self_s", "s", "lower", RM3D, _self("comm.exchange")),
    ("comm.messages", "count", "lower", RM3D, _count("comm.messages")),
    # cluster
    ("cluster.state_queries", "count", "lower", RM3D, lambda v: v.leaf("cluster.state_query")[0]),
    ("cluster.state_query_s", "s", "lower", RM3D, lambda v: v.leaf("cluster.state_query")[1]),
    ("cluster.state_query_unique_frac", "ratio", "higher", RM3D, _unique_frac),
    # amr
    ("amr.exchange_plan_calls", "count", "lower", RM3D, _calls("amr.exchange_plan")),
    ("amr.exchange_plan_s", "s", "lower", RM3D, _total("amr.exchange_plan")),
    ("amr.ghost_fill_calls", "count", "lower", "wall_s on chaos_amr", _calls("amr.ghost_fill")),
    ("amr.ghost_fill_s", "s", "lower", "wall_s on chaos_amr", _total("amr.ghost_fill")),
    ("amr.regrid_calls", "count", "lower", "wall_s on chaos_amr", _calls("amr.regrid")),
    ("amr.regrid_s", "s", "lower", "wall_s on chaos_amr", _total("amr.regrid")),
    ("amr.advance_self_s", "s", "lower", "wall_s on chaos_amr", _self("amr.advance")),
    # kernels
    ("kernels.step_calls", "count", "lower", "wall_s on chaos_amr (small)", _calls("kernels.step")),
    ("kernels.step_s", "s", "lower", "wall_s on chaos_amr (small)", _total("kernels.step")),
    ("kernels.cell_updates", "count", "lower", "wall_s on chaos_amr (small)", _count("kernels.cell_updates")),
    # hdda / monitor
    ("hdda.apply_calls", "count", "lower", RM3D, _calls("hdda.apply")),
    ("hdda.apply_s", "s", "lower", RM3D, _total("hdda.apply")),
    ("monitor.probe_calls", "count", "lower", "sim_time_s on rm3d32_*", _calls("monitor.probe")),
    ("monitor.probe_s", "s", "lower", "sim_time_s on rm3d32_*", _total("monitor.probe")),
    # partition
    ("partition.calls", "count", "lower", PARTITION, _calls(PARTITION_SPAN)),
    ("partition.partition_s", "s", "lower", PARTITION, _total(PARTITION_SPAN)),
    ("partition.boxes_in", "count", "lower", PARTITION, _count("partition.boxes_in")),
    ("partition.splits", "count", "lower", PARTITION, _count("partition.splits")),
    ("partition.first_call_s", "s", "lower", "wall_s on partition_1m", None),
    ("partition.redistribution_s", "s", "lower", RM3D, _total("partition.redistribution")),
    ("partition.capacity_s", "s", "lower", RM3D, _total("partition.capacity")),
    ("partition.max_imbalance_pct", "%", "lower", "sim_time_s on partition_*, rm3d32_*", None),
    ("partition.ACEHeterogeneous_s", "s", "lower", "wall_s on partition_sweep", _tagged(PARTITION_SPAN, "ACEHeterogeneous")),
    ("partition.ACEComposite_s", "s", "lower", "wall_s on partition_sweep", _tagged(PARTITION_SPAN, "ACEComposite")),
    ("partition.SFCHybrid_s", "s", "lower", "wall_s on partition_sweep, partition_1m", _tagged(PARTITION_SPAN, "SFCHybrid")),
    ("partition.GreedyLPT_s", "s", "lower", "wall_s on partition_sweep", _tagged(PARTITION_SPAN, "GreedyLPT")),
    ("partition.LevelPartitioner_s", "s", "lower", "wall_s on partition_sweep", _tagged(PARTITION_SPAN, "LevelPartitioner")),
    # util
    ("util.sfc_order_s", "s", "lower", "wall_s on partition_1m", None),
    ("util.boxarray_build_s", "s", "lower", "setup_s on partition_1m", None),
    ("util.box_intersections", "count", "lower", RM3D + ", chaos_amr", _count("util.box_intersections")),
    # telemetry
    ("telemetry.tracer_delta_s", "s", "lower", "wall_s on rm3d32_observed", None),
    ("telemetry.health_delta_s", "s", "lower", "wall_s on rm3d32_observed", None),
    ("telemetry.spans_recorded", "count", "lower", "wall_s on rm3d32_observed", None),
    ("telemetry.export_s", "s", "lower", "wall_s on rm3d32_observed", _total("telemetry.export")),
    ("telemetry.export_bytes", "bytes", "lower", "wall_s on rm3d32_observed", None),
    ("telemetry.load_s", "s", "lower", "wall_s on rm3d32_observed", _total("telemetry.load")),
    ("telemetry.profile_s", "s", "lower", "wall_s on rm3d32_observed", _total("telemetry.profile")),
    ("telemetry.report_s", "s", "lower", "wall_s on rm3d32_observed", _total("telemetry.report")),
    ("telemetry.bundle_write_s", "s", "lower", CAMPAIGN, _total("telemetry.bundle_write")),
    ("telemetry.progress_append_s", "s", "lower", CAMPAIGN, _total("telemetry.progress_append")),
    ("telemetry.span_coverage_frac", "ratio", "higher", "none (observability gap)", None),
    # learn
    ("learn.observe_calls", "count", "lower", "wall_s on rm3d32_observed", _calls("learn.observe")),
    ("learn.observe_s", "s", "lower", "wall_s on rm3d32_observed", _total("learn.observe")),
    ("learn.decide_calls", "count", "lower", "wall_s on rm3d32_observed", _calls("learn.decide")),
    ("learn.decide_s", "s", "lower", "wall_s on rm3d32_observed", _total("learn.decide")),
    ("learn.ledger_appends", "count", "lower", "wall_s on rm3d32_observed", _calls("learn.ledger_append")),
    ("learn.ledger_append_s", "s", "lower", "wall_s on rm3d32_observed", _total("learn.ledger_append")),
    ("learn.controller_delta_s", "s", "lower", "wall_s, sim_time_s on rm3d32_observed", None),
    ("learn.ledger_delta_s", "s", "lower", "wall_s on rm3d32_observed", None),
    ("learn.reconcile_s", "s", "lower", "wall_s on rm3d32_observed", _total("learn.reconcile")),
    # resilience
    ("resilience.checkpoint_saves", "count", "lower", "wall_s on chaos_amr", _calls("resilience.checkpoint_save")),
    ("resilience.checkpoint_save_s", "s", "lower", "wall_s on chaos_amr", _total("resilience.checkpoint_save")),
    ("resilience.checkpoint_bytes", "bytes", "lower", "wall_s on chaos_amr", _count("resilience.checkpoint_bytes")),
    ("resilience.restore_calls", "count", "lower", "wall_s on chaos_amr", _calls("resilience.restore")),
    ("resilience.restore_s", "s", "lower", "wall_s on chaos_amr", _total("resilience.restore")),
    ("resilience.state_checkpoint_s", "s", "lower", CAMPAIGN, _total("resilience.state_checkpoint")),
    # campaign
    ("campaign.cells", "count", "higher", CAMPAIGN, None),
    ("campaign.execute_cell_s", "s", "lower", "wall_s on campaign_inline", _total("campaign.execute_cell")),
    ("campaign.store_append_s", "s", "lower", CAMPAIGN, _total("campaign.store_append")),
    ("campaign.compact_s", "s", "lower", CAMPAIGN, _total("campaign.compact")),
    ("campaign.resume_s", "s", "lower", CAMPAIGN, _tagged("campaign.run", "resume")),
    ("campaign.orchestration_self_s", "s", "lower", CAMPAIGN, _self("campaign.run")),
    ("campaign.sharded_speedup", "ratio", "higher", "wall_s on campaign_sharded", None),
    ("campaign.serve_cells_ms", "ms", "lower", "none (serving path)", None),
    ("campaign.serve_metrics_ms", "ms", "lower", "none (serving path)", None),
    ("campaign.serve_304_ms", "ms", "lower", "none (serving path)", None),
    # io
    ("io.fsync_calls", "count", "lower", CAMPAIGN + ", rm3d32_observed", _calls("io.fsync")),
    ("io.fsync_s", "s", "lower", CAMPAIGN + ", rm3d32_observed", _total("io.fsync")),
    ("io.bytes_written", "bytes", "lower", "disk left by campaign_*, rm3d32_observed", None),
    # cli
    ("cli.import_s", "s", "lower", "setup_s everywhere", None),
    ("cli.help_s", "s", "lower", "setup_s everywhere", None),
    # the harness itself
    ("bench.trace_overhead_frac", "ratio", "lower", "harness health", None),
    ("bench.unattributed_frac", "ratio", "lower", "harness health", None),
]

METRIC_NAMES = [m[0] for m in METRICS]


def rep_metrics(rec: SpanRecorder, rep: int, stats: dict[str, SpanStats]) -> dict[str, float]:
    """Every span-derived metric of one repetition."""
    view = RepView(rec, rep, stats)
    return {name: float(read(view)) for name, _, _, _, read in METRICS if read}


def layer_shares(stats: dict[str, SpanStats], rec: SpanRecorder, rep: int, wall: float) -> dict[str, float]:
    """Self time per layer as a share of the repetition's wall."""
    seconds: dict[str, float] = {}
    for name, entry in stats.items():
        layer = name.split(".", 1)[0]
        seconds[layer] = seconds.get(layer, 0.0) + entry.self_s
    for (leaf_rep, name), (_, leaf_s) in rec.leaves.items():
        if leaf_rep == rep:
            layer = name.split(".", 1)[0]
            seconds[layer] = seconds.get(layer, 0.0) + leaf_s
    return {layer: s / wall for layer, s in sorted(seconds.items()) if s > 0.0}


#: Program stage -> the harness spans that cover the same work.  The
#: program's ``migrate`` span wraps the cell-owner diff, the HDDA update
#: and the pricing of the transfer, which the harness sees as three
#: children of ``runtime.repartition``.
STAGE_SPANS = {
    "sense": ("runtime.sense",),
    "capacity": ("partition.capacity",),
    "partition": (PARTITION_SPAN,),
    "migrate": ("partition.redistribution", "hdda.apply", "comm.exchange"),
}


def stage_seconds(rec: SpanRecorder, rep: int) -> dict[str, float]:
    """Harness wall per program stage for one repetition."""
    out = dict.fromkeys(STAGE_SPANS, 0.0)
    for span in rec.spans:
        if span[REP] != rep:
            continue
        parent = rec.spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None
        for stage, names in STAGE_SPANS.items():
            if span[NAME] not in names or parent == span[NAME]:
                continue
            if stage == "migrate" and parent not in (
                "runtime.repartition",
                "runtime.recover",
            ):
                continue
            out[stage] += span[END] - span[START]
    return out


def first_partition_call_s(rec: SpanRecorder) -> float:
    """Wall of the process's first partition call (warm-up included)."""
    for span in rec.spans:
        if span[NAME] == PARTITION_SPAN:
            return span[END] - span[START]
    return 0.0


# ----------------------------------------------------------------------
# Metrics with a measurement step of their own (wrappers removed)
# ----------------------------------------------------------------------
def _median_wall(fn: Callable[[], object], reps: int = 3) -> float:
    walls = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def cli_startup() -> dict[str, float]:
    """``import repro.cli`` and ``repro --help`` in fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")

    def run(*argv):
        subprocess.run(
            [sys.executable, *argv],
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=60,
        )

    return {
        "cli.import_s": _median_wall(lambda: run("-c", "import repro.cli")),
        "cli.help_s": _median_wall(lambda: run("-m", "repro", "--help")),
    }


def instrumentation_ladder(workload, scratch: Path, budget_s: float) -> dict[str, float]:
    """Price each instrument of ``rm3d32_observed`` by switching them on
    one at a time: NULL -> Tracer -> HealthMonitor -> LearnController ->
    DecisionLedger.  Rungs alternate inside a round so drift hits all of
    them alike; each rung reports its median over the rounds."""
    walls: list[list[float]] = [[] for _ in range(5)]
    deadline = time.perf_counter() + budget_s
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        for rungs in range(5):
            rep_dir = scratch / f"ladder-{rounds}-{rungs}"
            rep_dir.mkdir(parents=True)
            runtime, _, health = workload.observed_runtime(rep_dir, rungs=rungs)
            start = time.perf_counter()
            runtime.run()
            if health is not None:
                health.finish()
            walls[rungs].append(time.perf_counter() - start)
        rounds += 1
    rung = [statistics.median(w) for w in walls]
    return {
        "telemetry.tracer_delta_s": rung[1] - rung[0],
        "telemetry.health_delta_s": rung[2] - rung[1],
        "learn.controller_delta_s": rung[3] - rung[2],
        "learn.ledger_delta_s": rung[4] - rung[3],
    }


def million_box_primitives(workload) -> dict[str, float]:
    """The two ``util`` pieces of ``partition_1m``, each timed alone."""
    from repro.util.geometry import BoxArray, BoxList
    from repro.util.sfc import sfc_sort_order

    return {
        "util.sfc_order_s": _median_wall(
            lambda: sfc_sort_order(workload.boxes.array)
        ),
        "util.boxarray_build_s": _median_wall(
            lambda: BoxList.from_array(BoxArray(*workload.columns))
        ),
    }


SERVE_REQUESTS = 50


def serve_latencies(workload, scratch: Path) -> dict[str, float]:
    """Closed loop, one client: median GET latency per route over a
    finished ``campaign_inline`` directory served on an ephemeral port."""
    import http.client

    from repro.campaign.serve import make_server

    root = scratch / "serve-root"
    root.mkdir(parents=True)
    workload.body(root)
    server = make_server(root, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        port = server.server_address[1]
        cells = f"/campaigns/{workload.spec.campaign_id}/cells"

        def get(path, headers=()):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                start = time.perf_counter()
                conn.request("GET", path, headers=dict(headers))
                response = conn.getresponse()
                response.read()
                elapsed = time.perf_counter() - start
                return response, elapsed
            finally:
                conn.close()

        def median_ms(path, expect, headers=()):
            walls = []
            for _ in range(SERVE_REQUESTS):
                response, elapsed = get(path, headers)
                if response.status != expect:
                    raise RuntimeError(f"GET {path}: {response.status} != {expect}")
                walls.append(elapsed)
            return statistics.median(walls) * 1e3

        etag = get(cells)[0].getheader("ETag")
        return {
            "campaign.serve_cells_ms": median_ms(cells, 200),
            "campaign.serve_metrics_ms": median_ms("/metrics", 200),
            "campaign.serve_304_ms": median_ms(
                cells, 304, [("If-None-Match", etag)]
            ),
        }
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)


def sharded_speedup(workload, scratch: Path, sharded_wall: float) -> dict[str, float]:
    """Inline wall over sharded wall for the same spec (both untraced)."""
    rep_dir = scratch / "speedup-inline"
    rep_dir.mkdir(parents=True)
    start = time.perf_counter()
    workload.run_campaign(rep_dir, workers=1)
    inline_wall = time.perf_counter() - start
    print(
        f"campaign.sharded_speedup base: inline {inline_wall:.4f} s / "
        f"sharded {sharded_wall:.4f} s",
        file=sys.stderr,
    )
    return {"campaign.sharded_speedup": inline_wall / sharded_wall}


def extras(workload, scratch: Path, untraced_wall: float, budget_s: float) -> dict[str, float]:
    """Per-layer metrics that need a measurement of their own."""
    out = cli_startup()
    if workload.name == "rm3d32_observed":
        out.update(instrumentation_ladder(workload, scratch, budget_s))
    elif workload.name == "partition_1m":
        out.update(million_box_primitives(workload))
    elif workload.name == "campaign_inline":
        out.update(serve_latencies(workload, scratch))
    elif workload.name == "campaign_sharded":
        out.update(sharded_speedup(workload, scratch, untraced_wall))
    return out
