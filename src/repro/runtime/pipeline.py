"""The repartition pipeline: the stages the step engine sequences.

The paper's runtime (section 5, fig. 5) cycles sense -> capacity ->
partition -> migrate -> exchange-plan; :class:`RepartitionPipeline` is
that cycle as one object, :class:`~repro.runtime.engine.StepEngine` the
one loop driving it.

``sense()``
    Probe the resource monitor, charge the probe overhead to the cluster
    clock, and compute fresh relative capacities under a ``capacity`` span
    nested in a ``sense`` span.
``repartition()`` / ``recover()``
    Partition a box list against capacities (``recover``: compacted over
    the surviving ranks) using the pipeline's
    :class:`~repro.partition.workmodel.WorkModel` -- one cached work
    vector prices the boxes, the loads and the level loads, no per-box
    Python calls.  Both hand off to one migrate stage: price and apply
    the data migration under a ``migrate`` span from the cell-owner diff
    against the previous layout, then plan the new layout's
    ghost-exchange volumes.
``health_attrs()`` / ``emit_iteration_spans()``
    Per-step observability stamping: the health attributes the
    :class:`~repro.telemetry.analysis.HealthMonitor` and the HTML
    dashboard consume, and the ``iteration`` span carrying the per-rank
    compute/comm vectors, then the collective ``sync`` span.

Executor-specific details are wired once at construction (how a partition
is applied, the dashboard's extra gauges) or enter as span attributes.
Stage structure, span nesting, attribute ordering and metric creation
order are pinned by the golden traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.amr.ghost import plan_exchange_volumes
from repro.cluster.cluster import Cluster
from repro.learn.policy import NULL_LEARNER
from repro.monitor.service import ResourceMonitor
from repro.partition.base import Partitioner, PartitionResult
from repro.partition.capacity import CapacityCalculator
from repro.partition.metrics import (
    imbalance_pct,
    redistribution_volume_columns,
)
from repro.partition.workmodel import WorkModel
from repro.resilience.checkpoint import storage_seconds
from repro.runtime.timemodel import IterationCost, TimeModel
from repro.util.errors import ResilienceError
from repro.util.geometry import BoxList, Layout

__all__ = ["RepartitionOutcome", "RepartitionPipeline"]

#: Ghost/migration payload per cell of a trace run (5 float64 fields for
#: RM3D = 40).
BYTES_PER_CELL = 40.0


@dataclass(slots=True)
class RepartitionOutcome:
    """What one partition + migrate stage produced.

    ``loads``/``targets``/``imbalance`` are all derived from the single
    cached work vector of ``part`` -- callers must not recompute them
    with per-box loops.
    """

    part: PartitionResult
    loads: np.ndarray  # realized W_k
    targets: np.ndarray  # ideal L_k = C_k * L
    imbalance: np.ndarray  # I_k (%)
    migration_bytes: int
    migration_seconds: float
    volumes: dict  # pairwise ghost-exchange volumes of this layout

    def level_loads(self, num_ranks: int) -> tuple[list[int], np.ndarray]:
        """(levels, per-level load matrix) for per-level sync pricing.

        One ``np.add.at`` scatter of the cached work vector replaces the
        per-box Python loop; unbuffered in-order accumulation keeps the
        float result identical to the loop it replaced.  Box levels come
        straight off the result's level column.
        """
        if not self.part.num_assigned():
            return [], np.zeros((1, num_ranks))
        box_levels = self.part.boxes().array.level
        levels, index = np.unique(box_levels, return_inverse=True)
        matrix = np.zeros((len(levels), num_ranks))
        np.add.at(
            matrix,
            (index, self.part.rank_vector()),
            self.part.work_vector(),
        )
        return [int(lvl) for lvl in levels], matrix


class RepartitionPipeline:
    """Composable sense/partition/migrate/plan stages over one cluster.

    Parameters
    ----------
    cluster, partitioner, monitor, capacity, time_model:
        The collaborators both runtimes already wire up.
    tracer:
        Telemetry sink; every stage stamps the same spans/metrics the
        runtime loops historically emitted.
    bytes_per_cell, ghost_width, refine_factor:
        Payload per cell and stencil radius for migration pricing and
        ghost-exchange planning; ``refine_factor`` also fixes the
        Berger-Oliger :class:`WorkModel` pricing boxes throughout.
    learner:
        The :class:`~repro.learn.policy.LearnController` observing every
        stage, behind the same inert-default pattern as the tracer
        (``NULL_LEARNER`` has ``enabled = False``, every hook guards on
        it, the unlearned path is byte-identical).
    before_migrate, on_apply:
        How the executor applies a partition: ``before_migrate(part)``
        runs between partitioning and the migrate span (the kernel
        executor repatches the hierarchy there), ``on_apply(layout)``
        inside the span once the cell-owner diff is taken (the trace
        executor applies the layout to the HDDA there).
    detail:
        Also publish the dashboard's per-node gauges (at every sensing
        and repartition) and the residual-imbalance histogram.
    """

    def __init__(
        self,
        *,
        cluster: Cluster,
        partitioner: Partitioner,
        monitor: ResourceMonitor,
        capacity: CapacityCalculator,
        time_model: TimeModel,
        tracer,
        bytes_per_cell: float = BYTES_PER_CELL,
        ghost_width: int = 1,
        refine_factor: int = 2,
        learner=None,
        before_migrate: Callable[[PartitionResult], None] | None = None,
        on_apply: Callable[[Layout], None] | None = None,
        detail: bool = False,
    ):
        self.cluster = cluster
        self.partitioner = partitioner
        self.monitor = monitor
        self.capacity = capacity
        self.time_model = time_model
        self.tracer = tracer
        self.learner = learner if learner is not None else NULL_LEARNER
        if self.learner.enabled:
            self.learner.bind(tracer, cluster.num_nodes)
        self.work_model = WorkModel(refine_factor)
        self.bytes_per_cell = float(bytes_per_cell)
        self.ghost_width = int(ghost_width)
        self.refine_factor = int(refine_factor)
        self.before_migrate = before_migrate
        self.on_apply = on_apply
        self.detail = detail
        # Promote the communicator's traffic into telemetry (counters,
        # collective histograms, per-exchange comm.exchange events) so
        # the communication profiler sees the same costs the time model
        # charges.  A disabled tracer keeps the communicator silent.
        if getattr(tracer, "enabled", False):
            self.time_model.comm.bind_tracer(tracer)
        #: who owns which box right now: the next migration is diffed
        #: against it, checkpoints save it, a restore puts it back
        self.layout = Layout.from_pairs(())
        #: outcome of the most recent :meth:`repartition` / :meth:`recover`
        self.last: RepartitionOutcome | None = None

    # -- Stage: sense + capacity ---------------------------------------
    def sense(self, *, span_attrs: dict | None = None) -> tuple[np.ndarray, float]:
        """Probe the cluster, charge overhead, compute fresh capacities.

        Returns ``(capacities, probe overhead seconds)``.  ``span_attrs``
        land on the ``sense`` span (the trace executor stamps the
        iteration number).
        """
        tracer = self.tracer
        with tracer.span("sense", **(span_attrs or {})) as sense_span:
            snapshot = self.monitor.probe_all()
            overhead = snapshot.overhead_seconds
            self.cluster.clock.advance(overhead)
            # Dead/evicted nodes get exactly zero capacity; with everyone
            # trusted this is the original fixed-rank-set computation.
            live = self.monitor.trusted_mask()
            with tracer.span("capacity"):
                caps = self.capacity.relative_capacities(
                    snapshot, None if bool(live.all()) else live
                )
            sense_span.set(overhead_seconds=overhead, capacities=caps)
        if tracer.enabled:
            metrics = tracer.metrics
            metrics.counter("num_sensings").inc()
            metrics.counter("probe_cost_seconds").inc(overhead)
            if self.detail:
                for node in range(snapshot.num_nodes):
                    metrics.gauge("node_cpu_available", node=node).set(
                        snapshot.cpu[node]
                    )
                    metrics.gauge("node_capacity", node=node).set(caps[node])
        if self.learner.enabled:
            self.learner.observe_sense(self.cluster.clock.now, caps, overhead)
        return caps, overhead

    # -- Stage: partition + migrate ------------------------------------
    def repartition(
        self, boxes: BoxList, capacities: np.ndarray, *, migrate_attrs=None
    ) -> RepartitionOutcome:
        """Partition ``boxes``, then price and apply the migration
        (``migrate_attrs`` land on the ``migrate`` span)."""
        part = self.partitioner.partition(boxes, capacities, self.work_model)
        targets = capacities * part.loads().sum()
        return self._migrate(part, targets, migrate_attrs or {})

    def _migrate(
        self,
        part: PartitionResult,
        targets: np.ndarray,
        span_attrs: dict,
        recovery: dict | None = None,
    ) -> RepartitionOutcome:
        """The one tail of :meth:`repartition` and :meth:`recover`: price
        and apply the migration to ``part``, stamp it, plan the ghost
        exchange of the new layout, build the outcome.

        ``recovery`` (the recover stage's ``dead_ranks``/``num_live``
        attributes) switches on the one extra term: cells whose previous
        owner is down cannot come off the dead NIC and are priced as a
        read from checkpoint storage
        (:func:`~repro.resilience.checkpoint.storage_seconds`).
        """
        tracer = self.tracer
        if self.before_migrate is not None:
            self.before_migrate(part)
        lost = 0  # evacuated bytes: their previous owner is down
        with tracer.span("migrate", **span_attrs) as mig_span:
            # Geometric cell-owner diff against the previous layout: the
            # true redistribution traffic, robust to boxes being re-split.
            moved = redistribution_volume_columns(
                self.layout, part.layout, self.bytes_per_cell
            )
            if self.on_apply is not None:
                self.on_apply(part.layout)
            self.layout = part.layout
            if recovery is None:
                mig_seconds = self.time_model.migration_cost(moved)
            else:
                is_up = self.cluster.is_up
                live = {k: v for k, v in moved.items() if is_up(k[0])}
                evac = sum(v for k, v in moved.items() if k not in live)
                mig_seconds = self.time_model.migration_cost(live)
                mig_seconds += storage_seconds(evac)
                lost = int(evac)
            self.cluster.clock.advance(mig_seconds)
            mig_bytes = int(sum(moved.values()))
            evacuated = {} if recovery is None else {"evacuated_bytes": lost}
            mig_span.set(bytes=mig_bytes, sim_seconds=mig_seconds, **evacuated)
        if recovery is not None:
            tracer.event("recovery.repartition", **recovery, **evacuated)
        # One cached work vector yields loads, targets and imbalance.
        loads = part.loads()
        imbalance = imbalance_pct(loads, targets)
        if tracer.enabled:
            metrics = tracer.metrics
            metrics.counter("num_repartitions").inc()
            if recovery is not None:
                metrics.counter("num_recoveries").inc()
            metrics.counter("migration_bytes").inc(mig_bytes)
            metrics.counter("migration_seconds").inc(mig_seconds)
            if recovery is not None:
                metrics.counter("evacuated_bytes").inc(lost)
            if self.detail and recovery is None:
                metrics.histogram("residual_imbalance_pct").observe(
                    float(imbalance.mean())
                )
                for node in range(self.cluster.num_nodes):
                    utilization = (
                        loads[node] / targets[node]
                        if targets[node] > 0
                        else 0.0
                    )
                    metrics.gauge("node_utilization", node=node).set(
                        utilization
                    )
        if self.learner.enabled:
            now = self.cluster.clock.now
            if recovery is not None:
                # Provenance first: observe_recover must see the migration
                # model *before* this migration folds into it.
                self.learner.observe_recover(
                    now, recovery["dead_ranks"], mig_seconds, mig_bytes, lost
                )
            self.learner.observe_repartition(now, mig_seconds, mig_bytes)
        # The layout changes here and nowhere else, so its pairwise
        # ghost-exchange volumes are planned here, once.
        volumes = plan_exchange_volumes(
            part.boxes(),
            part.rank_vector(),
            ghost_width=self.ghost_width,
            bytes_per_cell=self.bytes_per_cell,
            refine_factor=self.refine_factor,
        )
        self.last = RepartitionOutcome(
            part, loads, targets, imbalance, mig_bytes, mig_seconds, volumes
        )
        return self.last

    # -- Stage: recovery (failure-aware repartitioning) ----------------
    def dead_owner_ranks(self) -> tuple[int, ...]:
        """Down ranks (cluster ground truth) that still own boxes.

        In a real deployment this is the MPI layer reporting broken pipes
        on the ranks' connections; in the simulation we consult the
        cluster directly.  Sensor-only loss (blackouts) is *not* included
        -- that is the escalation policy's call.
        """
        down = set(self.cluster.down_nodes)
        if not down:
            return ()
        return tuple(sorted(down & set(np.unique(self.layout.ranks).tolist())))

    def needs_recovery(self) -> bool:
        """Whether any current box owner is a dead rank."""
        return bool(self.dead_owner_ranks())

    def recover(self, boxes: BoxList, capacities: np.ndarray) -> RepartitionOutcome:
        """Repartition over the surviving rank set, evacuating the dead.

        The partitioner runs over the *compacted* live capacities -- so no
        partitioning scheme can hand a box to a dead rank -- and the
        result is remapped back to true node indices.  Evacuation traffic
        (cells whose previous owner is down) cannot come off the dead NIC;
        it is priced as a read from checkpoint storage.  The same stage
        handles growth: when a recovered node rejoins the trusted set, the
        partition simply spreads over it again (no evacuation term).
        """
        live = self.monitor.trusted_mask()
        if not live.any():
            raise ResilienceError("recovery attempted with no surviving nodes")
        attrs = {
            "dead_ranks": list(self.dead_owner_ranks()),
            "num_live": int(live.sum()),
        }
        with self.tracer.span("recover", **attrs):
            live_idx = np.flatnonzero(live)
            caps_live = np.asarray(capacities, dtype=float)[live]
            total = caps_live.sum()
            caps_live = (
                caps_live / total
                if total > 0
                else np.full(len(caps_live), 1.0 / len(caps_live))
            )
            part_live = self.partitioner.partition(
                boxes, caps_live, self.work_model
            )
            # Remap compact ranks back to true node indices; expand the
            # target vector so every consumer stays num_nodes-sized.
            targets_full = np.zeros(self.cluster.num_nodes)
            targets_full[live_idx] = part_live.targets
            part = PartitionResult(
                part_live.layout.remapped(live_idx),
                targets_full,
                part_live.num_splits,
                part_live.work_model,
            )
            return self._migrate(
                part,
                targets_full,
                {"trigger": "recovery"},
                recovery=attrs,
            )

    # -- Stage: observability stamping ---------------------------------
    def health_attrs(
        self, epoch: int, imbalance: np.ndarray | None = None
    ) -> dict:
        """Per-iteration health signals published on the iteration span.

        The health monitor (:mod:`repro.telemetry.analysis`) and the HTML
        dashboard read these straight off the trace, so an exported JSONL
        file is self-sufficient for offline diagnosis.  ``epoch`` is the
        repartition count (the z-score detector resets its window on
        change, so a regrid's legitimate cost shift is not a "spike");
        ``imbalance`` is the caller's current I_k vector, if it has one.
        """
        staleness = self.monitor.staleness_s()
        attrs: dict = {
            "staleness_s": staleness if staleness != float("inf") else None,
            "epoch": epoch,
        }
        if imbalance is not None:
            finite = imbalance[np.isfinite(imbalance)]
            if finite.size:
                attrs["imbalance_pct"] = float(finite.mean())
                attrs["max_imbalance_pct"] = float(finite.max())
        self.tracer.metrics.gauge("sensing_staleness_seconds").set(
            0.0 if staleness == float("inf") else staleness
        )
        return attrs

    def emit_iteration_spans(
        self, start_sim: float, cost: IterationCost, attrs: dict
    ) -> None:
        """The ``iteration`` span of one priced iteration, then its
        collective ``sync`` span.

        The time model prices the whole iteration at once; the span keeps
        the per-rank ``compute`` and ``comm`` vectors, which readers
        expand into each rank's compute and then serialized ghost
        exchange (:func:`repro.telemetry.model.rank_rows`).  ``attrs``
        (loop counter plus :meth:`health_attrs`) follow the critical-path
        attribution the profiler keys on: which rank's busy time gated
        the step, and the sync tax.
        """
        tracer = self.tracer
        busy_per_rank = cost.compute + cost.comm
        critical_rank = (
            int(busy_per_rank.argmax()) if len(busy_per_rank) else None
        )
        tracer.add_span(
            "iteration",
            start_sim,
            start_sim + cost.total,
            critical_rank=critical_rank,
            sync_s=float(cost.sync),
            compute=cost.compute.tolist(),
            comm=cost.comm.tolist(),
            **attrs,
        )
        if cost.sync > 0.0:
            busy = float(busy_per_rank.max())
            tracer.add_span(
                "sync", start_sim + busy, start_sim + busy + cost.sync
            )
