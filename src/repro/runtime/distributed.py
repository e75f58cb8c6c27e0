"""Distributed execution of a *real* AMR application on the simulated cluster.

Where :class:`~repro.runtime.engine.SamrRuntime` replays a pre-computed
workload trace, :class:`DistributedAmrRun` drives an actual
kernel + hierarchy through the Berger-Oliger integrator while the
partitioner owns the decomposition:

- at every regrid the partitioner distributes the fresh bounding-box list;
  its (possibly split) output boxes become the hierarchy's *patch layout*
  (:meth:`GridHierarchy.repatch_level`), exactly as GrACE turns partitioner
  output into the distribution of the HDDA;
- each simulated rank owns the patches assigned to it; per-iteration
  compute time is the rank's owned work over its current effective speed,
  ghost-exchange volumes are derived from the actual patch geometry, and
  migration is priced from the cell-owner diff -- all charged to the
  cluster clock;
- the numerics still execute in-process (this is a simulation), which
  yields a strong correctness property this module's tests rely on:
  **partition invariance** -- ghost filling reads the composite grid, so
  the solution after N steps is bitwise independent of the patch layout
  and rank count.  A "distributed" run must equal the sequential one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.amr.hierarchy import GridHierarchy
from repro.amr.integrator import BergerOligerIntegrator
from repro.amr.regrid import RegridParams
from repro.cluster.cluster import Cluster
from repro.monitor.service import ResourceMonitor
from repro.partition.base import Partitioner
from repro.partition.capacity import CapacityCalculator
from repro.resilience.checkpoint import (
    CheckpointManager,
    ResilienceConfig,
    storage_seconds,
)
from repro.runtime.engine import StepEngine
from repro.runtime.timemodel import IterationCost, TimeModel
from repro.telemetry.spans import NullTracer, Tracer
from repro.util.errors import SimulationError

__all__ = ["DistributedRunConfig", "DistributedRunResult", "DistributedAmrRun"]

#: Ghost/migration payload per cell and field (one float64).
BYTES_PER_FIELD_CELL = 8.0


@dataclass(frozen=True, slots=True)
class DistributedRunConfig:
    """Parameters of a distributed AMR execution."""

    steps: int = 20
    regrid_interval: int = 5
    sensing_interval: int = 0  # 0 = sense once before the start
    cfl: float = 0.4

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise SimulationError(f"steps must be >= 1, got {self.steps}")
        if self.regrid_interval < 0:
            raise SimulationError("negative regrid_interval")
        if self.sensing_interval < 0:
            raise SimulationError("negative sensing_interval")


@dataclass(slots=True)
class DistributedRunResult:
    """Execution record of a distributed AMR run."""

    total_seconds: float = 0.0
    sensing_seconds: float = 0.0
    migration_seconds: float = 0.0
    steps: int = 0
    num_regrids: int = 0
    num_sensings: int = 0
    loads_history: list[np.ndarray] = field(default_factory=list)
    capacities_history: list[np.ndarray] = field(default_factory=list)
    step_seconds: list[float] = field(default_factory=list)
    #: resilience accounting (all zero on undisturbed runs)
    num_recoveries: int = 0
    num_restores: int = 0
    num_checkpoints: int = 0
    replayed_steps: int = 0
    recovery_seconds: float = 0.0
    checkpoint_seconds: float = 0.0


class DistributedAmrRun(StepEngine):
    """Executes a hierarchy + kernel distributed over a simulated cluster.

    The kernel executor of :class:`~repro.runtime.engine.StepEngine`:
    boxes come from the live hierarchy, a partition becomes its patch
    layout, a step runs the integrator (which regrids inside it) before
    it is priced, and ``resilience`` adds checkpoint/restore.

    Parameters
    ----------
    hierarchy:
        A (not yet initialized) :class:`GridHierarchy`.
    cluster:
        The simulated cluster providing ranks and their dynamics.
    partitioner:
        Distribution policy invoked at setup and at every regrid.
    regrid_params:
        Flagging/clustering knobs passed to the integrator.
    """

    result_type = DistributedRunResult

    def __init__(
        self,
        hierarchy: GridHierarchy,
        cluster: Cluster,
        partitioner: Partitioner,
        monitor: ResourceMonitor | None = None,
        capacity_calculator: CapacityCalculator | None = None,
        config: DistributedRunConfig | None = None,
        regrid_params: RegridParams | None = None,
        time_model: TimeModel | None = None,
        tracer: Tracer | NullTracer | None = None,
        resilience: ResilienceConfig | None = None,
        learn=None,
    ):
        self.hierarchy = hierarchy
        self.config = config = config or DistributedRunConfig()
        self.num_steps = config.steps
        super().__init__(
            cluster, partitioner, monitor, capacity_calculator,
            time_model, tracer, resilience, learn,
            refine_factor=hierarchy.refine_factor,
            bytes_per_cell=BYTES_PER_FIELD_CELL * hierarchy.kernel.num_fields,
            ghost_width=hierarchy.kernel.ghost_width,
            before_migrate=self._repatch,
        )
        self.integrator = BergerOligerIntegrator(
            hierarchy,
            cfl=config.cfl,
            regrid_interval=config.regrid_interval,
            regrid_params=regrid_params,
            on_regrid=self._on_regrid,
        )
        # Mid-epoch redistribution is capability the payoff gate unlocks:
        # between regrids the paper's loop rides out any imbalance, but
        # when the priced payoff beats the migration bill the *current*
        # patch layout is repartitioned early.
        self.repartition_on_sense = (
            self.learn.enabled and self.learn.config.payoff_gate
        )
        self.ckpt_manager = (
            CheckpointManager(resilience, tracer=self.tracer)
            if resilience is not None
            else None
        )

    def _step(self) -> int:
        return self.hierarchy.step_count

    def _boxes(self):
        return self.hierarchy.box_list()

    def _repatch(self, part) -> None:
        # Turn the partitioner's (possibly split) boxes into patch
        # layout before migration is priced.  Level grouping runs on the
        # result's level column; ``at_level`` preserves assignment order
        # within each level, as the old per-pair bucketing did.
        boxes = part.boxes()
        for level in boxes.levels:
            self.hierarchy.repatch_level(level, boxes.at_level(level))

    def _on_regrid(self, hierarchy: GridHierarchy) -> None:
        """Partition the fresh hierarchy and make its output the patching."""
        self._repartition("regrid")
        self._result.num_regrids += 1

    def _setup(self) -> None:
        self.integrator.setup()
        if self.ckpt_manager is not None:
            # Baseline snapshot: a crash before the first cadence save
            # restores to the initial state and replays everything.
            self._checkpoint()

    def _execute_step(self, step: int) -> IterationCost:
        with self.tracer.span("advance", step=step):
            self.integrator.advance()
        return self._price()

    def _on_sense(self, caps: np.ndarray) -> None:
        self._result.capacities_history.append(caps.copy())

    def _on_repartition(self, out, trigger: str) -> None:
        self._result.loads_history.append(out.loads)

    def _on_step(self, cost: IterationCost) -> None:
        result = self._result
        result.step_seconds.append(cost.total)
        result.steps += 1
        # Steps beyond the configured count re-ran after a restore.
        result.replayed_steps = max(0, result.steps - self.num_steps)
        manager = self.ckpt_manager
        if manager is not None and manager.due(self.hierarchy.step_count):
            self._checkpoint()

    def _health(self) -> tuple[int, np.ndarray | None]:
        """(regrid count, I_k over the ranks with a target).  The layout
        rides out mid-epoch sensings, so its imbalance is re-measured
        against the freshest capacities, not read off the last partition."""
        loads = self.pipeline.last.loads
        targets = self._capacities * loads.sum()
        ok = targets > 0
        gap = np.abs(loads[ok] - targets[ok]) / targets[ok] * 100.0
        return self._result.num_regrids, gap if ok.any() else None

    # ------------------------------------------------------------------
    # Resilience: checkpointing and the recovery stage
    # ------------------------------------------------------------------
    def _checkpoint(self) -> None:
        """Snapshot hierarchy + layout, charging storage I/O time."""
        manager = self.ckpt_manager
        ckpt = manager.save(
            self.hierarchy, self.pipeline.layout, self.cluster.clock.now
        )
        io_s = storage_seconds(ckpt.nbytes)
        self.cluster.clock.advance(io_s)
        self._result.num_checkpoints += 1
        self._result.checkpoint_seconds += io_s

    def _recover(self) -> None:
        """Restore if data was lost, then run the shared recovery stage.

        Two triggers: a box-owning rank is down (data loss -- restore the
        latest checkpoint and replay), or the trusted live set differs
        from the one the current partition was computed over (a node was
        evicted, or a recovered node should be grown onto again).
        """
        tracer = self.tracer
        manager = self.ckpt_manager
        result = self._result
        clock = self.cluster.clock
        dead_owners = self.pipeline.dead_owner_ranks()
        data_lost = bool(dead_owners)
        t0 = clock.now
        with tracer.span(
            "recovery", dead_ranks=list(dead_owners), data_lost=data_lost
        ):
            if data_lost:
                ckpt, saved = manager.restore_latest(self.hierarchy)
                clock.advance(storage_seconds(ckpt.nbytes))
                if saved is not None:
                    # Price evacuation against the layout that was live at
                    # save time, not the doomed post-crash layout.
                    self.pipeline.layout = saved
                result.num_restores += 1
            # Fresh capacities over the surviving set, then the recover stage.
            super()._recover()
            result.num_recoveries += 1
            result.recovery_seconds += clock.now - t0
        tracer.event(
            "recovery.complete",
            resumed_step=self.hierarchy.step_count,
            num_live=len(self._partition_live),
            recovery_seconds=clock.now - t0,
        )
