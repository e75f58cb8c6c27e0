"""The adaptive system-sensitive runtime loop.

:class:`StepEngine` is the paper's loop (section 5, fig. 5) written once:
sense -> capacity -> partition -> migrate -> step.  :class:`SamrRuntime`,
its *trace executor*, runs a SAMR workload trace on a simulated cluster:

- every ``regrid_interval`` iterations the hierarchy regrids (the next epoch
  of the workload trace) and the partitioner redistributes the new
  bounding-box list using the *most recently sensed* relative capacities;
  the cell-owner diff against the previous layout is the migration whose
  transfer time is charged to the clock;
- every ``sensing_interval`` iterations the resource monitor probes the
  cluster (charging ~0.5 s per node) and the capacity calculator refreshes
  the relative capacities -- ``sensing_interval=0`` reproduces the paper's
  "sense only once before the start" configuration;
- every iteration costs compute + ghost-exchange + sync time from the
  :class:`~repro.runtime.timemodel.TimeModel`, advancing the cluster clock,
  which in turn advances the synthetic load dynamics.

The complete history lands in :class:`RunResult`, from which every table
and figure of the paper's evaluation section is derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.cluster import Cluster
from repro.kernels.workloads import SyntheticWorkload
from repro.learn.policy import NULL_LEARNER
from repro.monitor.service import ResourceMonitor
from repro.partition.base import Partitioner
from repro.partition.capacity import CapacityCalculator
from repro.resilience.checkpoint import ResilienceConfig
from repro.runtime.pipeline import RepartitionPipeline
from repro.runtime.timemodel import IterationCost, TimeModel
from repro.telemetry.spans import TRACE_FORMAT, NullTracer, Tracer, get_active_tracer
from repro.util.errors import SimulationError

__all__ = [
    "RuntimeConfig",
    "RegridRecord",
    "RunResult",
    "StepEngine",
    "SamrRuntime",
]


@dataclass(frozen=True, slots=True)
class RuntimeConfig:
    """Loop parameters.

    Attributes
    ----------
    iterations:
        Coarse iterations to execute.
    regrid_interval:
        Iterations between regrids (paper experiments: 5).
    sensing_interval:
        Iterations between monitor probes; 0 = probe once at start only.
    sync_mode:
        ``"bulk"`` (default) -- one barrier per coarse iteration, the
        favourable model for composite decompositions; ``"per_level"`` --
        a barrier after every substep of every level (strict Berger-Oliger
        subcycling), under which per-level balance matters and
        :class:`~repro.partition.levelwise.LevelPartitioner` earns its keep.
    adaptive_sensing_threshold:
        When set (e.g. 0.25), replaces the fixed cadence answer to
        Table III's tuning problem: the runtime predicts each iteration's
        duration from the capacities it last sensed, and re-senses only
        when the *measured* duration deviates relatively by more than this
        threshold -- load changes trigger sensing, quiet stretches don't.
        ``sensing_interval`` then acts as an optional floor between forced
        checks (0 = purely deviation-driven).
    """

    iterations: int = 40
    regrid_interval: int = 5
    sensing_interval: int = 0
    sync_mode: str = "bulk"
    adaptive_sensing_threshold: float | None = None

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise SimulationError(f"iterations must be >= 1, got {self.iterations}")
        if self.regrid_interval < 1:
            raise SimulationError(
                f"regrid_interval must be >= 1, got {self.regrid_interval}"
            )
        if self.sensing_interval < 0:
            raise SimulationError(
                f"sensing_interval must be >= 0, got {self.sensing_interval}"
            )
        if self.sync_mode not in ("bulk", "per_level"):
            raise SimulationError(
                f"sync_mode must be 'bulk' or 'per_level', got "
                f"{self.sync_mode!r}"
            )
        if self.adaptive_sensing_threshold is not None and not (
            self.adaptive_sensing_threshold > 0
        ):
            raise SimulationError(
                "adaptive_sensing_threshold must be positive, got "
                f"{self.adaptive_sensing_threshold}"
            )


@dataclass(slots=True)
class RegridRecord:
    """What happened at one regrid/partition point."""

    iteration: int
    regrid_number: int
    trigger: str  # "regrid" or "sense"
    capacities: np.ndarray
    loads: np.ndarray  # realized W_k (work units)
    targets: np.ndarray  # ideal L_k = C_k * L
    imbalance: np.ndarray  # I_k (%)
    num_splits: int
    migration_bytes: int
    migration_seconds: float


@dataclass(slots=True)
class RunResult:
    """Complete record of one runtime execution."""

    total_seconds: float = 0.0
    compute_seconds: float = 0.0
    comm_seconds: float = 0.0
    migration_seconds: float = 0.0
    sensing_seconds: float = 0.0
    iterations: int = 0
    num_sensings: int = 0
    regrids: list[RegridRecord] = field(default_factory=list)
    iteration_times: list[float] = field(default_factory=list)
    capacity_history: list[tuple[float, np.ndarray]] = field(default_factory=list)

    @property
    def mean_imbalance(self) -> float:
        if not self.regrids:
            return 0.0
        return float(np.mean([r.imbalance.mean() for r in self.regrids]))

    @property
    def max_imbalance(self) -> float:
        if not self.regrids:
            return 0.0
        return float(max(r.imbalance.max() for r in self.regrids))

    def loads_by_regrid(self) -> np.ndarray:
        """(num_regrids, num_ranks) matrix of realized loads."""
        return np.array([r.loads for r in self.regrids])


class StepEngine:
    """The one run loop; the two runtimes are its *executors*.

    The engine owns collaborator wiring, ``run()``, sensing and its cadence
    (fixed, deviation-triggered or learned), the recovery-due check, the
    payoff gate, price-or-abort handling and the per-step telemetry and
    learner hooks.  An executor supplies only what genuinely differs:

    - ``_boxes()`` -- where the boxes to partition come from;
    - ``before_migrate=`` -- how a partition is applied (passed on to the
      pipeline; the trace executor has nothing to apply);
    - ``_execute_step(step)`` -- what a step runs before it is priced;
    - ``_setup()`` / ``_regrid_if_due(step)`` -- when a regrid happens
      (at the loop level, or inside the step);
    - ``_recover()`` -- kernel executor only: checkpoint restore around
      the shared recovery;
    - its result record: ``result_type``, ``num_steps``, ``_step()``
      (steps completed, as the record counts them), ``_on_sense`` /
      ``_on_repartition`` / ``_on_step`` and ``_health()``.

    Behaviour the golden traces pin per runtime is executor *data* (the
    attributes below; ARCHITECTURE.md "The step engine" says why each is
    pinned), so the loop never asks which executor it drives.
    """

    # Name of the loop counter on spans and events; its plural names the
    # run span's step count, ``<name>_seconds`` the step-duration histogram.
    step_attr = "step"
    # Stamp the loop counter on sense spans, per-node gauges, a trigger on
    # every migrate span, residual-imbalance stats and a step counter.
    full_telemetry = False
    # After an aborted step recover in place and re-price it once; if not,
    # the loop top recovers (the kernel executor restores a checkpoint).
    reprice_after_abort = False
    # What a loop-level recovery partitions as: "recovery" always takes the
    # recover stage, "regrid" only over a degraded live set (a rejoin
    # that leaves everyone live is a plain repartition).
    recovery_trigger = "recovery"
    # Re-sense when a step's duration deviates relatively by more than this
    # from the post-repartition reference (None: never).
    adaptive_sensing_threshold: float | None = None
    repartition_on_sense = False  # a mid-epoch sensing may repartition

    def __init__(
        self, cluster, partitioner, monitor, capacity_calculator,
        time_model, tracer, resilience, learn, **wiring
    ):
        self.cluster = cluster
        self.partitioner = partitioner
        self.monitor = monitor or ResourceMonitor(cluster)
        self.capacity = capacity_calculator or CapacityCalculator()
        self.time_model = time_model or TimeModel(cluster)
        # Telemetry is injectable and defaults to the ambient tracer
        # (the shared no-op unless `repro.telemetry.activate` installed
        # one); an enabled tracer is propagated to every collaborator so
        # partition/probe/cluster spans land in the same trace.
        self.tracer = tracer if tracer is not None else get_active_tracer()
        if self.tracer.enabled:
            self.partitioner.set_tracer(self.tracer)
            self.monitor.tracer = self.tracer
        # Learned policies are injectable with an inert default, exactly
        # like the tracer: NULL_LEARNER has enabled=False, every decision
        # point guards on it, and the unlearned loop stays byte-identical.
        self.learn = learn if learn is not None else NULL_LEARNER
        # All sense/partition/migrate/plan mechanics live in the shared
        # pipeline; the engine keeps only loop control and bookkeeping.
        # ``wiring``: its stencil and how the executor applies a partition.
        self.pipeline = RepartitionPipeline(
            cluster=cluster,
            partitioner=partitioner,
            monitor=self.monitor,
            capacity=self.capacity,
            time_model=self.time_model,
            tracer=self.tracer,
            learner=self.learn,
            detail=self.full_telemetry,
            **wiring,
        )
        # Failure-aware repartitioning (opt-in; the default path is
        # byte-identical to the resilience-free runtime).
        self.resilience = resilience
        self._partition_live: frozenset[int] | None = None
        self._result = None
        self._capacities: np.ndarray | None = None
        # Sensing-cadence state, reset by every recovery.
        self._baseline: float | None = None  # adaptive-sensing reference
        self._adaptive_pending = False
        self._last_sense = 0

    def _regrid_if_due(self, step: int) -> bool:
        """Regrid at the loop level when due; ``False`` from an executor
        whose regrids happen inside :meth:`_execute_step`."""
        return False

    def _sense(self, forecast: bool = False) -> None:
        """Probe the cluster, charge overhead, refresh the capacities.

        ``forecast`` swaps in the learner's transient forecast when that
        behavior is active -- on cadence sensings only: a recovery
        partitions against what was actually measured.
        """
        stamp = {self.step_attr: self._step()} if self.full_telemetry else None
        caps, overhead = self.pipeline.sense(span_attrs=stamp)
        self._result.sensing_seconds += overhead
        self._result.num_sensings += 1
        self._on_sense(caps)
        learn = self.learn
        if forecast and learn.enabled and learn.config.transient_forecast:
            caps = learn.effective_capacities(caps, self.cluster.clock.now)
        self._capacities = caps

    def _repartition(self, trigger: str) -> None:
        """Partition the executor's boxes and migrate to the new layout.

        With resilience enabled and a degraded live set (or on a
        ``"recovery"`` trigger) the partition runs through the pipeline's
        recover stage instead: compacted over the live ranks so no box
        can land on a dead one, with orphaned cells priced as
        checkpoint-storage reads.
        """
        resilience = self.resilience
        if resilience is not None and (
            trigger == "recovery" or not self.cluster.live_mask().all()
        ):
            trigger = "recovery"
            out = self.pipeline.recover(self._boxes(), self._capacities)
        else:
            labelled = self.full_telemetry or trigger != "regrid"
            out = self.pipeline.repartition(
                self._boxes(),
                self._capacities,
                migrate_attrs={"trigger": trigger} if labelled else None,
            )
        if resilience is not None:
            self._partition_live = self._live_ranks()
        self._result.migration_seconds += out.migration_seconds
        self._on_repartition(out, trigger)

    def _price(self) -> IterationCost:
        """Cost of one step of the current layout (bulk synchronization)."""
        last = self.pipeline.last
        return self.time_model.iteration_cost(last.loads, last.volumes)

    def _live_ranks(self) -> frozenset[int]:
        """Ranks whose nodes are up."""
        return frozenset(np.flatnonzero(self.cluster.live_mask()).tolist())

    def _recovery_due(self) -> bool:
        """Whether the live rank set no longer matches the partition.

        Covers both directions: a box owner died (evacuate + shrink) and a
        previously dead node rejoined (grow back over it).
        """
        return self.resilience is not None and (
            self.pipeline.needs_recovery()
            or self._live_ranks() != self._partition_live
        )

    def _recover(self) -> None:
        """Re-sense and repartition over the surviving live set."""
        self._sense()
        self._repartition(self.recovery_trigger)
        self._baseline = None
        self._adaptive_pending = False
        self._last_sense = self._step()

    def _cadence_due(self, step: int) -> bool:
        """The sensing cadence: the learner's drift model when it replaces
        the fixed ``f``, a pending deviation (``f`` is then the floor
        between checks), else every ``f`` steps."""
        interval = self.config.sensing_interval
        learn = self.learn
        learned = learn.enabled and learn.config.adaptive_sensing
        due = learned and learn.sense_due(step, self._last_sense)
        if self._adaptive_pending:
            due = due or interval == 0 or step - self._last_sense >= interval
        elif not learned and self.adaptive_sensing_threshold is None:
            due = bool(interval) and step > 0 and step % interval == 0
        return due

    def run(self):
        """Execute the configured number of steps; returns the record."""
        tracer = self.tracer
        if tracer.enabled:
            tracer.begin_run(
                f"{type(self).__name__}[{self.partitioner.name}]",
                sim_clock=lambda: self.cluster.clock.now,
            )
            self.cluster.attach_tracer(tracer)
        with tracer.span(
            "run",
            partitioner=self.partitioner.name,
            num_nodes=self.cluster.num_nodes,
            **{f"{self.step_attr}s": self.num_steps},
            trace_format=TRACE_FORMAT,
        ):
            self._result = result = self.result_type()
            self._sense(forecast=True)  # sense once before the start
            self._setup()
            self._run_loop()
        result.total_seconds = self.cluster.clock.now
        if tracer.enabled:
            metrics = tracer.metrics
            metrics.counter("total_sim_seconds").inc(result.total_seconds)
            if self.full_telemetry:
                metrics.counter(f"{self.step_attr}s").inc(self._step())
        return result

    def _run_loop(self) -> None:
        tracer = self.tracer
        learn = self.learn
        clock = self.cluster.clock
        self._last_sense = self._step()
        end = self._step() + self.num_steps
        while (step := self._step()) < end:
            if self._recovery_due():
                # A fault (or recovery) landed between steps: re-sense and
                # repartition over the surviving live set before
                # pricing anything against dead hardware.
                self._recover()
                step = self._step()  # a restore rewinds the counter
            sensed = self._cadence_due(step)
            if sensed:
                self._sense(forecast=True)
                self._adaptive_pending = False
                self._last_sense = step
            if self._regrid_if_due(step):
                self._baseline = None  # new epoch: step times shift anyway
            elif sensed and self.repartition_on_sense:
                repartition = True
                if learn.enabled and learn.config.payoff_gate:
                    # Price the sense-triggered redistribution: predicted
                    # imbalance cost over the rest of the epoch vs the
                    # modeled migration bill.  Cold models always pay
                    # (the paper's behavior).
                    ri = self.config.regrid_interval
                    horizon = self.config.sensing_interval or 1
                    if ri:
                        horizon = ri - step % ri
                    repartition = learn.repartition_decision(
                        self.pipeline.last.loads,
                        self._capacities,
                        horizon,
                        iteration=step,
                        t=clock.now,
                    ).repartition
                if repartition:
                    self._repartition("sense")
                    self._baseline = None
            start = clock.now
            try:
                cost = self._execute_step(step)
            except SimulationError:
                # A fault fired mid-step (during this step's sense/migrate
                # clock advance, or inside the kernel's): a dead rank still
                # owns work, or a planned transfer has a dead endpoint.
                if not self._recovery_due():
                    raise
                tracer.event("fault.step_aborted", **{self.step_attr: step})
                if not self.reprice_after_abort:
                    continue  # the loop top restores, then replays the step
                self._recover()
                start = clock.now
                cost = self._execute_step(step)
            clock.advance(cost.total)
            if tracer.enabled:
                health = self.pipeline.health_attrs(*self._health())
                self.pipeline.emit_iteration_spans(
                    start, cost, {self.step_attr: step, **health}
                )
                tracer.metrics.histogram(f"{self.step_attr}_seconds").observe(
                    cost.total
                )
            if learn.enabled:
                learn.observe_iteration(
                    step,
                    clock.now,
                    self.pipeline.last.loads,
                    self._capacities,
                    cost,
                )
            theta = self.adaptive_sensing_threshold
            if theta is not None:
                # Deviation from the post-repartition reference signals a
                # cluster load change worth re-sensing for.
                if self._baseline is None:
                    self._baseline = cost.total
                elif abs(cost.total - self._baseline) / self._baseline > theta:
                    self._adaptive_pending = True
            self._on_step(cost)


class SamrRuntime(StepEngine):
    """Drives one workload trace to completion on a simulated cluster.

    The trace executor: boxes come from the workload's epochs, a partition
    is only priced (the pipeline's layout is the one record of who owns
    what), a step is priced but executes nothing, regrids happen at the
    loop level.  A trace run has no grid data to checkpoint
    -- recovery here means re-sensing and repartitioning the current epoch
    over the survivors, orphaned boxes priced as checkpoint-storage reads.
    """

    result_type = RunResult
    step_attr = "iteration"
    # Redistribute immediately after each sensing ("distributes the
    # workload based on these capacities", section 6.1.4) -- the
    # data-migration churn this causes is the overhead side of the
    # sensing-frequency trade-off.
    repartition_on_sense = True
    full_telemetry = True
    reprice_after_abort = True
    recovery_trigger = "regrid"

    def __init__(
        self,
        workload: SyntheticWorkload,
        cluster: Cluster,
        partitioner: Partitioner,
        monitor: ResourceMonitor | None = None,
        capacity_calculator: CapacityCalculator | None = None,
        config: RuntimeConfig | None = None,
        time_model: TimeModel | None = None,
        tracer: Tracer | NullTracer | None = None,
        resilience: ResilienceConfig | None = None,
        learn=None,
    ):
        self.workload = workload
        self.config = config = config or RuntimeConfig()
        self.num_steps = config.iterations
        self.adaptive_sensing_threshold = config.adaptive_sensing_threshold
        super().__init__(
            cluster, partitioner, monitor, capacity_calculator,
            time_model, tracer, resilience, learn,
            refine_factor=workload.refine_factor,
        )

    def _step(self) -> int:
        return self._result.iterations

    def _boxes(self):
        return self.workload.epoch(
            min(self._epoch, self.workload.num_regrids - 1)
        )

    def _setup(self) -> None:
        self._epoch = 0
        self._repartition("regrid")

    def _regrid_if_due(self, step: int) -> bool:
        if step == 0 or step % self.config.regrid_interval:
            return False
        self._epoch += 1
        self._repartition("regrid")
        return True

    def _execute_step(self, step: int) -> IterationCost:
        if self.config.sync_mode == "per_level":
            return self.time_model.iteration_cost_per_level(
                self._level_loads, self._subcycles, self.pipeline.last.volumes
            )
        return self._price()

    def _on_sense(self, caps: np.ndarray) -> None:
        self._result.capacity_history.append((self.cluster.clock.now, caps))

    def _on_repartition(self, out, trigger: str) -> None:
        result = self._result
        # Per-level load matrix for the per-level synchronization model.
        levels, self._level_loads = out.level_loads(self.cluster.num_nodes)
        self._subcycles = np.array(
            [self.workload.refine_factor**lvl for lvl in levels] or [1]
        )
        result.regrids.append(
            RegridRecord(
                iteration=result.iterations,
                regrid_number=len(result.regrids),
                trigger=trigger,
                capacities=self._capacities.copy(),
                loads=out.loads,
                targets=out.targets,
                imbalance=out.imbalance,
                num_splits=out.part.num_splits,
                migration_bytes=out.migration_bytes,
                migration_seconds=out.migration_seconds,
            )
        )

    def _on_step(self, cost: IterationCost) -> None:
        result = self._result
        result.iteration_times.append(cost.total)
        result.compute_seconds += float(cost.compute.max())
        result.comm_seconds += float(cost.comm.max() + cost.sync)
        result.iterations += 1

    def _health(self) -> tuple[int, np.ndarray]:
        """(repartition count, last recorded I_k) for the step span."""
        regrids = self._result.regrids
        return len(regrids), regrids[-1].imbalance
