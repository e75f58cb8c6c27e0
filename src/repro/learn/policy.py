"""Adaptive sensing and payoff-gated repartitioning policies.

The paper hand-tunes two knobs this module learns instead:

- **When to sense.**  Table III fixes the probe cadence at f=20 after an
  offline sweep.  :class:`AdaptiveSensingPolicy` derives the interval at
  runtime from the :class:`~repro.learn.models.TransientCapacityModel`'s
  fitted capacity drift: sense again when the capacity vector is
  predicted to have drifted past tolerance, not on a fixed count.  Fast
  transients shorten the interval; quiet stretches stretch it.
- **Whether to repartition.**  The paper redistributes after every
  sensing.  :class:`RepartitionGate` prices the decision the way
  Altevogt & Linke price theirs: repartitioning pays off only if the
  predicted imbalance cost over the remaining iterations of the epoch
  exceeds the modeled migration cost.  With relative capacities summing
  to one, a balanced partition's bottleneck work equals the total work
  ``W``, so the per-iteration payoff of rebalancing is
  ``beta * (max_k W_k / c_k - W)`` where ``beta`` is the fitted
  seconds-per-bottleneck-work slope of the iteration cost model.

Both policies fall back **deterministically** to the paper's behavior
while their models are cold: the sensing policy returns the fixed
fallback interval (f=20 by default) and the gate always repartitions.
:class:`LearnController` packages models + policies + history recording
behind the same injectable no-op-default pattern the tracer uses:
:data:`NULL_LEARNER` has ``enabled = False`` and every call site guards
on it, so a run without learning executes byte-identically to one built
before this module existed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.learn.audit import DecisionLedger, encode_float
from repro.learn.history import ExecutionHistoryStore
from repro.learn.models import (
    OnlineLinearModel,
    OnlineMeanModel,
    TransientCapacityModel,
)
from repro.util.errors import ExperimentError

__all__ = [
    "LearnConfig",
    "AdaptiveSensingPolicy",
    "GateDecision",
    "RepartitionGate",
    "LearnController",
    "NullLearner",
    "NULL_LEARNER",
]

#: Clamp on the learned sensing interval (iterations).
MIN_INTERVAL = 2
MAX_INTERVAL = 80
#: Observations before any model considers itself fitted.
MIN_FIT_POINTS = 4
#: Sliding-window length of the transient capacity model.
CAPACITY_WINDOW = 12
#: Sensings before the transient capacity model is warm.  Lower than
#: :data:`MIN_FIT_POINTS` because sensings are scarce (one per fallback
#: interval, not one per iteration) and the drift fit needs to engage
#: within a single fallback-cadence run.
CAPACITY_MIN_POINTS = 3
#: Fraction of the sensing interval the transient model predicts ahead
#: when substituting forecast capacities (0.5 targets the middle of the
#: upcoming sensing window).
FORECAST_LEAD = 0.5


@dataclass(frozen=True, slots=True)
class LearnConfig:
    """Which learned behaviors are active, and their safety margins.

    Attributes
    ----------
    adaptive_sensing / payoff_gate / transient_forecast:
        Independent switches for the three learned behaviors, so the
        ablation can attribute the win per piece.
    fallback_interval:
        Sensing cadence (iterations) while the drift model is cold --
        the paper's hand-tuned f (default 20).
    drift_tolerance:
        Relative-capacity drift (fraction of total) tolerated between
        sensings; the learned interval is the predicted time to drift
        this far.
    gate_safety:
        Multiplier on the modeled repartition cost the predicted payoff
        must beat (>1 biases toward the paper's always-repartition).
    """

    adaptive_sensing: bool = True
    payoff_gate: bool = True
    transient_forecast: bool = True
    fallback_interval: int = 20
    drift_tolerance: float = 0.02
    gate_safety: float = 1.0

    def __post_init__(self) -> None:
        if not self.fallback_interval >= 1:
            raise ExperimentError(
                f"fallback_interval must be >= 1, got {self.fallback_interval}"
            )
        if not self.drift_tolerance > 0:
            raise ExperimentError(
                f"drift_tolerance must be positive, got {self.drift_tolerance}"
            )
        if not self.gate_safety > 0:
            raise ExperimentError(
                f"gate_safety must be positive, got {self.gate_safety}"
            )


class AdaptiveSensingPolicy:
    """Sensing interval from predicted capacity drift.

    ``interval = drift_tolerance / (drift_rate * seconds_per_iteration)``
    iterations, clamped to ``[MIN_INTERVAL, MAX_INTERVAL]``: the number
    of iterations until the fitted transient model predicts the capacity
    vector has moved ``drift_tolerance`` from what the partitioner last
    saw.  A cold drift model or unfitted iteration-time model yields the
    fixed ``fallback_interval`` -- exactly the paper's f.
    """

    def __init__(self, config: LearnConfig):
        self.config = config

    def interval(
        self, drift_rate: float, seconds_per_iteration: float
    ) -> tuple[int, bool]:
        """(interval in iterations, whether it came from the model)."""
        cfg = self.config
        if drift_rate <= 0.0 or not (seconds_per_iteration > 0.0):
            return cfg.fallback_interval, False
        seconds_to_drift = cfg.drift_tolerance / drift_rate
        iters = seconds_to_drift / seconds_per_iteration
        clamped = int(min(max(math.floor(iters), MIN_INTERVAL), MAX_INTERVAL))
        return clamped, True


@dataclass(frozen=True, slots=True)
class GateDecision:
    """One priced repartition decision."""

    repartition: bool
    reason: str  # "cold" | "payoff" | "skip"
    payoff_seconds: float
    cost_seconds: float
    horizon_iters: int


class RepartitionGate:
    """Repartition only when predicted payoff beats modeled cost."""

    def __init__(self, config: LearnConfig):
        self.config = config

    def decide(
        self,
        *,
        loads: np.ndarray,
        capacities: np.ndarray,
        horizon_iters: int,
        beta: float | None,
        migration_seconds: float | None,
    ) -> GateDecision:
        """Price repartitioning ``loads`` under fresh ``capacities``.

        ``beta`` is the fitted seconds-per-bottleneck-work slope (None
        while cold); ``migration_seconds`` the modeled repartition cost
        (None while cold).  Cold models always repartition -- the
        paper's behavior is the deterministic fallback.
        """
        horizon = max(int(horizon_iters), 0)
        if beta is None or migration_seconds is None:
            return GateDecision(True, "cold", math.inf, 0.0, horizon)
        caps = np.maximum(np.asarray(capacities, dtype=float), 1e-9)
        loads = np.asarray(loads, dtype=float)
        total = float(loads.sum())
        # Relative capacities sum to 1, so a balanced partition's
        # bottleneck work max_k W_k/c_k equals the total work; anything
        # above that is the imbalance the gate can reclaim.
        bottleneck = float((loads / caps).max()) if loads.size else 0.0
        excess_work = max(bottleneck - total, 0.0)
        payoff = beta * excess_work * horizon
        cost = self.config.gate_safety * max(migration_seconds, 0.0)
        if payoff > cost:
            return GateDecision(True, "payoff", payoff, cost, horizon)
        return GateDecision(False, "skip", payoff, cost, horizon)


class LearnController:
    """Models + policies + history recording behind one loop-facing API.

    The runtime calls four observe/query pairs, all cheap (O(nodes)):

    - :meth:`observe_sense` after every probe sweep;
    - :meth:`observe_iteration` after every priced iteration;
    - :meth:`observe_repartition` after every migration;
    - :meth:`sense_due` / :meth:`repartition_decision` /
      :meth:`effective_capacities` at the loop's decision points.

    A ``history`` store persists every observation durably; ``None``
    keeps the controller purely in-memory (the ablation mode).  Models
    can be pre-seeded from a fitted store via :meth:`warm_start`.

    A ``ledger`` (:class:`~repro.learn.audit.DecisionLedger`) records
    every decision's full provenance -- inputs, model-state digest,
    prediction with CI, action, reason -- plus the measured outcomes
    the reconciler joins against, and mirrors each record as a
    ``decision.*`` trace event.  ``None`` (the default) records and
    emits nothing: runs without a ledger stay byte-identical.
    """

    enabled = True

    def __init__(
        self,
        config: LearnConfig | None = None,
        *,
        history: ExecutionHistoryStore | None = None,
        run_id: str = "live",
        ledger: DecisionLedger | None = None,
    ):
        self.config = config or LearnConfig()
        self.history = history
        self.ledger = ledger
        self.run_id = str(run_id)
        self.tracer = None  # bound by the runtime (see bind())
        self.sensing_policy = AdaptiveSensingPolicy(self.config)
        self.gate = RepartitionGate(self.config)
        self.capacity_model: TransientCapacityModel | None = None
        #: iteration seconds ~ bottleneck work (max_k W_k / c_k): the
        #: slope is the gate's beta, the intercept the comm+sync floor.
        self.iter_model = OnlineLinearModel(min_points=MIN_FIT_POINTS)
        self.iter_seconds = OnlineMeanModel(min_points=MIN_FIT_POINTS)
        self.migration_model = OnlineMeanModel(min_points=2)
        self.probe_model = OnlineMeanModel(min_points=2)
        self._last_interval: int | None = None
        self.gate_decisions: list[GateDecision] = []

    # -- wiring --------------------------------------------------------
    def bind(self, tracer, num_nodes: int) -> None:
        """Attach the runtime's tracer and size the capacity model."""
        self.tracer = tracer
        if (
            self.capacity_model is None
            or self.capacity_model.num_nodes != int(num_nodes)
        ):
            self.capacity_model = TransientCapacityModel(
                num_nodes=int(num_nodes),
                window=CAPACITY_WINDOW,
                min_points=CAPACITY_MIN_POINTS,
            )

    def _event(self, name: str, **attrs) -> None:
        if self.tracer is not None and getattr(self.tracer, "enabled", False):
            self.tracer.event(name, **attrs)

    def _metrics(self):
        if self.tracer is not None and getattr(self.tracer, "enabled", False):
            return self.tracer.metrics
        return None

    def _decision(self, kind: str, **fields) -> dict | None:
        """Ledger one decision record and mirror it as a trace event.

        No ledger configured -> records nothing, emits nothing: the
        ledger-less path (enabled or not) stays byte-identical.
        """
        if self.ledger is None:
            return None
        row = self.ledger.record(kind, **fields)
        self._event(
            f"decision.{kind}",
            **{k: v for k, v in row.items() if k != "kind"},
        )
        metrics = self._metrics()
        if metrics is not None:
            metrics.counter("decision.records").inc()
        return row

    # -- observations --------------------------------------------------
    def observe_sense(
        self, t: float, capacities: np.ndarray, overhead_seconds: float
    ) -> None:
        if self.capacity_model is None:
            self.bind(self.tracer, len(capacities))
        # Probed capacities are the ground truth the reconciler scores
        # capacity forecasts against; ledger them before folding.
        self._decision(
            "outcome",
            phase="sense",
            t=float(t),
            capacities=np.asarray(capacities, dtype=float),
            overhead_seconds=float(overhead_seconds),
        )
        self.capacity_model.observe(t, capacities)
        self.probe_model.observe(overhead_seconds)
        metrics = self._metrics()
        if metrics is not None:
            metrics.counter("learn.observations").inc()
            metrics.gauge("learn.capacity_drift_rate").set(
                self.capacity_model.drift_rate()
            )
        if self.history is not None:
            self.history.record(
                source=self.run_id,
                phase="sense",
                seconds=float(overhead_seconds),
                t=float(t),
            )

    def observe_iteration(
        self,
        iteration: int,
        t: float,
        loads: np.ndarray,
        capacities: np.ndarray,
        cost,
    ) -> None:
        """Fold one priced iteration into every model.

        ``cost`` is the time model's IterationCost (per-rank compute and
        comm plus the collective sync).
        """
        loads = np.asarray(loads, dtype=float)
        caps = np.maximum(np.asarray(capacities, dtype=float), 1e-9)
        bottleneck = float((loads / caps).max()) if loads.size else 0.0
        if self.ledger is not None:
            # One-step-ahead prediction, captured *before* the measured
            # point folds into the model: honest out-of-sample CI
            # coverage for the calibration score.
            lo, hi = self.iter_model.prediction_interval(bottleneck)
            self._decision(
                "prediction",
                iteration=int(iteration),
                t=float(t),
                x=bottleneck,
                predicted=float(self.iter_model.predict(bottleneck)),
                lo=lo,
                hi=hi,
                actual=float(cost.total),
                cold=self.iter_model.is_cold,
            )
        self.iter_model.observe(bottleneck, float(cost.total))
        self.iter_seconds.observe(float(cost.total))
        metrics = self._metrics()
        if metrics is not None:
            metrics.counter("learn.observations").inc()
        if self.history is not None:
            compute = np.asarray(cost.compute, dtype=float)
            for node in range(len(loads)):
                self.history.record(
                    source=self.run_id,
                    phase="compute",
                    node=node,
                    t=float(t),
                    work=float(loads[node]),
                    seconds=float(compute[node]),
                    capacity=float(caps[node]),
                )
            self.history.record(
                source=self.run_id,
                phase="iteration",
                t=float(t),
                work=bottleneck,
                seconds=float(cost.total),
            )

    def observe_repartition(
        self, t: float, migration_seconds: float, migration_bytes: int
    ) -> None:
        self._decision(
            "outcome",
            phase="migrate",
            t=float(t),
            # Pre-fold model mean: what the gate believed a migration
            # cost *before* this one was measured.
            predicted_seconds=(
                self.migration_model.mean
                if not self.migration_model.is_cold
                else None
            ),
            seconds=float(migration_seconds),
            bytes=int(migration_bytes),
        )
        self.migration_model.observe(float(migration_seconds))
        metrics = self._metrics()
        if metrics is not None:
            metrics.counter("learn.observations").inc()
        if self.history is not None:
            self.history.record(
                source=self.run_id,
                phase="migrate",
                seconds=float(migration_seconds),
                work=float(migration_bytes),
                t=float(t),
            )

    def observe_recover(
        self,
        t: float,
        dead_nodes,
        migration_seconds: float,
        migration_bytes: int,
        evacuated_bytes: int = 0,
    ) -> None:
        """Ledger a recovery repartition's provenance.

        Call *before* :meth:`observe_repartition` folds the measured
        migration so the recorded prediction is what the model believed
        going in.  Without a ledger this is a no-op.
        """
        self._decision(
            "recover",
            t=float(t),
            dead_nodes=[int(n) for n in dead_nodes],
            predicted_migration_seconds=(
                self.migration_model.mean
                if not self.migration_model.is_cold
                else None
            ),
            migration_seconds=float(migration_seconds),
            migration_bytes=int(migration_bytes),
            evacuated_bytes=int(evacuated_bytes),
        )

    # -- decisions -----------------------------------------------------
    def sensing_interval(self) -> int:
        """Current learned (or fallback) sensing interval in iterations."""
        drift = (
            self.capacity_model.drift_rate()
            if self.capacity_model is not None
            and not self.capacity_model.is_cold
            else 0.0
        )
        spi = (
            self.iter_seconds.mean if not self.iter_seconds.is_cold else 0.0
        )
        interval, fitted = self.sensing_policy.interval(drift, spi)
        if interval != self._last_interval:
            self._event(
                "learn.sense_interval",
                interval=interval,
                fitted=fitted,
                drift_rate=drift,
            )
            cfg = self.config
            self._decision(
                "sense_interval",
                interval=int(interval),
                fitted=bool(fitted),
                previous_interval=self._last_interval,
                drift_rate=float(drift),
                seconds_per_iteration=float(spi),
                drift_tolerance=cfg.drift_tolerance,
                fallback_interval=cfg.fallback_interval,
                min_interval=MIN_INTERVAL,
                max_interval=MAX_INTERVAL,
            )
            self._last_interval = interval
        metrics = self._metrics()
        if metrics is not None:
            metrics.gauge("learn.sensing_interval").set(float(interval))
        return interval

    def sense_due(self, iteration: int, last_sense_iteration: int) -> bool:
        """Whether the learned cadence calls for a probe this iteration."""
        if iteration <= 0:
            return False
        return iteration - last_sense_iteration >= self.sensing_interval()

    def repartition_decision(
        self,
        loads: np.ndarray,
        capacities: np.ndarray,
        horizon_iters: int,
        *,
        iteration: int = -1,
        t: float = 0.0,
    ) -> GateDecision:
        """Gate a sense-triggered repartition on predicted payoff.

        ``iteration`` and ``t`` only stamp the ledger record (when a
        ledger is configured); they never influence the decision.
        """
        beta = None
        if not self.iter_model.is_cold and self.iter_model.slope > 0.0:
            beta = self.iter_model.slope
        migration = (
            self.migration_model.mean
            if not self.migration_model.is_cold
            else None
        )
        decision = self.gate.decide(
            loads=loads,
            capacities=capacities,
            horizon_iters=horizon_iters,
            beta=beta,
            migration_seconds=migration,
        )
        self.gate_decisions.append(decision)
        self._event(
            "learn.gate",
            repartition=decision.repartition,
            reason=decision.reason,
            # Explicit "inf" sentinel: a cold gate's infinite payoff
            # must survive the JSON round trip, not vanish into null.
            payoff_seconds=encode_float(decision.payoff_seconds),
            cost_seconds=encode_float(decision.cost_seconds),
            horizon_iters=decision.horizon_iters,
        )
        if self.ledger is not None:
            loads_arr = np.asarray(loads, dtype=float)
            caps_arr = np.maximum(
                np.asarray(capacities, dtype=float), 1e-9
            )
            total = float(loads_arr.sum())
            bottleneck = (
                float((loads_arr / caps_arr).max())
                if loads_arr.size
                else 0.0
            )
            excess = max(bottleneck - total, 0.0)
            slope_lo, slope_hi = self.iter_model.slope_interval()
            horizon = decision.horizon_iters
            self._decision(
                "gate",
                iteration=int(iteration),
                t=float(t),
                # Inputs: everything decide() consumed, verbatim, so
                # `repro explain --decision` replays bit-exactly.
                loads=loads_arr,
                capacities=np.asarray(capacities, dtype=float),
                horizon_iters=horizon,
                beta=beta,
                migration_seconds=migration,
                gate_safety=self.config.gate_safety,
                # Derived terms + the prediction with its CI.
                total_work=total,
                bottleneck_work=bottleneck,
                excess_work=excess,
                payoff_seconds=decision.payoff_seconds,
                payoff_lo_seconds=(
                    slope_lo * excess * horizon
                    if beta is not None
                    else None
                ),
                payoff_hi_seconds=(
                    slope_hi * excess * horizon
                    if beta is not None
                    else None
                ),
                cost_seconds=decision.cost_seconds,
                # The action and the model-state digest behind it.
                repartition=decision.repartition,
                reason=decision.reason,
                iter_n=self.iter_model.n,
                iter_slope=(
                    self.iter_model.slope
                    if not self.iter_model.is_cold
                    else None
                ),
                iter_intercept=(
                    self.iter_model.intercept
                    if not self.iter_model.is_cold
                    else None
                ),
                migration_n=self.migration_model.n,
            )
        metrics = self._metrics()
        if metrics is not None:
            if decision.repartition:
                metrics.counter("learn.gate_repartitions").inc()
            else:
                metrics.counter("learn.gate_skips").inc()
        return decision

    def effective_capacities(
        self, capacities: np.ndarray, t: float
    ) -> np.ndarray:
        """Substitute the transient forecast for the raw sensed vector.

        Predicts :data:`FORECAST_LEAD` of the upcoming sensing window ahead,
        so the partitioner balances against where capacities are heading
        rather than where they were at probe time.  Cold model: the
        sensed vector passes through untouched.
        """
        model = self.capacity_model
        if model is None or model.is_cold or self.iter_seconds.is_cold:
            return capacities
        interval = self.sensing_interval()
        lead = FORECAST_LEAD * interval * self.iter_seconds.mean
        predicted = model.predict(float(t) + lead)
        if predicted is None:
            return capacities
        self._event(
            "learn.capacity_forecast",
            lead_seconds=lead,
            drift_rate=model.drift_rate(),
        )
        self._decision(
            "forecast",
            t=float(t),
            lead_seconds=float(lead),
            target_t=float(t) + float(lead),
            drift_rate=model.drift_rate(),
            sensed=np.asarray(capacities, dtype=float),
            predicted=predicted,
        )
        return predicted

    # -- introspection -------------------------------------------------
    def summary(self) -> dict:
        """Fit state of every model, for the CLI and the ablation."""
        gate_skips = sum(
            1 for d in self.gate_decisions if not d.repartition
        )
        return {
            "config": {
                "adaptive_sensing": self.config.adaptive_sensing,
                "payoff_gate": self.config.payoff_gate,
                "transient_forecast": self.config.transient_forecast,
                "fallback_interval": self.config.fallback_interval,
            },
            "capacity_model": {
                "cold": (
                    self.capacity_model.is_cold
                    if self.capacity_model is not None
                    else True
                ),
                "drift_rate": (
                    self.capacity_model.drift_rate()
                    if self.capacity_model is not None
                    else 0.0
                ),
                "window_len": (
                    len(self.capacity_model)
                    if self.capacity_model is not None
                    else 0
                ),
            },
            "iter_model": {
                "cold": self.iter_model.is_cold,
                "n": self.iter_model.n,
                "beta": self.iter_model.slope,
                "intercept": self.iter_model.intercept,
            },
            "migration_model": {
                "cold": self.migration_model.is_cold,
                "n": self.migration_model.n,
                "mean_seconds": self.migration_model.mean,
            },
            "probe_model": {
                "cold": self.probe_model.is_cold,
                "n": self.probe_model.n,
                "mean_seconds": self.probe_model.mean,
            },
            "sensing_interval": (
                self._last_interval
                if self._last_interval is not None
                else self.config.fallback_interval
            ),
            "gate": {
                "decisions": len(self.gate_decisions),
                "skips": gate_skips,
            },
            "ledger": (
                {"records": len(self.ledger)}
                if self.ledger is not None
                else None
            ),
        }

    def warm_start(self, store: ExecutionHistoryStore) -> dict:
        """Seed the cost models from a persisted history store.

        Replays iteration/migrate rows through the online models;
        returns counts per model.  The transient capacity model is *not*
        seeded -- capacity transients are a property of the live cluster,
        not of history from another run.
        """
        counts = {"iteration": 0, "migrate": 0}
        view = store.query(phase="iteration")
        for work, seconds in zip(view["work"], view["seconds"]):
            self.iter_model.observe(float(work), float(seconds))
            self.iter_seconds.observe(float(seconds))
            counts["iteration"] += 1
        view = store.query(phase="migrate")
        for seconds in view["seconds"]:
            self.migration_model.observe(float(seconds))
            counts["migrate"] += 1
        return counts


class NullLearner:
    """The disabled learner: every call site guards on ``enabled``.

    Mirrors the ``NullTracer`` pattern -- a shared inert default, so the
    runtime wiring never branches on ``None`` and the unlearned path
    stays byte-identical to the pre-learn code.
    """

    enabled = False
    config = LearnConfig()

    def bind(self, tracer, num_nodes: int) -> None:  # pragma: no cover
        return None


#: The shared inert learner (same idiom as ``NULL_TRACER``).
NULL_LEARNER = NullLearner()
