"""Policy tests: adaptive sensing, payoff gate, LearnController."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.learn import (
    AdaptiveSensingPolicy,
    ExecutionHistoryStore,
    LearnConfig,
    LearnController,
    NULL_LEARNER,
    RepartitionGate,
)
from repro.learn.policy import MAX_INTERVAL, MIN_INTERVAL
from repro.runtime.timemodel import IterationCost
from repro.util.errors import ExperimentError


def cost(compute, sync: float = 0.1) -> IterationCost:
    compute = np.asarray(compute, dtype=float)
    comm = np.zeros_like(compute)
    return IterationCost(
        compute=compute,
        comm=comm,
        sync=sync,
        total=float(compute.max()) + sync,
    )


class TestConfig:
    def test_defaults_valid(self):
        cfg = LearnConfig()
        assert cfg.fallback_interval == 20

    @pytest.mark.parametrize(
        "kw",
        [
            {"fallback_interval": 0},
            {"drift_tolerance": 0.0},
            {"gate_safety": -1.0},
            {"fallback_interval": math.nan},
            {"drift_tolerance": math.nan},
            {"gate_safety": math.nan},
        ],
    )
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ExperimentError):
            LearnConfig(**kw)


class TestSensingPolicy:
    def test_cold_falls_back_to_paper_f(self):
        policy = AdaptiveSensingPolicy(LearnConfig(fallback_interval=20))
        assert policy.interval(0.0, 1.0) == (20, False)
        assert policy.interval(0.01, 0.0) == (20, False)

    def test_fast_drift_shortens_interval(self):
        cfg = LearnConfig(drift_tolerance=0.02)
        policy = AdaptiveSensingPolicy(cfg)
        slow, fitted_a = policy.interval(1e-4, 1.0)
        fast, fitted_b = policy.interval(1e-2, 1.0)
        assert fitted_a and fitted_b
        assert fast < slow
        assert MIN_INTERVAL <= fast <= slow <= MAX_INTERVAL

    def test_clamped_to_bounds(self):
        policy = AdaptiveSensingPolicy(LearnConfig())
        assert (MIN_INTERVAL, MAX_INTERVAL) == (2, 80)
        assert policy.interval(1e3, 1.0)[0] == MIN_INTERVAL
        assert policy.interval(1e-12, 1.0)[0] == MAX_INTERVAL

    def test_deterministic(self):
        policy = AdaptiveSensingPolicy(LearnConfig())
        assert policy.interval(0.003, 0.7) == policy.interval(0.003, 0.7)


class TestGate:
    def test_cold_always_repartitions(self):
        gate = RepartitionGate(LearnConfig())
        d = gate.decide(
            loads=np.array([1.0, 5.0]),
            capacities=np.array([0.5, 0.5]),
            horizon_iters=5,
            beta=None,
            migration_seconds=None,
        )
        assert d.repartition and d.reason == "cold"

    def test_balanced_load_skips(self):
        gate = RepartitionGate(LearnConfig())
        d = gate.decide(
            loads=np.array([5.0, 5.0]),
            capacities=np.array([0.5, 0.5]),
            horizon_iters=10,
            beta=1.0,
            migration_seconds=0.5,
        )
        assert not d.repartition and d.reason == "skip"
        assert d.payoff_seconds == pytest.approx(0.0)

    def test_imbalance_beyond_cost_repartitions(self):
        gate = RepartitionGate(LearnConfig())
        # Bottleneck 8/0.5 = 16 vs total 10: 6 excess work units.
        d = gate.decide(
            loads=np.array([8.0, 2.0]),
            capacities=np.array([0.5, 0.5]),
            horizon_iters=10,
            beta=0.1,
            migration_seconds=0.5,
        )
        assert d.repartition and d.reason == "payoff"
        assert d.payoff_seconds == pytest.approx(6.0)
        assert d.cost_seconds == pytest.approx(0.5)

    def test_cold_gate_event_round_trips_infinite_payoff(self):
        """The learn.gate event keeps inf via the "inf" sentinel.

        Regression test: the old ``math.isfinite`` special-case dropped
        a cold gate's infinite payoff to null in the trace, so a trace
        reader could not tell a cold accept from a zero-payoff one.
        """
        import json

        from repro.learn import decode_float
        from repro.telemetry.spans import Tracer

        tracer = Tracer()
        learn = LearnController(LearnConfig())
        learn.bind(tracer, 2)
        d = learn.repartition_decision(
            np.array([1.0, 5.0]), np.array([0.5, 0.5]), 5
        )
        assert d.reason == "cold" and math.isinf(d.payoff_seconds)
        (event,) = [e for e in tracer.events if e.name == "learn.gate"]
        # Through a JSON round trip -- the trace file is the contract.
        attrs = json.loads(json.dumps(event.attributes))
        assert attrs["payoff_seconds"] == "inf"
        assert decode_float(attrs["payoff_seconds"]) == math.inf
        assert decode_float(attrs["cost_seconds"]) == 0.0

    def test_safety_factor_scales_cost(self):
        loose = RepartitionGate(LearnConfig(gate_safety=1.0))
        strict = RepartitionGate(LearnConfig(gate_safety=100.0))
        kwargs = dict(
            loads=np.array([8.0, 2.0]),
            capacities=np.array([0.5, 0.5]),
            horizon_iters=10,
            beta=0.1,
            migration_seconds=0.5,
        )
        assert loose.decide(**kwargs).repartition
        assert not strict.decide(**kwargs).repartition


class TestController:
    def make_warm(self, history=None) -> LearnController:
        learn = LearnController(history=history)
        learn.bind(None, 2)
        for it in range(8):
            loads = np.array([10.0 + it, 10.0 - it])
            caps = np.array([0.5, 0.5])
            learn.observe_sense(float(it), caps, 0.2)
            learn.observe_iteration(
                it, float(it), loads, caps, cost([1.0 + 0.1 * it, 1.0])
            )
            learn.observe_repartition(float(it), 0.3, 1024)
        return learn

    def test_cold_controller_uses_fallback_everywhere(self):
        learn = LearnController()
        learn.bind(None, 4)
        assert learn.sensing_interval() == 20
        d = learn.repartition_decision(
            np.array([1.0, 9.0]), np.array([0.5, 0.5]), 5
        )
        assert d.repartition and d.reason == "cold"
        caps = np.array([0.3, 0.7])
        out = learn.effective_capacities(caps, 0.0)
        assert out is caps  # pass-through while cold

    def test_warm_controller_fits_models(self):
        learn = self.make_warm()
        s = learn.summary()
        assert not s["migration_model"]["cold"]
        assert not s["probe_model"]["cold"]
        assert not s["capacity_model"]["cold"]
        assert s["migration_model"]["mean_seconds"] == pytest.approx(0.3)

    def test_sense_due_respects_interval(self):
        learn = LearnController()
        learn.bind(None, 2)
        assert not learn.sense_due(0, 0)
        assert not learn.sense_due(19, 0)
        assert learn.sense_due(20, 0)

    def test_history_rows_recorded(self, tmp_path):
        store = ExecutionHistoryStore(tmp_path / "h")
        self.make_warm(history=store)
        phases = set(store.phases())
        assert {"sense", "compute", "iteration", "migrate"} <= phases
        reopened = ExecutionHistoryStore(tmp_path / "h")
        assert len(reopened) == len(store)

    def test_warm_start_restores_fit(self, tmp_path):
        store = ExecutionHistoryStore(tmp_path / "h")
        warm = self.make_warm(history=store)
        fresh = LearnController()
        fresh.bind(None, 2)
        counts = fresh.warm_start(ExecutionHistoryStore(tmp_path / "h"))
        assert counts["iteration"] == 8
        assert counts["migrate"] == 8
        assert fresh.iter_model.slope == pytest.approx(
            warm.iter_model.slope
        )
        assert fresh.migration_model.mean == pytest.approx(
            warm.migration_model.mean
        )
        # Capacity transients are deliberately NOT warm-started.
        assert fresh.capacity_model.is_cold

    def test_null_learner_is_inert(self):
        assert not NULL_LEARNER.enabled
        NULL_LEARNER.bind(None, 8)  # must be a no-op, not raise
