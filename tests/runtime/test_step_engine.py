"""The step engine through both of its executors.

:class:`~repro.runtime.engine.StepEngine` owns the sensing cadence, the
gate call and the recovery sequence; ``SamrRuntime`` (trace) and
``DistributedAmrRun`` (kernel) only execute.  These tests drive the shared
parts through *each* executor -- which the golden traces, pinned to one
scenario per runtime, do not -- and pin that the ghost exchange is planned
once per layout change rather than once per step.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

import repro.runtime.pipeline as pipeline_module
from repro.amr.ghost import GhostFiller
from repro.cluster import Cluster
from repro.kernels.workloads import paper_rm3d_trace
from repro.learn import LearnConfig
from repro.partition import ACEHeterogeneous
from repro.resilience import FaultInjector, FaultPlan, ResilienceConfig
from repro.runtime import RuntimeConfig, SamrRuntime
from repro.runtime.distributed import DistributedAmrRun, DistributedRunConfig
from repro.runtime.pipeline import RepartitionPipeline
from repro.telemetry import Tracer
from tests.runtime.test_distributed import (
    advection_hierarchy,
    sequential_solution,
)

REGRID = 4


class ScriptedLearner:
    """An enabled learner with scripted answers instead of fitted models.

    ``sense_due`` fires on ``sense_steps``; the payoff gate accepts on
    ``gate_steps`` and declines everywhere else.
    """

    enabled = True

    def __init__(self, sense_steps=(), gate_steps=(), payoff_gate=False):
        self.config = LearnConfig(
            adaptive_sensing=True,
            payoff_gate=payoff_gate,
            transient_forecast=False,
        )
        self.sense_steps = frozenset(sense_steps)
        self.gate_steps = frozenset(gate_steps)
        self.gate_calls: list[int] = []

    def bind(self, tracer, num_nodes):
        pass

    def observe_sense(self, *args):
        pass

    observe_repartition = observe_recover = observe_iteration = observe_sense

    def sense_due(self, step, last_sense):
        return step in self.sense_steps

    def repartition_decision(self, loads, capacities, horizon, *, iteration, t):
        self.gate_calls.append(iteration)
        return SimpleNamespace(repartition=iteration in self.gate_steps)


def run_executor(kind: str, steps: int, sensing_interval: int, learn=None):
    """One run of either executor; returns (result, tracer, step attribute)."""
    tracer = Tracer()
    cluster = Cluster.paper_linux_cluster(4, seed=3)
    if kind == "trace":
        runtime = SamrRuntime(
            paper_rm3d_trace(num_regrids=steps // REGRID + 2),
            cluster,
            ACEHeterogeneous(),
            config=RuntimeConfig(
                iterations=steps,
                regrid_interval=REGRID,
                sensing_interval=sensing_interval,
            ),
            tracer=tracer,
            learn=learn,
        )
        return runtime.run(), tracer, "iteration"
    run = DistributedAmrRun(
        advection_hierarchy(),
        cluster,
        ACEHeterogeneous(),
        config=DistributedRunConfig(
            steps=steps,
            regrid_interval=REGRID,
            sensing_interval=sensing_interval,
        ),
        tracer=tracer,
        learn=learn,
    )
    return run.run(), tracer, "step"


def sensing_steps(tracer: Tracer, step_attr: str) -> list[int]:
    """The step each in-loop sensing belongs to, read off the trace: a
    ``sense`` span is followed by the ``iteration`` span of its step."""
    out: list[int] = []
    pending = 0
    for span in tracer.spans:
        if span.name == "sense":
            pending += 1
        elif span.name == "iteration":
            out.extend([span.attributes[step_attr]] * pending)
            pending = 0
    return out[1:]  # the first sensing is the one before the start


@pytest.mark.parametrize("kind", ["trace", "kernel"])
class TestSharedCadence:
    @pytest.mark.parametrize("steps, interval", [(10, 3), (9, 4), (7, 1), (6, 7)])
    def test_fixed_interval(self, kind, steps, interval):
        result, tracer, step_attr = run_executor(kind, steps, interval)
        assert sensing_steps(tracer, step_attr) == list(
            range(interval, steps, interval)
        )
        assert result.num_sensings == 1 + (steps - 1) // interval

    def test_learned_cadence_replaces_the_interval(self, kind):
        fire_on = (1, 4, 5, 9)
        learn = ScriptedLearner(sense_steps=fire_on)
        result, tracer, step_attr = run_executor(kind, 11, 3, learn=learn)
        assert sensing_steps(tracer, step_attr) == list(fire_on)
        assert result.num_sensings == 1 + len(fire_on)

    def test_gate_is_consulted_between_regrids(self, kind):
        """Same scripted gate, same decision points: every sensing that
        does not coincide with a loop-level regrid asks the gate once."""
        learn = ScriptedLearner(
            sense_steps=(2, 5, 6), gate_steps=(5,), payoff_gate=True
        )
        _, tracer, _ = run_executor(kind, 9, 0, learn=learn)
        assert learn.gate_calls == [2, 5, 6]
        triggers = [
            s.attributes.get("trigger")
            for s in tracer.spans
            if s.name == "migrate"
        ]
        assert triggers.count("sense") == 1


class TestExchangePlannedOncePerLayout:
    """A kernel run with regrids, one mid-epoch gate repartition and one
    kill-and-recover plans the ghost exchange when the layout changes --
    not on every step -- and prices every step exactly as before."""

    STEPS = 12
    #: the run's simulated seconds as recorded at the parent of the
    #: one-loop refactor (it re-planned every step): planning is pure, so
    #: the clock must not move by a bit
    TOTAL_SECONDS = 2.7266694748453597
    STEP_SECONDS_SHA = (
        "c52e73438abb2152bf796b8192b20e8ed9f80649e1b6082ec9ba252c468ee0c4"
    )

    def run_chaos(self, monkeypatch):
        calls = {"plan": 0, "repartition": 0, "recover": 0}
        real_plan = pipeline_module.plan_exchange_volumes

        def plan(*args, **kwargs):
            calls["plan"] += 1
            return real_plan(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "plan_exchange_volumes", plan)
        for name in ("repartition", "recover"):
            real = getattr(RepartitionPipeline, name)

            def counted(self, *args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(RepartitionPipeline, name, counted)

        cfg = DistributedRunConfig(steps=self.STEPS, regrid_interval=3)

        def build(tracer):
            h = advection_hierarchy()
            run = DistributedAmrRun(
                h,
                Cluster.homogeneous(8),
                ACEHeterogeneous(),
                config=cfg,
                tracer=tracer,
                resilience=ResilienceConfig(checkpoint_interval=3),
                learn=ScriptedLearner(
                    sense_steps=(1,), gate_steps=(1,), payoff_gate=True
                ),
            )
            return run, h

        # Fault-free calibration run: the crash lands in the middle of
        # step 5 (after the scripted gate repartition at step 1); the
        # nodes rejoin a few degraded steps after the restore.
        probe = Tracer()
        build(probe)[0].run()
        middle = {
            s.attributes["step"]: (s.start_sim + s.end_sim) / 2
            for s in probe.spans
            if s.name == "iteration"
        }
        for key in calls:
            calls[key] = 0

        tracer = Tracer()
        run, h = build(tracer)
        FaultInjector(run.cluster, monitor=run.monitor, tracer=tracer).arm(
            FaultPlan.node_outage([0, 1], at=middle[5], duration=0.7, seed=7)
        )
        return run.run(), h, tracer, calls

    def test_one_plan_per_repartition_or_recover(self, monkeypatch):
        result, h, tracer, calls = self.run_chaos(monkeypatch)
        # The scenario really contains all three kinds of layout change.
        assert result.num_regrids >= 4
        assert result.num_restores == 1 and result.num_recoveries == 2
        assert calls["recover"] > result.num_recoveries  # degraded regrids
        assert [
            s.attributes.get("trigger")
            for s in tracer.spans
            if s.name == "migrate"
        ].count("sense") == 1
        assert calls["plan"] == calls["repartition"] + calls["recover"]
        assert calls["plan"] < result.steps

    def test_pricing_and_solution_are_bitwise_unchanged(self, monkeypatch):
        result, h, _, _ = self.run_chaos(monkeypatch)
        assert result.total_seconds == self.TOTAL_SECONDS
        digest = hashlib.sha256(
            np.array(result.step_seconds).tobytes()
        ).hexdigest()
        assert digest == self.STEP_SECONDS_SHA
        np.testing.assert_array_equal(
            GhostFiller(h).fetch(h.domain, 0), sequential_solution(self.STEPS)
        )
