"""Runtime integration: the learned loop vs the unlearned invariant.

The load-bearing contract: with learning disabled (``learn=None`` or a
:class:`NullLearner`) the runtime must be *identical* to the pre-learn
code -- same simulated seconds, same sensing count, same regrid record
-- because every call site guards on ``learner.enabled``.  The golden
trace tests in tests/runtime/test_pipeline_replay.py pin the telemetry
bytes; these pin the result object and exercise the enabled paths.
"""

from __future__ import annotations

from repro.cluster import Cluster
from repro.kernels.workloads import paper_rm3d_trace
from repro.learn import LearnConfig, LearnController, NULL_LEARNER
from repro.partition import ACEHeterogeneous
from repro.runtime import RuntimeConfig, SamrRuntime
from repro.runtime.distributed import DistributedAmrRun
from repro.telemetry.spans import Tracer

ITERS = 30
REGRID = 7


def run_engine(learn=None, seed: int = 11, tracer=None, iters: int = ITERS):
    # The load-script horizon is sized to the run (~1.2 sim-seconds per
    # iteration) so the dynamic load actually moves -- with a huge
    # horizon the capacities are flat and the drift model has nothing
    # to fit (learn_ablation calibrates the same way).
    cluster = Cluster.paper_linux_cluster(
        8, seed=seed, dynamic=True, horizon_s=1.2 * iters
    )
    rt = SamrRuntime(
        paper_rm3d_trace(num_regrids=iters // REGRID + 2),
        cluster,
        ACEHeterogeneous(),
        config=RuntimeConfig(
            iterations=iters, regrid_interval=REGRID, sensing_interval=20
        ),
        learn=learn,
        tracer=tracer,
    )
    return rt.run()


def result_fingerprint(r) -> tuple:
    return (
        r.total_seconds,
        r.num_sensings,
        r.sensing_seconds,
        r.migration_seconds,
        tuple((rec.iteration, rec.trigger) for rec in r.regrids),
    )


class TestDisabledIdentity:
    def test_none_and_null_learner_identical(self):
        assert result_fingerprint(run_engine(None)) == result_fingerprint(
            run_engine(NULL_LEARNER)
        )

    def test_all_flags_off_identical_to_disabled(self):
        """An enabled controller with every behavior off only observes."""
        off = LearnController(
            LearnConfig(
                adaptive_sensing=False,
                payoff_gate=False,
                transient_forecast=False,
            )
        )
        assert result_fingerprint(run_engine(None)) == result_fingerprint(
            run_engine(off)
        )

    def test_distributed_disabled_identity(self):
        from repro.kernels.advection import AdvectionKernel
        from repro.runtime.distributed import DistributedRunConfig
        from repro.util.geometry import Box
        from repro.amr.hierarchy import GridHierarchy

        def run(learn):
            k = AdvectionKernel(
                velocity=(1.0, 0.5),
                pulse_center=(8.0, 8.0),
                pulse_width=2.0,
            )
            h = GridHierarchy(Box((0, 0), (32, 32)), k, max_levels=3)
            cluster = Cluster.paper_linux_cluster(
                4, seed=3, dynamic=True, horizon_s=1e9
            )
            run_ = DistributedAmrRun(
                h,
                cluster,
                ACEHeterogeneous(),
                config=DistributedRunConfig(
                    steps=9, regrid_interval=3, sensing_interval=4
                ),
                learn=learn,
            )
            r = run_.run()
            return (r.total_seconds, r.num_sensings, r.migration_seconds)

        assert run(None) == run(NULL_LEARNER)


class TestEnabledLoop:
    def test_learned_run_completes_and_observes(self):
        learn = LearnController()
        r = run_engine(learn)
        assert r.iterations == ITERS
        s = learn.summary()
        assert not s["iter_model"]["cold"]
        assert s["iter_model"]["n"] == ITERS

    def test_adaptive_sensing_changes_cadence(self):
        # 60 iterations: enough sensings (capacity_min_points) for the
        # drift model to warm and the learned interval to engage.
        fixed = run_engine(None, iters=60)
        learn = LearnController(
            LearnConfig(
                adaptive_sensing=True,
                payoff_gate=False,
                transient_forecast=False,
            )
        )
        adaptive = run_engine(learn, iters=60)
        # The learned interval engaged (default would stay at f=20
        # and produce the fixed-count sensing schedule).
        assert learn.summary()["sensing_interval"] != 20
        assert adaptive.num_sensings != fixed.num_sensings

    def test_gate_records_decisions(self):
        learn = LearnController(
            LearnConfig(
                adaptive_sensing=False,
                payoff_gate=True,
                transient_forecast=False,
            )
        )
        run_engine(learn)
        assert learn.summary()["gate"]["decisions"] > 0

    def test_learn_telemetry_emitted_and_registered(self):
        from repro.telemetry.names import is_known_metric

        tracer = Tracer()
        run_engine(LearnController(), tracer=tracer)
        learn_events = {
            e.name for e in tracer.events if e.name.startswith("learn.")
        }
        assert "learn.sense_interval" in learn_events
        assert "learn.gate" in learn_events
        metric_names = {
            m.name for m in tracer.metrics if m.name.startswith("learn.")
        }
        assert "learn.observations" in metric_names
        assert all(is_known_metric(m) for m in metric_names)

    def test_disabled_run_emits_no_learn_telemetry(self):
        tracer = Tracer()
        run_engine(None, tracer=tracer)
        assert not any(
            e.name.startswith("learn.") for e in tracer.events
        )
        assert not any(
            m.name.startswith("learn.") for m in tracer.metrics
        )
