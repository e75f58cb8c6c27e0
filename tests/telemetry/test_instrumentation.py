"""Integration tests: telemetry wired through the runtime layers.

Two properties matter most: an *enabled* tracer observes every phase of
the sense -> capacity -> partition -> migrate -> execute loop, and the
*default no-op* tracer changes nothing -- results stay bitwise identical
and the hot path pays (sub-microsecond) no-op calls only.
"""

from __future__ import annotations

import time

import numpy as np

from repro.cluster import Cluster
from repro.kernels.advection import AdvectionKernel
from repro.amr.hierarchy import GridHierarchy
from repro.monitor import ResourceMonitor
from repro.partition import ACEHeterogeneous, LevelPartitioner
from repro.runtime import RuntimeConfig, SamrRuntime
from repro.runtime.distributed import DistributedAmrRun, DistributedRunConfig
from repro.telemetry import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    activate,
    aggregate_phases,
    chrome_trace_events,
)
from repro.util.geometry import Box
from tests.conftest import moving_blob_trace


def spans_named(tracer: Tracer, name: str) -> list:
    return [s for s in tracer.spans if s.name == name]


def small_workload():
    return moving_blob_trace(domain_shape=(32, 32), num_regrids=4, max_levels=2)


def make_runtime(tracer=None, iterations=10):
    return SamrRuntime(
        small_workload(),
        Cluster.paper_linux_cluster(4, seed=7),
        ACEHeterogeneous(),
        config=RuntimeConfig(iterations=iterations, sensing_interval=4),
        tracer=tracer,
    )


class TestSamrRuntimeInstrumentation:
    def test_phases_recorded(self):
        tracer = Tracer()
        make_runtime(tracer).run()
        names = set(aggregate_phases(tracer))  # rank-track rows included
        assert {
            "run", "sense", "capacity", "probe", "partition", "migrate",
            "iteration", "compute", "sync",
        } <= names

    def test_spans_nested_under_run(self):
        tracer = Tracer()
        make_runtime(tracer).run()
        (run_span,) = spans_named(tracer, "run")
        for sense in spans_named(tracer, "sense"):
            assert sense.parent_id == run_span.span_id

    def test_simulated_durations_match_result(self):
        tracer = Tracer()
        result = make_runtime(tracer).run()
        (run_span,) = spans_named(tracer, "run")
        assert run_span.sim_duration == result.total_seconds
        iteration_sim = sum(
            s.sim_duration for s in spans_named(tracer, "iteration")
        )
        assert np.isclose(iteration_sim, sum(result.iteration_times))
        migrate_sim = sum(
            s.sim_duration for s in spans_named(tracer, "migrate")
        )
        assert np.isclose(migrate_sim, result.migration_seconds)

    def test_metrics_track_result(self):
        tracer = Tracer()
        result = make_runtime(tracer).run()
        metrics = tracer.metrics
        assert metrics.counter("num_sensings").value == result.num_sensings
        assert metrics.counter("migration_bytes").value == sum(
            r.migration_bytes for r in result.regrids
        )
        assert (
            metrics.histogram("iteration_seconds").count == result.iterations
        )
        assert metrics.gauge("node_utilization", node=0).num_updates > 0

    def test_one_tid_per_rank_in_chrome_export(self):
        tracer = Tracer()
        runtime = make_runtime(tracer)
        runtime.run()
        events = chrome_trace_events(tracer)
        compute_tids = {
            e["tid"] for e in events
            if e["ph"] == "X" and e["name"] == "compute"
        }
        assert compute_tids == set(
            range(1, runtime.cluster.num_nodes + 1)
        )

    def test_ambient_tracer_via_activate(self):
        tracer = Tracer()
        with activate(tracer):
            make_runtime().run()  # no explicit tracer argument
        assert len(tracer.spans) > 0

    def test_cluster_and_monitor_events(self):
        tracer = Tracer()
        make_runtime(tracer).run()
        event_names = {e.name for e in tracer.events}
        assert "cluster" in event_names
        assert "load_generator" in event_names
        assert len(list(spans_named(tracer, "probe"))) >= 1

    def test_nested_partitioners_share_tracer(self):
        tracer = Tracer()
        runtime = SamrRuntime(
            small_workload(),
            Cluster.homogeneous(2),
            LevelPartitioner(ACEHeterogeneous()),
            config=RuntimeConfig(iterations=4),
            tracer=tracer,
        )
        runtime.run()
        partitioners = {
            s.attributes["partitioner"]
            for s in spans_named(tracer, "partition")
        }
        assert len(partitioners) >= 2  # outer levelwise + inner per-level


class TestDistributedInstrumentation:
    def test_phases_recorded(self):
        kernel = AdvectionKernel(
            velocity=(1.0, 0.5), pulse_center=(8.0, 8.0), pulse_width=2.0
        )
        hierarchy = GridHierarchy(Box((0, 0), (32, 32)), kernel, max_levels=2)
        tracer = Tracer()
        run = DistributedAmrRun(
            hierarchy,
            Cluster.homogeneous(2),
            ACEHeterogeneous(),
            config=DistributedRunConfig(steps=4, regrid_interval=2),
            tracer=tracer,
        )
        result = run.run()
        names = {s.name for s in tracer.spans}
        assert {
            "run", "sense", "partition", "migrate", "advance", "iteration",
        } <= names
        (run_span,) = spans_named(tracer, "run")
        assert run_span.sim_duration == result.total_seconds
        # Real numerics executed under the advance spans: wall time > 0.
        assert sum(
            s.wall_duration for s in spans_named(tracer, "advance")
        ) > 0.0


class TestNoopIsFree:
    def test_results_bitwise_identical_with_and_without_tracer(self):
        baseline = make_runtime(tracer=NULL_TRACER).run()
        traced = make_runtime(tracer=Tracer()).run()
        assert traced.total_seconds == baseline.total_seconds
        assert traced.iteration_times == baseline.iteration_times
        assert traced.compute_seconds == baseline.compute_seconds
        assert traced.comm_seconds == baseline.comm_seconds
        assert traced.migration_seconds == baseline.migration_seconds
        assert traced.sensing_seconds == baseline.sensing_seconds
        assert len(traced.regrids) == len(baseline.regrids)
        for a, b in zip(traced.regrids, baseline.regrids):
            assert np.array_equal(a.loads, b.loads)
            assert np.array_equal(a.imbalance, b.imbalance)
            assert a.migration_bytes == b.migration_bytes

    def test_default_tracer_is_the_shared_noop(self):
        runtime = make_runtime()
        assert runtime.tracer is NULL_TRACER
        assert ResourceMonitor(Cluster.homogeneous(2)).tracer is NULL_TRACER
        assert ACEHeterogeneous().tracer is NULL_TRACER

    def test_noop_span_overhead_is_negligible(self):
        # 100k no-op span enter/exits in well under a second: the shared
        # null span means instrumented hot paths cost one method call and
        # zero allocations per span when telemetry is off.
        calls = 100_000
        start = time.perf_counter()
        for _ in range(calls):
            with NULL_TRACER.span("compute"):
                pass
            NULL_TRACER.metrics.counter("c").inc()
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"no-op telemetry too slow: {elapsed:.3f}s"

    def test_noop_tracer_adds_no_measurable_runtime_cost(self):
        # Bound the disabled-telemetry tax directly: count every no-op
        # tracer call a run makes, price one call from a microbenchmark,
        # and require the product to be a negligible slice of the run's
        # wall time.  (A disabled run makes O(iterations) tracer calls,
        # not O(iterations * ranks) -- the per-rank emission is gated on
        # `tracer.enabled`.)
        class CountingNullTracer(NullTracer):
            def __init__(self):
                self.calls = 0

            def span(self, name, rank=None, **attrs):
                self.calls += 1
                return super().span(name, rank, **attrs)

        counting = CountingNullTracer()
        runtime = make_runtime(tracer=counting, iterations=20)
        start = time.perf_counter()
        runtime.run()
        run_seconds = time.perf_counter() - start

        reps = 50_000
        start = time.perf_counter()
        for _ in range(reps):
            with NULL_TRACER.span("x"):
                pass
        per_call = (time.perf_counter() - start) / reps

        assert counting.calls <= 10 * 20 + 50  # O(iterations) call sites
        overhead = counting.calls * per_call
        assert overhead < 0.05 * run_seconds + 0.005, (
            f"no-op telemetry overhead {overhead * 1e3:.3f} ms is not "
            f"negligible against a {run_seconds * 1e3:.0f} ms run"
        )
