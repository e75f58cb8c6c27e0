"""Tests for runtime health analysis: the span-close observer hook, the
health monitor's per-iteration snapshots, the anomaly detectors, and the
offline (JSONL replay) analysis path.

The load-bearing properties: a live :class:`HealthMonitor` feed and an
offline :func:`analyze_records` replay of the exported trace must agree
exactly, and attaching a monitor must never perturb simulation results.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.partition import ACEHeterogeneous
from repro.runtime import RuntimeConfig, SamrRuntime
from repro.telemetry import (
    NULL_TRACER,
    PAPER_IMBALANCE_BOUND_PCT,
    HealthMonitor,
    HealthSnapshot,
    RollingZScore,
    Span,
    ThresholdRule,
    Tracer,
    analyze_records,
    default_detectors,
    load_trace_records,
    write_jsonl,
)
from tests.conftest import moving_blob_trace


def make_snapshot(iteration=0, duration_s=1.0, epoch=0, **overrides):
    base = dict(
        pid=1,
        run_label="synthetic",
        iteration=iteration,
        start_sim=float(iteration),
        end_sim=float(iteration) + duration_s,
        duration_s=duration_s,
        epoch=epoch,
    )
    base.update(overrides)
    return HealthSnapshot(**base)


def make_runtime(tracer=None, iterations=12):
    return SamrRuntime(
        moving_blob_trace(domain_shape=(32, 32), num_regrids=4, max_levels=2),
        Cluster.paper_linux_cluster(4, seed=7),
        ACEHeterogeneous(),
        config=RuntimeConfig(iterations=iterations, sensing_interval=4),
        tracer=tracer,
    )


def emit_synthetic_run(tracer, imbalances=(10.0, 20.0, 30.0)):
    """One hand-built run: sense, then one iteration per imbalance value."""
    pid = tracer.begin_run("synthetic")
    tracer.add_span(
        "sense", 0.0, 0.5, overhead_seconds=0.5, capacities=(0.5, 0.5)
    )
    t = 0.5
    for i, imb in enumerate(imbalances):
        tracer.add_span("sync", t + 0.8, t + 1.0)
        tracer.add_span(
            "iteration", t, t + 1.0, iteration=i, epoch=0, imbalance_pct=imb,
            compute=[0.8, 0.6], comm=[0.0, 0.0],
        )  # fmt: skip
        t += 1.0
    tracer.add_span("run", 0.0, t)
    return pid


class TestObserverHook:
    def test_observer_sees_spans_as_they_close(self):
        tracer = Tracer()
        seen = []
        tracer.add_observer(seen.append)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        tracer.add_span("compute", 0.0, 1.0, rank=0)
        assert [s.name for s in seen] == ["inner", "outer", "compute"]
        assert all(s.end_wall is not None for s in seen)

    def test_remove_observer_stops_delivery(self):
        tracer = Tracer()
        seen = []
        tracer.add_observer(seen.append)
        tracer.add_span("a", 0.0, 1.0)
        tracer.remove_observer(seen.append)
        tracer.add_span("b", 0.0, 1.0)
        assert [s.name for s in seen] == ["a"]

    def test_duplicate_registration_delivers_once(self):
        tracer = Tracer()
        seen = []

        def cb(span):
            seen.append(span)

        tracer.add_observer(cb)
        tracer.add_observer(cb)
        tracer.add_span("x", 0.0, 1.0)
        assert len(seen) == 1

    def test_removing_unknown_observer_is_harmless(self):
        Tracer().remove_observer(lambda s: None)

    def test_no_observers_by_default(self):
        assert Tracer()._observers == []

    def test_null_tracer_accepts_and_ignores_observers(self):
        NULL_TRACER.add_observer(lambda s: None)
        NULL_TRACER.remove_observer(lambda s: None)


class TestThresholdRule:
    def test_fires_above_threshold(self):
        rule = ThresholdRule("imbalance_pct", 40.0, kind="imbalance_bound")
        (event,) = rule.observe(make_snapshot(imbalance_pct=55.0))
        assert event.kind == "imbalance_bound"
        assert event.attributes["value"] == 55.0
        assert event.attributes["threshold"] == 40.0

    def test_quiet_at_or_below_threshold(self):
        rule = ThresholdRule("imbalance_pct", 40.0, kind="k")
        assert rule.observe(make_snapshot(imbalance_pct=40.0)) == []
        assert rule.observe(make_snapshot(imbalance_pct=12.0)) == []

    def test_none_valued_field_never_fires(self):
        rule = ThresholdRule("imbalance_pct", 40.0, kind="k")
        assert rule.observe(make_snapshot(imbalance_pct=None)) == []

    def test_below_mode(self):
        rule = ThresholdRule("duration_s", 0.5, kind="k", above=False)
        assert rule.observe(make_snapshot(duration_s=0.1))
        assert rule.observe(make_snapshot(duration_s=0.9)) == []

    def test_warmup_suppresses_early_iterations(self):
        rule = ThresholdRule(
            "probe_overhead_fraction", 0.15, kind="k", warmup=5
        )
        early = make_snapshot(iteration=2, probe_overhead_fraction=0.9)
        late = make_snapshot(iteration=5, probe_overhead_fraction=0.9)
        assert rule.observe(early) == []
        assert rule.observe(late)


class TestRollingZScore:
    def test_spike_fires_after_min_history(self):
        det = RollingZScore(min_history=3)
        det.reset()
        events = []
        for i, v in enumerate([1.0, 1.01, 0.99, 1.0, 5.0]):
            events += det.observe(make_snapshot(iteration=i, duration_s=v))
        assert [e.iteration for e in events] == [4]
        assert events[0].kind == "duration_s_spike"
        assert events[0].attributes["zscore"] > 3.0

    def test_zero_variance_wiggle_stays_quiet(self):
        # A deterministic simulation produces identical iterations; the
        # rel_floor sigma guard must keep sub-percent wiggles from scoring
        # astronomic z values against a zero-variance window.
        det = RollingZScore(min_history=3, rel_floor=0.05)
        events = []
        for i, v in enumerate([1.0, 1.0, 1.0, 1.0, 1.02]):
            events += det.observe(make_snapshot(iteration=i, duration_s=v))
        assert events == []

    def test_epoch_change_resets_window(self):
        # A regrid legitimately shifts iteration cost; the detector must
        # not flag the shift itself.
        det = RollingZScore(min_history=3)
        events = []
        for i in range(4):
            events += det.observe(
                make_snapshot(iteration=i, duration_s=1.0, epoch=0)
            )
        for i in range(4, 8):
            events += det.observe(
                make_snapshot(iteration=i, duration_s=5.0, epoch=1)
            )
        assert events == []

    def test_without_epoch_reset_the_shift_fires(self):
        det = RollingZScore(min_history=3, reset_on_epoch=False)
        events = []
        for i in range(4):
            events += det.observe(
                make_snapshot(iteration=i, duration_s=1.0, epoch=0)
            )
        events += det.observe(
            make_snapshot(iteration=4, duration_s=5.0, epoch=1)
        )
        assert [e.iteration for e in events] == [4]

    def test_window_is_bounded(self):
        det = RollingZScore(window=3, min_history=2)
        for i in range(10):
            det.observe(make_snapshot(iteration=i, duration_s=float(i)))
        assert len(det._history) == 3

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RollingZScore(window=1)
        with pytest.raises(ValueError):
            RollingZScore(min_history=1)


class TestHealthMonitorSynthetic:
    def test_one_snapshot_per_iteration(self):
        tracer = Tracer()
        monitor = HealthMonitor().attach(tracer)
        emit_synthetic_run(tracer, imbalances=(10.0, 20.0, 30.0))
        assert [s.iteration for s in monitor.snapshots] == [0, 1, 2]
        assert [s.imbalance_pct for s in monitor.snapshots] == [
            10.0, 20.0, 30.0,
        ]
        assert monitor.snapshots[0].run_label == "synthetic"

    def test_phase_breakdown_and_probe_fraction(self):
        tracer = Tracer()
        monitor = HealthMonitor().attach(tracer)
        emit_synthetic_run(tracer)
        first = monitor.snapshots[0]
        assert first.phase_seconds["compute"] == pytest.approx(1.4)
        assert first.phase_seconds["sync"] == pytest.approx(0.2)
        assert first.sensing_seconds_total == pytest.approx(0.5)
        assert first.probe_overhead_fraction == pytest.approx(0.5 / 1.5)
        assert first.capacities == (0.5, 0.5)
        # Staleness falls back to sim-time since the last sense closed.
        assert first.staleness_s == pytest.approx(1.0)

    def test_anomalies_reach_monitor_and_trace(self):
        tracer = Tracer()
        monitor = HealthMonitor().attach(tracer)
        emit_synthetic_run(tracer, imbalances=(10.0, 80.0, 15.0))
        kinds = {e.kind for e in monitor.events}
        assert "imbalance_bound" in kinds
        traced = [e for e in tracer.events if e.name == "health.imbalance_bound"]
        assert len(traced) == 1
        assert traced[0].attributes["severity"] == "critical"
        assert traced[0].attributes["iteration"] == 1

    def test_worst_imbalance_and_summary(self):
        tracer = Tracer()
        monitor = HealthMonitor().attach(tracer)
        emit_synthetic_run(tracer, imbalances=(10.0, 80.0, 15.0))
        assert monitor.worst_imbalance() == 80.0
        summary = monitor.summary()
        assert summary["num_snapshots"] == 3
        assert summary["imbalance_bound_pct"] == PAPER_IMBALANCE_BOUND_PCT
        assert summary["events_by_severity"].get("critical", 0) >= 1

    def test_finish_drains_unclosed_runs(self):
        tracer = Tracer()
        monitor = HealthMonitor().attach(tracer)
        tracer.begin_run("crashed")
        tracer.add_span("iteration", 0.0, 1.0, iteration=0)
        assert monitor.snapshots == []  # no run span closed yet
        monitor.finish()
        assert len(monitor.snapshots) == 1

    def test_attach_to_null_tracer_is_a_noop(self):
        monitor = HealthMonitor().attach(NULL_TRACER)
        assert monitor.snapshots == []

    def test_custom_detector_suite(self):
        tracer = Tracer()
        monitor = HealthMonitor(
            detectors=[ThresholdRule("imbalance_pct", 5.0, kind="tight")]
        ).attach(tracer)
        emit_synthetic_run(tracer, imbalances=(10.0, 20.0, 30.0))
        assert {e.kind for e in monitor.events} == {"tight"}
        assert len(monitor.events) == 3


class TestHealthMonitorLive:
    def test_snapshots_cover_every_iteration(self):
        tracer = Tracer()
        monitor = HealthMonitor().attach(tracer)
        result = make_runtime(tracer).run()
        assert len(monitor.snapshots) == result.iterations
        # After the first regrid the engine stamps health attributes.
        tail = monitor.snapshots[-1]
        assert tail.imbalance_pct is not None
        assert tail.staleness_s is not None
        assert tail.epoch is not None
        assert tail.phase_seconds.get("compute", 0.0) > 0.0

    def test_monitor_does_not_perturb_results(self):
        baseline = make_runtime(tracer=NULL_TRACER).run()
        tracer = Tracer()
        HealthMonitor().attach(tracer)
        observed = make_runtime(tracer).run()
        assert observed.total_seconds == baseline.total_seconds
        assert observed.iteration_times == baseline.iteration_times
        assert observed.migration_seconds == baseline.migration_seconds
        assert observed.sensing_seconds == baseline.sensing_seconds

    def test_offline_replay_matches_live_feed(self, tmp_path):
        tracer = Tracer()
        monitor = HealthMonitor().attach(tracer)
        make_runtime(tracer).run()

        path = tmp_path / "run.events.jsonl"
        write_jsonl(tracer, path)
        snapshots, events = analyze_records(
            load_trace_records(path), run_labels=tracer.run_labels
        )
        assert [s.to_dict() for s in snapshots] == [
            s.to_dict() for s in monitor.snapshots
        ]
        assert [e.to_dict() for e in events] == [
            e.to_dict() for e in monitor.events
        ]

    def test_two_runs_and_a_crashed_one_match_offline(self, tmp_path):
        # Live sync spans are buffered from the closing Span, offline
        # ones straight from the record: the two tuples must agree,
        # including for a sync span a crash left without an end.
        tracer = Tracer()
        monitor = HealthMonitor().attach(tracer)
        make_runtime(tracer).run()
        make_runtime(tracer, iterations=8).run()
        tracer.begin_run("crashed")
        tracer.add_span(
            "iteration", 0.0, 1.0, iteration=0, compute=[0.75, 0.0],
            comm=[0.0, 0.0],
        )  # fmt: skip
        unfinished = Span(
            name="sync", span_id=10**6, parent_id=None,
            pid=tracer.pid, start_wall=0.0, start_sim=0.5,
        )  # fmt: skip
        # What the tracer does on close, minus the end stamps.
        tracer.spans.append(unfinished)
        tracer._notify(unfinished)
        monitor.finish()

        path = tmp_path / "run.events.jsonl"
        write_jsonl(tracer, path)
        records = load_trace_records(path)
        assert any(
            r.get("end_sim") is None and r["name"] == "sync"
            for r in records
        )
        snapshots, events = analyze_records(
            records, run_labels=tracer.run_labels
        )
        assert len({s.pid for s in snapshots}) == 3
        assert [s.to_dict() for s in snapshots] == [
            s.to_dict() for s in monitor.snapshots
        ]
        assert [e.to_dict() for e in events] == [
            e.to_dict() for e in monitor.events
        ]
        crashed = snapshots[-1].phase_seconds
        assert crashed == {"compute": 0.75, "sync": 0.0}


class TestAnalyzeRecords:
    def test_empty_input(self):
        assert analyze_records([]) == ([], [])

    def test_non_span_records_are_skipped(self):
        records = [
            {"type": "event", "name": "cluster"},
            {
                "type": "span", "name": "iteration", "pid": 1,
                "start_sim": 0.0, "end_sim": 1.0,
                "attributes": {"iteration": 0},
            },
        ]
        snapshots, _ = analyze_records(records)
        assert len(snapshots) == 1

    def test_run_label_falls_back_to_partitioner_attribute(self):
        records = [
            {
                "type": "span", "name": "iteration", "pid": 1,
                "start_sim": 0.0, "end_sim": 1.0, "attributes": {},
            },
            {
                "type": "span", "name": "run", "pid": 1,
                "start_sim": 0.0, "end_sim": 1.0,
                "attributes": {"partitioner": "ACEHeterogeneous"},
            },
        ]
        snapshots, _ = analyze_records(records)
        assert snapshots[0].run_label == "ACEHeterogeneous"

    def test_detector_factory_gets_fresh_state_per_call(self):
        tracer = Tracer()
        emit_synthetic_run(tracer, imbalances=(80.0,))
        records = [s.to_dict() for s in tracer.spans]
        for _ in range(2):
            _, events = analyze_records(records, detectors=default_detectors)
            assert len([e for e in events if e.kind == "imbalance_bound"]) == 1
