"""Tests for the tracer and span model."""

from __future__ import annotations

import pytest

from repro.telemetry import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    activate,
    get_active_tracer,
)


class FakeClock:
    """Deterministic wall/sim clock for span assertions."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def tick(self, dt: float = 1.0) -> None:
        self.t += dt


class TestSpans:
    def test_span_records_both_clocks(self):
        wall, sim = FakeClock(), FakeClock()
        tracer = Tracer(sim_clock=sim, wall_clock=wall)
        with tracer.span("sense") as span:
            wall.tick(0.25)
            sim.tick(2.0)
        assert span.wall_duration == pytest.approx(0.25)
        assert span.sim_duration == pytest.approx(2.0)
        assert tracer.spans == [span]

    def test_nesting_sets_parent_ids(self):
        tracer = Tracer()
        with tracer.span("run") as run:
            with tracer.span("sense") as sense:
                with tracer.span("capacity") as cap:
                    pass
            with tracer.span("partition") as part:
                pass
        assert run.parent_id is None
        assert sense.parent_id == run.span_id
        assert cap.parent_id == sense.span_id
        assert part.parent_id == run.span_id
        # Finished innermost-first.
        assert [s.name for s in tracer.spans] == [
            "capacity", "sense", "partition", "run",
        ]

    def test_attributes_and_set(self):
        tracer = Tracer()
        with tracer.span("migrate", epoch=3) as span:
            span.set(bytes=1024, node=2)
        assert span.attributes == {"epoch": 3, "bytes": 1024, "node": 2}

    def test_exception_marks_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("partition"):
                raise ValueError("boom")
        (span,) = tracer.spans
        assert span.attributes["error"] == "ValueError"
        assert span.end_wall is not None

    def test_add_span_records_simulated_interval(self):
        tracer = Tracer()
        span = tracer.add_span("compute", 10.0, 12.5, rank=3, iteration=7)
        assert span.sim_duration == pytest.approx(2.5)
        assert span.rank == 3
        assert span.wall_duration == 0.0

    def test_events(self):
        sim = FakeClock()
        tracer = Tracer(sim_clock=sim)
        sim.tick(5.0)
        tracer.event("load_generator", node=1, target_level=2.0)
        (event,) = tracer.events
        assert event.sim == pytest.approx(5.0)
        assert event.attributes["node"] == 1

    def test_begin_run_partitions_pids(self):
        tracer = Tracer()
        assert tracer.begin_run("first") == 1
        tracer.add_span("a", 0.0, 1.0)
        assert tracer.begin_run("second") == 2
        tracer.add_span("b", 0.0, 1.0)
        by_name = {s.name: s.pid for s in tracer.spans}
        assert by_name == {"a": 1, "b": 2}
        assert tracer.run_labels == {1: "first", 2: "second"}


class TestNullTracer:
    def test_span_returns_shared_singleton(self):
        a = NULL_TRACER.span("sense", rank=1, epoch=2)
        b = NULL_TRACER.span("compute")
        assert a is b  # no allocation per call
        with a as span:
            span.set(bytes=1)  # no-op, no error

    def test_records_nothing(self):
        tracer = NullTracer()
        tracer.event("x")
        tracer.add_span("y", 0.0, 1.0)
        assert len(tracer) == 0
        assert not tracer.enabled
        assert tracer.begin_run("label") == 0

    def test_null_metrics_are_noops(self):
        NULL_TRACER.metrics.counter("c").inc(5)
        NULL_TRACER.metrics.gauge("g", node=1).set(2.0)
        NULL_TRACER.metrics.histogram("h").observe(1.0)
        assert NULL_TRACER.metrics.summary() == {}


class TestActivation:
    def test_default_is_null(self):
        assert get_active_tracer() is NULL_TRACER

    def test_activate_scopes_the_tracer(self):
        tracer = Tracer()
        with activate(tracer) as active:
            assert active is tracer
            assert get_active_tracer() is tracer
            inner = Tracer()
            with activate(inner):
                assert get_active_tracer() is inner
            assert get_active_tracer() is tracer
        assert get_active_tracer() is NULL_TRACER

    def test_activation_pops_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with activate(tracer):
                raise RuntimeError
        assert get_active_tracer() is NULL_TRACER


class TestObservers:
    def test_observer_sees_closed_span(self):
        tracer = Tracer()
        seen = []
        tracer.add_observer(lambda s: seen.append((s.name, s.end_wall)))
        with tracer.span("sense"):
            pass
        assert seen and seen[0][0] == "sense"
        assert seen[0][1] is not None  # delivered after end stamped

    def test_duplicate_registration_is_ignored(self):
        tracer = Tracer()
        seen = []

        def cb(span):
            seen.append(span.name)

        tracer.add_observer(cb)
        tracer.add_observer(cb)
        tracer.add_span("compute", 0.0, 1.0)
        assert seen == ["compute"]  # once per span, not per registration

    def test_remove_unknown_observer_is_ignored(self):
        Tracer().remove_observer(lambda s: None)

    def test_observer_unsubscribing_itself_mid_notify(self):
        # A one-shot observer must not make its *successor* miss the
        # span it was registered for: _notify iterates a snapshot.
        tracer = Tracer()
        seen_first, seen_second = [], []

        def one_shot(span):
            seen_first.append(span.name)
            tracer.remove_observer(one_shot)

        def second(span):
            seen_second.append(span.name)

        tracer.add_observer(one_shot)
        tracer.add_observer(second)
        tracer.add_span("compute", 0.0, 1.0)
        tracer.add_span("sync", 1.0, 2.0)
        assert seen_first == ["compute"]  # fired once, then gone
        assert seen_second == ["compute", "sync"]  # missed nothing

    def test_observer_removing_a_peer_mid_notify(self):
        tracer = Tracer()
        calls = []

        def assassin(span):
            calls.append("assassin")
            tracer.remove_observer(victim)

        def victim(span):
            calls.append("victim")

        tracer.add_observer(assassin)
        tracer.add_observer(victim)
        tracer.add_span("compute", 0.0, 1.0)
        # The victim still sees the span whose notify already started.
        assert calls == ["assassin", "victim"]
        tracer.add_span("sync", 1.0, 2.0)
        assert calls == ["assassin", "victim", "assassin"]


class TestNullSpan:
    def test_attribute_surface_matches_real_span(self):
        span = NULL_TRACER.span("anything")
        assert span.name == "null"
        assert span.span_id == 0
        assert span.parent_id is None
        assert span.pid == 0
        assert span.rank is None
        assert span.attributes == {}
        assert span.wall_duration == 0.0
        assert span.sim_duration == 0.0

    def test_set_is_a_noop_and_leaks_nothing(self):
        span = NULL_TRACER.span("a")
        span.set(bytes=123, iteration=7)
        assert span.attributes == {}  # shared dict must stay empty
        # The singleton is shared: a second handle must be unaffected.
        assert NULL_TRACER.add_span("b", 0.0, 1.0).attributes == {}

    def test_context_manager_reraises(self):
        with pytest.raises(KeyError):
            with NULL_TRACER.span("x"):
                raise KeyError("propagates through the null span")
