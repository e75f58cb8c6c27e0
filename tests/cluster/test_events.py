"""Tests for the discrete-event clock."""

from __future__ import annotations

import pytest

from repro.cluster.events import SimClock
from repro.util.errors import SimulationError


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(start=5.0).now == 5.0

    def test_advance(self):
        c = SimClock()
        c.advance(2.5)
        assert c.now == 2.5
        c.advance_to(10.0)
        assert c.now == 10.0

    def test_no_time_travel(self):
        c = SimClock()
        c.advance(5.0)
        with pytest.raises(SimulationError):
            c.advance(-1.0)
        with pytest.raises(SimulationError):
            c.advance_to(4.0)

    def test_events_fire_in_order(self):
        c = SimClock()
        fired: list[float] = []
        c.schedule(3.0, lambda clk: fired.append(clk.now))
        c.schedule(1.0, lambda clk: fired.append(clk.now))
        c.schedule(2.0, lambda clk: fired.append(clk.now))
        c.advance_to(5.0)
        assert fired == [1.0, 2.0, 3.0]
        assert c.now == 5.0

    def test_events_beyond_horizon_stay_queued(self):
        c = SimClock()
        fired = []
        c.schedule(10.0, lambda clk: fired.append(clk.now))
        c.advance_to(5.0)
        assert fired == []
        c.advance_to(10.0)
        assert fired == [10.0]

    def test_equal_time_events_fifo(self):
        c = SimClock()
        order = []
        c.schedule(1.0, lambda clk: order.append("a"))
        c.schedule(1.0, lambda clk: order.append("b"))
        c.advance_to(1.0)
        assert order == ["a", "b"]

    def test_callback_can_schedule_more(self):
        c = SimClock()
        fired = []

        def chain(clk: SimClock) -> None:
            fired.append(clk.now)
            if clk.now < 3.0:
                clk.schedule(clk.now + 1.0, chain)

        c.schedule(1.0, chain)
        c.advance_to(10.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_schedule_in_past_rejected(self):
        c = SimClock()
        c.advance(5.0)
        with pytest.raises(SimulationError):
            c.schedule(4.0, lambda clk: None)


class TestReentrantScheduling:
    """Callbacks may schedule() freely; they must never move the clock."""

    def test_callback_schedules_at_current_timestamp(self):
        """A same-timestamp schedule fires later in the same sweep."""
        c = SimClock()
        order = []

        def first(clk: SimClock) -> None:
            order.append("first")
            clk.schedule(clk.now, lambda _: order.append("nested"))

        c.schedule(1.0, first)
        c.schedule(1.0, lambda clk: order.append("second"))
        c.advance_to(1.0)
        # FIFO within the timestamp: the nested event queues behind the
        # already-scheduled "second", not in front of it.
        assert order == ["first", "second", "nested"]

    def test_nested_same_time_chain_terminates_sweep(self):
        """Each nested schedule at t=now still fires within one advance."""
        c = SimClock()
        fired = []

        def chain(clk: SimClock) -> None:
            fired.append(len(fired))
            if len(fired) < 5:
                clk.schedule(clk.now, chain)

        c.schedule(2.0, chain)
        c.advance_to(2.0)
        assert fired == [0, 1, 2, 3, 4]

    def test_advance_from_callback_raises(self):
        c = SimClock()
        errors = []

        def bad(clk: SimClock) -> None:
            try:
                clk.advance(1.0)
            except SimulationError as exc:
                errors.append(str(exc))

        c.schedule(1.0, bad)
        c.advance_to(2.0)
        assert len(errors) == 1
        assert "re-entrant advance" in errors[0]

    def test_advance_to_from_callback_raises(self):
        c = SimClock()
        with pytest.raises(SimulationError, match="re-entrant advance"):
            c.schedule(1.0, lambda clk: clk.advance_to(5.0))
            c.advance_to(2.0)

    def test_clock_usable_after_reentrancy_error(self):
        """The guard resets: a failed sweep does not wedge the clock."""
        c = SimClock()
        c.schedule(1.0, lambda clk: clk.advance(1.0))
        with pytest.raises(SimulationError):
            c.advance_to(2.0)
        fired = []
        c.schedule(3.0, lambda clk: fired.append(clk.now))
        c.advance_to(4.0)
        assert fired == [3.0]
        assert c.now == 4.0
