"""A minimal discrete-event clock.

The runtime advances simulated time in two ways: by *elapsing* the duration
of a computation/communication phase, and by *firing* scheduled callbacks
(load-generator ramp milestones, injected failures).  :class:`SimClock`
supports both: ``advance(dt)`` and ``advance_to(t)`` move time forward and
run any events that fall inside the interval, in timestamp order.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable

from repro.util.errors import SimulationError

__all__ = ["SimClock"]


class SimClock:
    """Monotonic simulated clock with an event queue.

    Events are ``(time, callback)`` pairs; callbacks take the clock as their
    only argument and may schedule further events (at or after the event's
    own timestamp).
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._queue: list[tuple[float, int, Callable[["SimClock"], None]]] = []
        self._counter = itertools.count()  # FIFO tie-break for equal times
        self._advancing = False

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(self, when: float, callback: Callable[["SimClock"], None]) -> None:
        """Register ``callback`` to fire at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event at t={when} before now={self._now}"
            )
        heapq.heappush(self._queue, (float(when), next(self._counter), callback))

    def advance(self, dt: float) -> None:
        """Move time forward by ``dt`` seconds, firing due events in order."""
        if dt < 0:
            raise SimulationError(f"cannot advance time by negative dt={dt}")
        self.advance_to(self._now + dt)

    def advance_to(self, t: float) -> None:
        """Move time to absolute ``t``, firing due events in order.

        Event callbacks may :meth:`schedule` freely -- including at exactly
        the current timestamp, which fires later in the same sweep in FIFO
        order -- but must not call ``advance``/``advance_to`` themselves:
        a nested advance would fast-forward past events the outer sweep
        still owns and then yank time backwards when the outer loop resumes.
        """
        if self._advancing:
            raise SimulationError(
                "re-entrant advance: an event callback tried to move the "
                "clock; callbacks may only schedule() further events"
            )
        if not math.isfinite(t):
            raise SimulationError(f"cannot move time to non-finite t={t}")
        if t < self._now:
            raise SimulationError(
                f"cannot move time backwards: now={self._now}, target={t}"
            )
        self._advancing = True
        try:
            while self._queue and self._queue[0][0] <= t:
                when, _, callback = heapq.heappop(self._queue)
                self._now = when
                callback(self)
        finally:
            self._advancing = False
        self._now = t
