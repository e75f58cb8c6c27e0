"""Structured tracing: nested phase spans over two clocks.

A :class:`Tracer` records what the adaptive runtime *does* -- sense,
capacity, partition, migrate, ghost-exchange, compute, sync -- as nested
:class:`Span` records.  Every span carries two durations:

- **wall clock** (``time.perf_counter``): what the framework itself costs
  on the host running the simulation -- partitioner CPU time, monitor
  bookkeeping;
- **simulated cluster clock** (the :class:`~repro.cluster.events.SimClock`
  the tracer is bound to): what the phase costs the modelled application --
  probe overhead, migration transfer time, iteration makespan.

Spans also carry structured attributes (node id, epoch, bytes, imbalance)
and an optional ``rank``, which the Chrome-trace exporter turns into one
track per simulated rank.

The default tracer everywhere is :data:`NULL_TRACER`, whose ``span()``
returns one shared no-op context manager -- hot paths pay one attribute
lookup and one method call, nothing else, and behaviour is bit-identical
to uninstrumented code.  An enabled tracer is either passed explicitly to
the runtime classes or installed for a block via :func:`activate` (how the
``repro trace`` CLI instruments experiment builders it does not own).

Consumers that want to *interpret* the trace while it is being recorded
(the health monitor in :mod:`repro.telemetry.analysis`) subscribe through
:meth:`Tracer.add_observer`: every span is delivered to each observer
exactly once, at the moment it closes.  With no observers registered the
close path pays a single truthiness check on an empty list.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.telemetry.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullMetricsRegistry,
)

__all__ = [
    "Span",
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_active_tracer",
    "activate",
]


@dataclass(slots=True)
class Span:
    """One completed (or in-flight) phase."""

    name: str
    span_id: int
    parent_id: int | None
    pid: int  # run/process group (one per `Tracer.begin_run`)
    start_wall: float
    start_sim: float
    end_wall: float | None = None
    end_sim: float | None = None
    rank: int | None = None  # simulated rank; None = runtime control track
    attributes: dict[str, Any] = field(default_factory=dict)

    def set(self, **attrs: Any) -> None:
        """Attach structured attributes to the span."""
        self.attributes.update(attrs)

    @property
    def wall_duration(self) -> float:
        return 0.0 if self.end_wall is None else self.end_wall - self.start_wall

    @property
    def sim_duration(self) -> float:
        return 0.0 if self.end_sim is None else self.end_sim - self.start_sim

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": self.pid,
            "rank": self.rank,
            "start_wall": self.start_wall,
            "end_wall": self.end_wall,
            "start_sim": self.start_sim,
            "end_sim": self.end_sim,
            "attributes": self.attributes,
        }


@dataclass(slots=True)
class TraceEvent:
    """An instant (zero-duration) event, e.g. "load generator attached"."""

    name: str
    wall: float
    sim: float
    pid: int
    rank: int | None = None
    attributes: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "event",
            "name": self.name,
            "pid": self.pid,
            "rank": self.rank,
            "wall": self.wall,
            "sim": self.sim,
            "attributes": self.attributes,
        }


class _ActiveSpan:
    """Context manager handed out by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span

    def set(self, **attrs: Any) -> None:
        self.span.set(**attrs)

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.span.attributes.setdefault("error", exc_type.__name__)
        self._tracer._finish(self.span)
        return False


class Tracer:
    """Collects spans and events; owns a :class:`MetricsRegistry`.

    Parameters
    ----------
    sim_clock:
        Zero-argument callable returning the current simulated time.  The
        runtime binds its cluster's clock at the start of each run via
        :meth:`begin_run`; unbound tracers record simulated time 0.
    metrics:
        Registry to record quantitative telemetry into (a fresh
        :class:`MetricsRegistry` by default).
    wall_clock:
        Host-time source, injectable for deterministic tests.
    """

    enabled = True

    def __init__(
        self,
        sim_clock: Callable[[], float] | None = None,
        metrics: MetricsRegistry | None = None,
        wall_clock: Callable[[], float] = time.perf_counter,
    ):
        self._sim_clock = sim_clock
        self._wall = wall_clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans: list[Span] = []
        self.events: list[TraceEvent] = []
        self._stack: list[Span] = []
        self._next_id = 1
        self.pid = 0
        self.run_labels: dict[int, str] = {}
        self._observers: list[Callable[[Span], None]] = []

    # ------------------------------------------------------------------
    def _sim_now(self) -> float:
        return self._sim_clock() if self._sim_clock is not None else 0.0

    def bind_sim_clock(self, sim_clock: Callable[[], float] | None) -> None:
        """Point the simulated-time column at a (new) clock source."""
        self._sim_clock = sim_clock

    def begin_run(
        self,
        label: str,
        sim_clock: Callable[[], float] | None = None,
    ) -> int:
        """Open a new process group (one experiment may trace many runs).

        Returns the group's ``pid``; subsequent spans land in it.  Chrome
        exporters show each group as its own named process, so runs whose
        simulated clocks all start at zero do not overlap on screen.
        """
        self.pid += 1
        self.run_labels[self.pid] = label
        if sim_clock is not None:
            self._sim_clock = sim_clock
        return self.pid

    # ------------------------------------------------------------------
    def add_observer(self, callback: Callable[[Span], None]) -> None:
        """Deliver every span to ``callback`` the moment it closes.

        Observers fire after the span's end times are stamped and after it
        lands in :attr:`spans`, so a callback sees the finished record.  A
        callback may call :meth:`event` (health monitors annotate the trace
        this way) but must not open spans, which would corrupt the stack.
        """
        if callback not in self._observers:
            self._observers.append(callback)

    def remove_observer(self, callback: Callable[[Span], None]) -> None:
        """Unsubscribe; unknown callbacks are ignored."""
        try:
            self._observers.remove(callback)
        except ValueError:
            pass

    def _notify(self, span: Span) -> None:
        # Iterate a snapshot: a callback may unsubscribe itself (or others)
        # mid-notify, and mutating the live list would skip the observer
        # registered after it for this span.
        for callback in tuple(self._observers):
            callback(span)

    # ------------------------------------------------------------------
    def span(self, name: str, rank: int | None = None, **attrs: Any) -> _ActiveSpan:
        """Open a nested span; use as a context manager."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent,
            pid=self.pid,
            start_wall=self._wall(),
            start_sim=self._sim_now(),
            rank=rank,
            attributes=dict(attrs),
        )
        self._next_id += 1
        self._stack.append(span)
        return _ActiveSpan(self, span)

    def _finish(self, span: Span) -> None:
        span.end_wall = self._wall()
        span.end_sim = self._sim_now()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # tolerate out-of-order exits
            self._stack.remove(span)
        self.spans.append(span)
        if self._observers:
            self._notify(span)

    def add_span(
        self,
        name: str,
        start_sim: float,
        end_sim: float,
        rank: int | None = None,
        **attrs: Any,
    ) -> Span:
        """Record a completed span over *simulated* time directly.

        The runtime prices a whole iteration at once, then knows exactly
        when each rank's compute/ghost-exchange phase started and ended on
        the simulated clock -- those intervals arrive here rather than
        through enter/exit pairs.  Wall time is a point (now) since no host
        work corresponds to the interval.
        """
        now = self._wall()
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent,
            pid=self.pid,
            start_wall=now,
            start_sim=float(start_sim),
            end_wall=now,
            end_sim=float(end_sim),
            rank=rank,
            attributes=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(span)
        if self._observers:
            self._notify(span)
        return span

    def event(self, name: str, rank: int | None = None, **attrs: Any) -> None:
        """Record an instant event at the current clocks."""
        self.events.append(
            TraceEvent(
                name=name,
                wall=self._wall(),
                sim=self._sim_now(),
                pid=self.pid,
                rank=rank,
                attributes=dict(attrs),
            )
        )

    # ------------------------------------------------------------------
    def spans_named(self, name: str) -> Iterator[Span]:
        return (s for s in self.spans if s.name == name)

    def __len__(self) -> int:
        return len(self.spans)


class _NullSpan:
    """Shared no-op span/context-manager."""

    __slots__ = ()

    name = "null"
    span_id = 0
    parent_id = None
    pid = 0
    rank = None
    attributes: dict[str, Any] = {}
    wall_duration = 0.0
    sim_duration = 0.0

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Do-nothing tracer: the default wherever a tracer is injectable.

    All methods return shared singletons or ``None``; no allocation happens
    per call, so leaving instrumentation in place costs hot paths nothing.
    """

    enabled = False
    pid = 0
    spans: tuple = ()
    events: tuple = ()
    run_labels: dict[int, str] = {}
    metrics: NullMetricsRegistry = NULL_REGISTRY

    def bind_sim_clock(self, sim_clock: Callable[[], float] | None) -> None:
        pass

    def add_observer(self, callback: Callable[[Span], None]) -> None:
        pass

    def remove_observer(self, callback: Callable[[Span], None]) -> None:
        pass

    def begin_run(
        self, label: str, sim_clock: Callable[[], float] | None = None
    ) -> int:
        return 0

    def span(self, name: str, rank: int | None = None, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def add_span(
        self,
        name: str,
        start_sim: float,
        end_sim: float,
        rank: int | None = None,
        **attrs: Any,
    ) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, rank: int | None = None, **attrs: Any) -> None:
        pass

    def spans_named(self, name: str) -> Iterator[Span]:
        return iter(())

    def __len__(self) -> int:
        return 0


#: Process-wide shared no-op tracer.
NULL_TRACER = NullTracer()

# Active-tracer stack: `activate` pushes an enabled tracer for a block so
# code that builds its own runtimes (experiment builders, examples) picks
# it up without plumbing a parameter through every signature.
_ACTIVE: list[Tracer | NullTracer] = [NULL_TRACER]


def get_active_tracer() -> Tracer | NullTracer:
    """The innermost tracer installed by :func:`activate` (default no-op)."""
    return _ACTIVE[-1]


class _Activation:
    __slots__ = ("_tracer",)

    def __init__(self, tracer: Tracer | NullTracer):
        self._tracer = tracer

    def __enter__(self) -> Tracer | NullTracer:
        _ACTIVE.append(self._tracer)
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> bool:
        _ACTIVE.pop()
        return False


def activate(tracer: Tracer | NullTracer) -> _Activation:
    """Install ``tracer`` as the ambient default within a ``with`` block."""
    return _Activation(tracer)
