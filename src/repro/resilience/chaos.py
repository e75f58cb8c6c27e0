"""Declarative, seeded fault injection on the simulated clock.

A :class:`FaultPlan` is data, not code: an ordered tuple of
:class:`FaultEvent` records saying *what* happens to *which* node *when*.
The :class:`FaultInjector` arms a plan by scheduling one callback per event
on the cluster's :class:`~repro.cluster.events.SimClock`; because the clock
is deterministic and the plan is immutable, a chaos run replays bit-for-bit
-- the same property :class:`~repro.cluster.loadgen.SyntheticLoadGenerator`
gives the paper's load dynamics.

Fault kinds
-----------
``node_crash`` / ``node_recover``
    The node leaves / rejoins the cluster (zero CPU/memory/bandwidth while
    down; probes fail; collectives shrink around it).
``sensor_blackout`` / ``sensor_restore``
    The node keeps computing but its monitor sensors stop answering --
    the monitor carries its last reading forward (a stale node) without
    any real capacity change.
``link_degrade`` / ``link_restore``
    The node's NIC is derated to ``factor`` of its deliverable bandwidth
    (flaky switch port, congested uplink).

Every applied event is mirrored onto the telemetry stream as a ``fault.*``
or ``recovery.*`` instant event, which the health monitor and the HTML
dashboard render.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.cluster.cluster import Cluster
from repro.util.errors import ResilienceError
from repro.util.rng import make_rng

__all__ = ["FAULT_KINDS", "FaultEvent", "FaultInjector", "FaultPlan"]

#: kind -> (telemetry event name, needs_factor)
FAULT_KINDS: dict[str, tuple[str, bool]] = {
    "node_crash": ("fault.node_crash", False),
    "node_recover": ("recovery.node_up", False),
    "sensor_blackout": ("fault.sensor_blackout", False),
    "sensor_restore": ("recovery.sensor_restored", False),
    "link_degrade": ("fault.link_degraded", True),
    "link_restore": ("recovery.link_restored", False),
}


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One scheduled disturbance."""

    time: float
    kind: str
    node: int
    factor: float = 1.0  # link_degrade only: residual bandwidth fraction

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ResilienceError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(FAULT_KINDS)}"
            )
        if self.time < 0:
            raise ResilienceError(f"fault time must be >= 0, got {self.time}")
        if self.node < 0:
            raise ResilienceError(f"fault node must be >= 0, got {self.node}")
        if self.kind == "link_degrade" and not 0.0 < self.factor <= 1.0:
            raise ResilienceError(
                f"link_degrade factor must be in (0, 1], got {self.factor}"
            )


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """An immutable, replayable schedule of disturbances."""

    events: tuple[FaultEvent, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def validate(self, num_nodes: int) -> None:
        """Check every event targets a node the cluster actually has."""
        for ev in self.events:
            if ev.node >= num_nodes:
                raise ResilienceError(
                    f"fault plan targets node {ev.node}, cluster has "
                    f"{num_nodes} nodes"
                )

    @property
    def horizon(self) -> float:
        """Latest event timestamp (0.0 for an empty plan)."""
        return max((ev.time for ev in self.events), default=0.0)

    def kinds(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out

    # -- builders ------------------------------------------------------
    @classmethod
    def node_outage(
        cls,
        nodes: Iterable[int],
        at: float,
        duration: float | None = None,
        seed: int = 0,
    ) -> "FaultPlan":
        """Crash ``nodes`` at ``at``; recover them ``duration`` later
        (never, if ``duration`` is ``None``)."""
        events: list[FaultEvent] = []
        for node in nodes:
            events.append(FaultEvent(time=at, kind="node_crash", node=node))
            if duration is not None:
                if duration <= 0:
                    raise ResilienceError(
                        f"outage duration must be > 0, got {duration}"
                    )
                events.append(
                    FaultEvent(
                        time=at + duration, kind="node_recover", node=node
                    )
                )
        return cls(events=tuple(sorted(events, key=lambda e: e.time)), seed=seed)

    @classmethod
    def random(
        cls,
        num_nodes: int,
        horizon_s: float,
        seed: int = 0,
        num_crashes: int = 1,
        num_blackouts: int = 1,
        num_link_faults: int = 1,
        outage_fraction: tuple[float, float] = (0.2, 0.4),
        blackout_fraction: tuple[float, float] = (0.05, 0.15),
        derate_range: tuple[float, float] = (0.1, 0.5),
    ) -> "FaultPlan":
        """A seeded random plan: crashes, blackouts and link derating.

        Crash targets are distinct nodes and at most ``num_nodes - 1`` of
        them, so at least one survivor always exists.  Every outage and
        blackout recovers within the horizon.
        """
        if num_nodes < 1:
            raise ResilienceError(f"need >= 1 node, got {num_nodes}")
        if horizon_s <= 0:
            raise ResilienceError(f"horizon must be > 0, got {horizon_s}")
        num_crashes = min(num_crashes, num_nodes - 1)
        rng = make_rng(seed)
        events: list[FaultEvent] = []
        crash_targets = (
            [int(x) for x in rng.choice(num_nodes, num_crashes, replace=False)]
            if num_crashes > 0
            else []
        )
        for node in crash_targets:
            start = float(rng.uniform(0.1, 0.5)) * horizon_s
            dur = float(rng.uniform(*outage_fraction)) * horizon_s
            events.append(FaultEvent(time=start, kind="node_crash", node=node))
            events.append(
                FaultEvent(
                    time=min(start + dur, 0.95 * horizon_s),
                    kind="node_recover",
                    node=node,
                )
            )
        for _ in range(num_blackouts):
            node = int(rng.integers(0, num_nodes))
            start = float(rng.uniform(0.1, 0.8)) * horizon_s
            dur = float(rng.uniform(*blackout_fraction)) * horizon_s
            events.append(
                FaultEvent(time=start, kind="sensor_blackout", node=node)
            )
            events.append(
                FaultEvent(
                    time=min(start + dur, 0.98 * horizon_s),
                    kind="sensor_restore",
                    node=node,
                )
            )
        for _ in range(num_link_faults):
            node = int(rng.integers(0, num_nodes))
            start = float(rng.uniform(0.1, 0.8)) * horizon_s
            dur = float(rng.uniform(*blackout_fraction)) * horizon_s
            factor = float(rng.uniform(*derate_range))
            events.append(
                FaultEvent(
                    time=start, kind="link_degrade", node=node, factor=factor
                )
            )
            events.append(
                FaultEvent(
                    time=min(start + dur, 0.98 * horizon_s),
                    kind="link_restore",
                    node=node,
                )
            )
        events.sort(key=lambda e: (e.time, e.node, e.kind))
        return cls(events=tuple(events), seed=seed)


class FaultInjector:
    """Applies a :class:`FaultPlan` to a cluster (and optionally a monitor).

    Arm once; the injector schedules every event on the cluster clock and
    mutates cluster/monitor state as simulated time reaches each event.
    ``applied`` records ``(time, kind, node)`` for post-run reporting.
    """

    def __init__(self, cluster: Cluster, monitor=None, tracer=None):
        self.cluster = cluster
        self.monitor = monitor
        self._tracer = tracer
        self.plan: FaultPlan | None = None
        self.applied: list[tuple[float, str, int]] = []

    @property
    def tracer(self):
        return self._tracer if self._tracer is not None else self.cluster.tracer

    def arm(self, plan: FaultPlan) -> None:
        """Schedule every event of ``plan`` on the cluster clock."""
        if self.plan is not None:
            raise ResilienceError(
                "injector already armed; build a fresh injector per plan"
            )
        plan.validate(self.cluster.num_nodes)
        now = self.cluster.clock.now
        for ev in plan.events:
            if ev.time < now:
                raise ResilienceError(
                    f"fault at t={ev.time} is in the past (now={now})"
                )
        self.plan = plan
        for ev in plan.events:
            self.cluster.clock.schedule(
                ev.time, lambda _clock, e=ev: self._apply(e)
            )

    # -- event application --------------------------------------------
    def _apply(self, ev: FaultEvent) -> None:
        if ev.kind == "node_crash":
            self.cluster.mark_down(ev.node)
        elif ev.kind == "node_recover":
            self.cluster.mark_up(ev.node)
        elif ev.kind == "sensor_blackout":
            if self.monitor is not None:
                self.monitor.blackout_sensor(ev.node)
        elif ev.kind == "sensor_restore":
            if self.monitor is not None:
                self.monitor.restore_sensor(ev.node)
        elif ev.kind == "link_degrade":
            self.cluster.degrade_link(ev.node, ev.factor)
        elif ev.kind == "link_restore":
            self.cluster.restore_link(ev.node)
        self.applied.append((self.cluster.clock.now, ev.kind, ev.node))
        name, needs_factor = FAULT_KINDS[ev.kind]
        attrs = {"node": ev.node, "plan_seed": self.plan.seed}
        if needs_factor:
            attrs["factor"] = ev.factor
        self.tracer.event(name, **attrs)
