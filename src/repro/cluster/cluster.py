"""The cluster facade: nodes + load generators + clock + link model.

A :class:`Cluster` answers one question for the rest of the system: *what is
the resource state of node k at simulated time t?*  State is a pure function
of time (all dynamics come from deterministic load generators), which gives
the controlled, replayable environment of the paper's evaluation: comparing
two partitioners re-runs the *same* cluster object trajectory.

Presets reproduce the paper's setups:

- :func:`Cluster.paper_four_node` -- 4 nodes, two of them loaded, tuned so
  the equal-weight relative capacities come out ~16 / 19 / 31 / 34 %
  (sections 6.1.3 and 6.2.2);
- :func:`Cluster.paper_linux_cluster` -- the 32-node Fast-Ethernet cluster
  with synthetic loads on a subset of nodes (section 6.2.1), truncatable to
  any processor count;
- :func:`Cluster.homogeneous` / :func:`Cluster.heterogeneous` -- generic
  builders for tests and ablations.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.cluster.events import SimClock
from repro.cluster.loadgen import SyntheticLoadGenerator, cpu_share_under_load
from repro.cluster.network import LinkModel
from repro.cluster.node import NodeSpec, NodeState
from repro.telemetry.spans import NULL_TRACER
from repro.util.errors import SimulationError
from repro.util.rng import make_rng

__all__ = ["Cluster"]

#: Memory the OS and resident daemons pin on every node (MB).
OS_BASE_MEMORY_MB = 64.0


class Cluster:
    """A simulated heterogeneous cluster.

    Parameters
    ----------
    nodes:
        Static node specifications.
    link:
        Interconnect cost model shared by all node pairs.
    load_generators:
        Synthetic load sources; more can be attached later with
        :meth:`add_load_generator`.
    """

    def __init__(
        self,
        nodes: Sequence[NodeSpec],
        link: LinkModel | None = None,
        load_generators: Iterable[SyntheticLoadGenerator] = (),
    ):
        self.nodes: tuple[NodeSpec, ...] = tuple(nodes)
        if not self.nodes:
            raise SimulationError("a cluster needs at least one node")
        self.link = link if link is not None else LinkModel()
        self.clock = SimClock()
        self.tracer = NULL_TRACER
        self._generators: list[SyntheticLoadGenerator] = []
        # Columnar generator table (node / start / stop / rate / target /
        # memory / bandwidth columns), rebuilt lazily after attachment.
        # Every state query evaluates all ramps in one vectorized pass and
        # scatters them per node with ``np.bincount`` -- the per-node
        # Python generator walks this replaces were the last linear scans
        # on the sensing path.
        self._gen_columns_cache: tuple[np.ndarray, ...] | None = None
        # Static per-node spec columns for vectorized speed queries.
        self._cpu_speed = np.array([s.cpu_speed for s in self.nodes])
        self._os_overhead = np.array([s.os_overhead for s in self.nodes])
        self._nic_mbps = np.array([s.bandwidth_mbps for s in self.nodes])
        #: node -> sim time it went down (absent = up)
        self._down_since: dict[int, float] = {}
        #: node -> multiplicative NIC derating in (0, 1] (absent = 1.0)
        self._link_derate: dict[int, float] = {}
        for g in load_generators:
            self.add_load_generator(g)

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def attach_tracer(self, tracer) -> None:
        """Route cluster topology/load events onto ``tracer``.

        Emits one ``cluster`` event describing the static topology and one
        ``load_generator`` event per already-attached generator; generators
        added later emit their event at attach time.
        """
        self.tracer = tracer
        tracer.event(
            "cluster",
            num_nodes=self.num_nodes,
            num_load_generators=len(self._generators),
            nodes=[spec.name for spec in self.nodes],
        )
        for g in self._generators:
            self._trace_generator(g)

    def _trace_generator(self, gen: SyntheticLoadGenerator) -> None:
        self.tracer.event(
            "load_generator",
            node=gen.node,
            start_time=gen.start_time,
            target_level=gen.target_level,
        )

    def add_load_generator(self, gen: SyntheticLoadGenerator) -> None:
        if not 0 <= gen.node < self.num_nodes:
            raise SimulationError(
                f"load generator targets node {gen.node}, cluster has "
                f"{self.num_nodes} nodes"
            )
        self._generators.append(gen)
        self._gen_columns_cache = None
        if self.tracer.enabled:
            self._trace_generator(gen)

    @property
    def load_generators(self) -> tuple[SyntheticLoadGenerator, ...]:
        return tuple(self._generators)

    # ------------------------------------------------------------------
    # Node lifecycle (resilience)
    # ------------------------------------------------------------------
    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise SimulationError(f"unknown node index {node}")

    def is_up(self, node: int) -> bool:
        """Whether ``node`` is currently alive (default: yes)."""
        self._check_node(node)
        return node not in self._down_since

    def mark_down(self, node: int) -> None:
        """Take ``node`` out of service (crash/eviction).

        A down node has zero CPU availability, memory and bandwidth; its
        probes fail and the time model refuses to schedule work on it.
        Marking an already-down node is a no-op (idempotent, so an
        injected crash racing an eviction does not error).
        """
        self._check_node(node)
        self._down_since.setdefault(node, self.clock.now)

    def mark_up(self, node: int) -> None:
        """Return ``node`` to service; idempotent like :meth:`mark_down`."""
        self._check_node(node)
        self._down_since.pop(node, None)

    def down_since(self, node: int) -> float | None:
        """Sim time ``node`` went down, or ``None`` if it is up."""
        self._check_node(node)
        return self._down_since.get(node)

    @property
    def down_nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self._down_since))

    @property
    def live_nodes(self) -> tuple[int, ...]:
        return tuple(
            k for k in range(self.num_nodes) if k not in self._down_since
        )

    def live_mask(self) -> np.ndarray:
        """Boolean per-node liveness vector."""
        mask = np.ones(self.num_nodes, dtype=bool)
        for k in self._down_since:
            mask[k] = False
        return mask

    def degrade_link(self, node: int, factor: float) -> None:
        """Derate ``node``'s NIC to ``factor`` of its deliverable bandwidth
        (a flaky switch port, a congested uplink)."""
        self._check_node(node)
        if not 0.0 < factor <= 1.0:
            raise SimulationError(
                f"link derating factor must be in (0, 1], got {factor}"
            )
        self._link_derate[node] = float(factor)

    def restore_link(self, node: int) -> None:
        """Lift any NIC derating on ``node``; idempotent."""
        self._check_node(node)
        self._link_derate.pop(node, None)

    def link_derate(self, node: int) -> float:
        self._check_node(node)
        return self._link_derate.get(node, 1.0)

    # ------------------------------------------------------------------
    def _gen_columns(self) -> tuple[np.ndarray, ...]:
        """Generator table as columns (rebuilt after attachments)."""
        cols = self._gen_columns_cache
        if cols is None:
            gens = self._generators
            cols = (
                np.array([g.node for g in gens], dtype=np.intp),
                np.array([g.start_time for g in gens], dtype=float),
                np.array(
                    [
                        np.inf if g.stop_time is None else g.stop_time
                        for g in gens
                    ],
                    dtype=float,
                ),
                np.array([g.ramp_rate for g in gens], dtype=float),
                np.array([g.target_level for g in gens], dtype=float),
                np.array([g.memory_per_unit_mb for g in gens], dtype=float),
                np.array(
                    [g.bandwidth_fraction_per_unit for g in gens],
                    dtype=float,
                ),
            )
            self._gen_columns_cache = cols
        return cols

    def _node_sums(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(load level, memory MB, NIC fraction) consumed per node at ``t``.

        All ramps are evaluated in one vectorized pass over the generator
        columns; per-node totals come from ``np.bincount``, whose in-order
        accumulation reproduces the old per-node Python sums bit for bit.
        """
        node, start, stop, rate, target, mem, bw = self._gen_columns()
        n = self.num_nodes
        if not node.size:
            zeros = np.zeros(n)
            return zeros, zeros, zeros
        active = (t >= start) & (t < stop)
        lvl = np.where(active, np.minimum(target, rate * (t - start)), 0.0)
        load = np.bincount(node, weights=lvl, minlength=n)
        mem_used = np.bincount(node, weights=lvl * mem, minlength=n)
        bw_used = np.bincount(node, weights=lvl * bw, minlength=n)
        return load, mem_used, bw_used

    def load_level(self, node: int, t: float | None = None) -> float:
        """Total synthetic load on ``node`` at time ``t`` (default: now)."""
        self._check_node(node)
        t = self.clock.now if t is None else t
        return float(self._node_sums(t)[0][node])

    def _state_at(
        self, node: int, level: float, mem_used: float, bw_used: float
    ) -> NodeState:
        if node in self._down_since:
            # A crashed node delivers nothing -- no CPU, no memory, no NIC.
            return NodeState(
                cpu_available=0.0,
                free_memory_mb=0.0,
                bandwidth_mbps=0.0,
                load_level=level,
            )
        spec = self.nodes[node]
        mem_total = OS_BASE_MEMORY_MB + mem_used
        bw_share = max(0.05, 1.0 - bw_used)  # >= 5% stays deliverable
        bw_share *= self._link_derate.get(node, 1.0)
        return NodeState(
            cpu_available=cpu_share_under_load(level, spec.os_overhead),
            free_memory_mb=max(0.0, spec.memory_mb - mem_total),
            bandwidth_mbps=spec.bandwidth_mbps * bw_share,
            load_level=level,
        )

    def state_of(self, node: int, t: float | None = None) -> NodeState:
        """Ground-truth resource state of one node.

        Only the simulator and its tests call this directly; the framework
        sees node state through the resource monitor, which adds probe cost
        (and, optionally, noise and forecasting).
        """
        self._check_node(node)
        t = self.clock.now if t is None else t
        load, mem_used, bw_used = self._node_sums(t)
        return self._state_at(
            node,
            float(load[node]),
            float(mem_used[node]),
            float(bw_used[node]),
        )

    def states(self, t: float | None = None) -> list[NodeState]:
        """Ground-truth state of every node (one columnar pass)."""
        t = self.clock.now if t is None else t
        load, mem_used, bw_used = self._node_sums(t)
        return [
            self._state_at(
                k, float(load[k]), float(mem_used[k]), float(bw_used[k])
            )
            for k in range(self.num_nodes)
        ]

    def effective_speed(self, node: int, t: float | None = None) -> float:
        """Deliverable work units per second on ``node`` at ``t``."""
        return self.state_of(node, t).effective_speed(self.nodes[node])

    def effective_speeds(self, t: float | None = None) -> np.ndarray:
        """Per-node deliverable speeds, computed without NodeState objects."""
        t = self.clock.now if t is None else t
        load = self._node_sums(t)[0]
        share = np.clip((1.0 - self._os_overhead) / (1.0 + load), 0.0, 1.0)
        speeds = self._cpu_speed * share
        if self._down_since:
            speeds[list(self._down_since)] = 0.0
        return speeds

    def bandwidths(self, t: float | None = None) -> np.ndarray:
        """Per-node deliverable NIC Mbit/s: the columnar twin of
        ``state_of(k, t).bandwidth_mbps`` (5 % floor, link derating, 0 for
        down nodes), bitwise equal to it for every node."""
        t = self.clock.now if t is None else t
        share = np.maximum(0.05, 1.0 - self._node_sums(t)[2])
        for node, factor in self._link_derate.items():
            share[node] *= factor
        mbps = self._nic_mbps * share
        if self._down_since:
            mbps[list(self._down_since)] = 0.0
        return mbps

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def homogeneous(
        cls,
        n: int,
        cpu_speed: float = 1.0,
        memory_mb: float = 512.0,
        bandwidth_mbps: float = 100.0,
    ) -> "Cluster":
        """``n`` identical unloaded nodes."""
        return cls(
            [
                NodeSpec(
                    name=f"node{k:02d}",
                    cpu_speed=cpu_speed,
                    memory_mb=memory_mb,
                    bandwidth_mbps=bandwidth_mbps,
                )
                for k in range(n)
            ]
        )

    @classmethod
    def heterogeneous(
        cls,
        n: int,
        seed: int = 0,
        speed_range: tuple[float, float] = (0.5, 1.5),
        memory_choices: Sequence[float] = (256.0, 512.0, 1024.0),
        bandwidth_choices: Sequence[float] = (100.0, 100.0, 10.0),
    ) -> "Cluster":
        """``n`` nodes with mixed hardware generations (seeded, replayable)."""
        rng = make_rng(seed)
        nodes = [
            NodeSpec(
                name=f"node{k:02d}",
                cpu_speed=float(rng.uniform(*speed_range)),
                memory_mb=float(rng.choice(memory_choices)),
                bandwidth_mbps=float(rng.choice(bandwidth_choices)),
            )
            for k in range(n)
        ]
        return cls(nodes)

    @classmethod
    def paper_four_node(cls) -> "Cluster":
        """The 4-node scenario of sections 6.1.3 / 6.2.2.

        Four identical machines; synthetic load generators on nodes 0-2
        (two heavy, one light) tuned so equal-weight relative capacities
        converge to approximately 16 %, 19 %, 31 % and 34 % once the ramps
        plateau (within the first simulated second).
        """
        nodes = [NodeSpec(name=f"node{k:02d}") for k in range(4)]
        # Target normalized CPU/memory shares x = (.115, .16, .34, .385);
        # combined with equal bandwidth shares (.25 each) under equal weights
        # this yields C = (x + x + 1/4)/3 = (.160, .190, .310, .340).
        gens = [
            SyntheticLoadGenerator(
                node=0, start_time=-1.0, ramp_rate=10.0,
                target_level=2.348, memory_per_unit_mb=133.8,
            ),
            SyntheticLoadGenerator(
                node=1, start_time=-1.0, ramp_rate=10.0,
                target_level=1.407, memory_per_unit_mb=186.1,
            ),
            SyntheticLoadGenerator(
                node=2, start_time=-1.0, ramp_rate=10.0,
                target_level=0.132, memory_per_unit_mb=396.8,
            ),
        ]
        return cls(nodes, load_generators=gens)

    @classmethod
    def paper_linux_cluster(
        cls,
        n: int = 32,
        loaded_fraction: float = 0.5,
        seed: int = 7,
        dynamic: bool = False,
        horizon_s: float = 900.0,
    ) -> "Cluster":
        """The 32-node Linux/Fast-Ethernet cluster of section 6.2.1.

        ``loaded_fraction`` of the nodes carry synthetic load (heterogeneity
        comes from the load, as in the paper's controlled setup).  With
        ``dynamic=True`` the load *moves*: one half of the loaded set is
        busy from the start until ~``horizon_s/2``, the other half from
        ~``horizon_s/2`` on ("multiple load generators ... create
        interesting load dynamics", section 6.1.1).  A sense-once
        configuration therefore shifts work onto exactly the nodes that
        later become slow, reproducing the large dynamic-vs-static gaps of
        table II; dynamic sensing keeps adapting (section 6.2.3).
        """
        if n < 1:
            raise SimulationError(f"need at least one node, got {n}")
        nodes = [NodeSpec(name=f"node{k:02d}") for k in range(n)]
        rng = make_rng(seed)
        num_loaded = max(1, int(round(n * loaded_fraction)))
        loaded = sorted(int(x) for x in rng.choice(n, size=num_loaded, replace=False))
        gens = []
        if dynamic:
            # Phase 1 loads half the loaded set from before t=0 until
            # mid-horizon; phase 2 loads the *other* half afterwards.
            half = (num_loaded + 1) // 2
            phase1 = loaded[:half]
            phase2 = loaded[half:]
            if not phase2:  # with one loaded node, phase 2 hits another node
                phase2 = [(phase1[0] + 1) % n]
            h = horizon_s
            for k in phase1:
                gens.append(
                    SyntheticLoadGenerator(
                        node=k, start_time=-1.0, ramp_rate=10.0,
                        target_level=float(rng.uniform(2.5, 4.5)),
                        stop_time=float(rng.uniform(0.45, 0.55)) * h,
                        memory_per_unit_mb=120.0,
                    )
                )
            for k in phase2:
                gens.append(
                    SyntheticLoadGenerator(
                        node=k,
                        start_time=float(rng.uniform(0.45, 0.55)) * h,
                        ramp_rate=10.0,
                        target_level=float(rng.uniform(2.5, 4.5)),
                        memory_per_unit_mb=120.0,
                    )
                )
            return cls(nodes, load_generators=gens)
        # Static case: the ramp completed before the application starts
        # (paper section 6.2.1 runs under established load).  Load
        # diversity grows with cluster size, reflecting the paper's
        # observation that larger clusters exhibit greater heterogeneity
        # (and hence larger system-sensitive gains: ~7 % at 4 nodes vs
        # ~18 % at 32).
        hi = min(3.0, 0.6 + 0.075 * n)
        for k in loaded:
            gens.append(
                SyntheticLoadGenerator(
                    node=k, start_time=-1.0, ramp_rate=10.0,
                    target_level=float(rng.uniform(0.3, hi)),
                    memory_per_unit_mb=48.0,
                )
            )
        return cls(nodes, load_generators=gens)
