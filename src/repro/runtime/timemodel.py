"""Execution-time model for one SAMR iteration on the simulated cluster.

A bulk-synchronous iteration costs, per rank *k*:

    compute_k = W_k * seconds_per_work_unit / effective_speed_k
    comm_k    = serialized ghost-exchange transfer time on k's NIC

and the iteration's wall time is ``max_k(compute_k + comm_k)`` plus a
(log P) synchronization term -- the slowest node gates everyone, which is
precisely why capacity-blind equal partitions lose on loaded clusters.

Regrid-time costs are separate: data migration (the cell-owner diff priced
as a transfer makespan) and, at sensing points, the monitor's probe overhead
(~0.5 s per node, section 6.1.4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import Cluster
from repro.comm.simmpi import SimCommunicator
from repro.util.errors import SimulationError

__all__ = ["IterationCost", "TimeModel"]

#: Default calibration: seconds one reference node (cpu_speed=1, fully
#: available) needs per work unit (one cell-update of the RM3D kernel,
#: including its share of flux evaluations).  Chosen so a 4-processor
#: RM3D iteration costs ~2 s, matching the paper's iteration-to-probe
#: cost ratio (one NWS probe of the 4-node cluster ~ one iteration).
DEFAULT_SECONDS_PER_WORK_UNIT = 5e-6

#: Payload of the per-iteration reduction (dt computation): one float per
#: field plus headroom.
SYNC_BYTES = 64.0


@dataclass(frozen=True, slots=True)
class IterationCost:
    """Breakdown of one iteration's simulated cost."""

    compute: np.ndarray  # per-rank seconds
    comm: np.ndarray  # per-rank seconds
    sync: float  # collective seconds
    total: float  # iteration wall time (max over ranks + sync)


class TimeModel:
    """Prices iterations, migrations and sensing against a cluster."""

    def __init__(
        self,
        cluster: Cluster,
        seconds_per_work_unit: float = DEFAULT_SECONDS_PER_WORK_UNIT,
    ):
        if seconds_per_work_unit <= 0:
            raise SimulationError(
                f"seconds_per_work_unit must be > 0, got {seconds_per_work_unit}"
            )
        self.cluster = cluster
        self.spwu = seconds_per_work_unit
        self.comm = SimCommunicator(cluster)

    def iteration_cost(
        self,
        loads: np.ndarray,
        pair_bytes: dict[tuple[int, int], float],
        t: float | None = None,
    ) -> IterationCost:
        """Cost of one coarse iteration under bulk synchronization.

        ``loads`` is per-rank work W_k in work units; ``pair_bytes`` is the
        ghost-exchange volume map from
        :func:`repro.amr.ghost.plan_exchange_volumes`.
        """
        loads = np.asarray(loads, dtype=float)
        n = self.cluster.num_nodes
        if len(loads) != n:
            raise SimulationError(f"{len(loads)} loads for {n} nodes")
        if (loads < 0).any():
            raise SimulationError("negative per-rank load")
        speeds = self.cluster.effective_speeds(t)
        if ((loads > 0) & (speeds <= 0)).any():
            raise SimulationError(
                "a rank with work has zero effective speed (down node "
                "still owns boxes?)"
            )
        compute = np.divide(
            loads * self.spwu,
            speeds,
            out=np.zeros_like(loads),
            where=speeds > 0,
        )
        comm = self.comm.exchange_time(pair_bytes, t, phase="ghost-exchange")
        sync = self.comm.allreduce_time(SYNC_BYTES, t, op="sync")
        total = float((compute + comm).max() + sync)
        return IterationCost(compute=compute, comm=comm, sync=sync, total=total)

    def iteration_cost_per_level(
        self,
        level_loads: np.ndarray,
        subcycles: np.ndarray,
        pair_bytes: dict[tuple[int, int], float],
        t: float | None = None,
    ) -> IterationCost:
        """Cost of one coarse iteration under *per-level* synchronization.

        Berger-Oliger subcycling imposes a barrier after every substep of
        every level: all of level l's patches must finish substep s before
        the inter-grid operations that feed substep s+1.  Under this
        stricter model a rank with no work on some level idles through
        that level's phases -- which is exactly what level-based
        decompositions (:class:`~repro.partition.levelwise.LevelPartitioner`)
        exist to prevent.

        Parameters
        ----------
        level_loads:
            ``(num_levels, num_ranks)`` work per level per rank, for one
            coarse step (i.e. already including subcycling repetition).
        subcycles:
            Substeps each level takes per coarse step (``factor**level``).
        pair_bytes:
            Ghost-exchange volumes for the whole iteration.
        """
        level_loads = np.asarray(level_loads, dtype=float)
        n = self.cluster.num_nodes
        if level_loads.ndim != 2 or level_loads.shape[1] != n:
            raise SimulationError(
                f"level_loads must be (num_levels, {n}), got "
                f"{level_loads.shape}"
            )
        if (level_loads < 0).any():
            raise SimulationError("negative per-level load")
        subcycles = np.asarray(subcycles, dtype=float)
        if len(subcycles) != level_loads.shape[0] or (subcycles < 1).any():
            raise SimulationError("invalid subcycle counts")
        speeds = self.cluster.effective_speeds(t)
        if ((level_loads.sum(axis=0) > 0) & (speeds <= 0)).any():
            raise SimulationError(
                "a rank with work has zero effective speed (down node "
                "still owns boxes?)"
            )
        # Each level contributes `subcycles` barrier phases; a phase lasts
        # as long as the busiest rank's share of that level's substep work.
        phase_time = np.zeros(n)
        total_phases = 0.0
        for lvl in range(level_loads.shape[0]):
            per_substep = level_loads[lvl] / subcycles[lvl]
            phase = np.divide(
                per_substep * self.spwu,
                speeds,
                out=np.zeros(n),
                where=speeds > 0,
            )
            phase_time += phase  # per-rank accumulated compute
            total_phases += float(phase.max()) * subcycles[lvl]
        comm = self.comm.exchange_time(pair_bytes, t, phase="ghost-exchange")
        sync = self.comm.allreduce_time(SYNC_BYTES, t, op="sync") * float(
            subcycles.sum()
        )
        total = float(total_phases + comm.max() + sync)
        return IterationCost(
            compute=phase_time, comm=comm, sync=sync, total=total
        )

    def migration_cost(
        self, bytes_moved: dict[tuple[int, int], int], t: float | None = None
    ) -> float:
        """Wall seconds of a post-repartition data migration."""
        return self.comm.migration_time(bytes_moved, t)
