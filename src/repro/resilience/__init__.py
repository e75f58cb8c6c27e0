"""Resilience subsystem: fault injection and checkpoint/restart.

The paper's premise is that cluster capacity is *dynamic*; in production the
dynamics include outright failure.  This package makes the runtime survive
them while preserving the reproduction's core property -- the solution stays
bitwise identical to the undisturbed sequential run, because recovery
restores a checkpoint and replays forward over a repartitioned (smaller)
rank set, and partition invariance guarantees the numerics do not care who
owns which box.

Pieces
------
- :mod:`repro.resilience.chaos` -- a seeded, declarative fault plan plus an
  injector that schedules crashes / recoveries / sensor blackouts / link
  degradations on the simulated clock (replayable bit-for-bit).
- :mod:`repro.resilience.checkpoint` -- versioned, checksummed snapshots of
  the grid hierarchy + partition assignment + clock state, with
  integrity-verified restore.

A node the injector takes down or blacks out keeps its last monitor
reading (:class:`~repro.monitor.service.ResourceMonitor`); the capacity
calculator renormalizes over the cluster's live set.
"""

from repro.resilience.chaos import FaultEvent, FaultInjector, FaultPlan
from repro.resilience.checkpoint import (
    Checkpoint,
    CheckpointManager,
    CheckpointStore,
    DirectoryCheckpointStore,
    MemoryCheckpointStore,
    ResilienceConfig,
)

__all__ = [
    "Checkpoint",
    "CheckpointManager",
    "CheckpointStore",
    "DirectoryCheckpointStore",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "MemoryCheckpointStore",
    "ResilienceConfig",
]
