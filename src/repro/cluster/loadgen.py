"""Synthetic load generation (paper section 6.1.1).

    "The load generator decreased the available memory and increased CPU
    load on a processor, thus lowering its capacity to do work.  The load
    generated on the processor increased linearly at a specified rate until
    it reached the desired load level.  Note that multiple load generators
    were run on a processor to create interesting load dynamics."

A :class:`SyntheticLoadGenerator` is a pure function of simulated time, so
replaying an experiment under a different partitioner sees *bit-identical*
load dynamics -- the controlled-environment property the paper's comparisons
depend on.

Load semantics follow the Unix load-average model: a load level of ``L``
competing processes leaves a new process ``1 / (1 + L)`` of the CPU.  Each
load unit also pins ``memory_per_unit_mb`` of memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import SimulationError

__all__ = ["SyntheticLoadGenerator", "cpu_share_under_load"]


def cpu_share_under_load(load_level: float, os_overhead: float = 0.0) -> float:
    """Fraction of CPU available to a new process under ``load_level``
    competing load units, after subtracting the OS background share."""
    if load_level < 0:
        raise SimulationError(f"negative load level {load_level}")
    share = (1.0 - os_overhead) / (1.0 + load_level)
    return max(0.0, min(1.0, share))


@dataclass(frozen=True, slots=True)
class SyntheticLoadGenerator:
    """Deterministic linear-ramp load source attached to one node.

    Parameters
    ----------
    node:
        Index of the node this generator loads.
    start_time:
        Simulated time (s) at which the ramp begins.
    ramp_rate:
        Load units added per second during the ramp (> 0).
    target_level:
        Load level at which the ramp plateaus (>= 0).
    stop_time:
        Optional time at which the generator exits and its load vanishes
        (``None`` = runs forever).
    memory_per_unit_mb:
        Memory pinned per load unit.
    bandwidth_fraction_per_unit:
        Fraction of the node's NIC bandwidth consumed per load unit (a
        network-chatty competitor, e.g. a bulk transfer); 0 = CPU/memory
        load only.  Total consumption across generators is capped so at
        least 5 % of the NIC stays deliverable.
    """

    node: int
    start_time: float = 0.0
    ramp_rate: float = 0.1
    target_level: float = 1.0
    stop_time: float | None = None
    memory_per_unit_mb: float = 32.0
    bandwidth_fraction_per_unit: float = 0.0

    def __post_init__(self) -> None:
        if self.node < 0:
            raise SimulationError(f"negative node index {self.node}")
        if self.ramp_rate <= 0:
            raise SimulationError(f"ramp_rate must be > 0, got {self.ramp_rate}")
        if self.target_level < 0:
            raise SimulationError(
                f"target_level must be >= 0, got {self.target_level}"
            )
        if self.stop_time is not None and self.stop_time < self.start_time:
            raise SimulationError("stop_time before start_time")
        if self.memory_per_unit_mb < 0:
            raise SimulationError("negative memory_per_unit_mb")
        if not 0.0 <= self.bandwidth_fraction_per_unit <= 1.0:
            raise SimulationError(
                "bandwidth_fraction_per_unit must be in [0, 1], got "
                f"{self.bandwidth_fraction_per_unit}"
            )

    def level_at(self, t: float) -> float:
        """Load level contributed at simulated time ``t``."""
        if t < self.start_time:
            return 0.0
        if self.stop_time is not None and t >= self.stop_time:
            return 0.0
        return min(self.target_level, self.ramp_rate * (t - self.start_time))

    def memory_at(self, t: float) -> float:
        """Memory (MB) pinned at simulated time ``t``."""
        return self.level_at(t) * self.memory_per_unit_mb
