"""Node capability specifications and dynamic state.

A :class:`NodeSpec` is the *static* description of one cluster node --
what the machine is.  A :class:`NodeState` is a snapshot of what is
*currently available* on it: the quantities NWS reports (fraction of CPU
available, free memory, link bandwidth) and what the capacity calculator
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import SimulationError

__all__ = ["NodeSpec", "NodeState"]


@dataclass(frozen=True, slots=True)
class NodeSpec:
    """Static description of a cluster node.

    Parameters
    ----------
    name:
        Human-readable identifier (``"node03"``).
    cpu_speed:
        Relative compute rate of the unloaded CPU in *work units per
        second*; 1.0 is the reference machine.  Heterogeneity in machine
        generation shows up here.
    memory_mb:
        Physical memory in MB.
    bandwidth_mbps:
        NIC bandwidth in Mbit/s (Fast Ethernet = 100).
    os_overhead:
        Fraction of CPU permanently consumed by the OS and daemons
        (0.03 matches NWS's observation of ~3 % monitoring-era background).
    """

    name: str
    cpu_speed: float = 1.0
    memory_mb: float = 512.0
    bandwidth_mbps: float = 100.0
    os_overhead: float = 0.03

    def __post_init__(self) -> None:
        if self.cpu_speed <= 0:
            raise SimulationError(f"cpu_speed must be > 0, got {self.cpu_speed}")
        if self.memory_mb <= 0:
            raise SimulationError(f"memory_mb must be > 0, got {self.memory_mb}")
        if self.bandwidth_mbps <= 0:
            raise SimulationError(
                f"bandwidth_mbps must be > 0, got {self.bandwidth_mbps}"
            )
        if not 0.0 <= self.os_overhead < 1.0:
            raise SimulationError(
                f"os_overhead must be in [0, 1), got {self.os_overhead}"
            )


@dataclass(frozen=True, slots=True)
class NodeState:
    """Instantaneous resource availability on one node.

    Attributes
    ----------
    cpu_available:
        Fraction of the CPU available to a new process, in [0, 1].
        (NWS's "availableCPU" measurement.)
    free_memory_mb:
        Unused physical memory in MB.
    bandwidth_mbps:
        Currently deliverable end-to-end bandwidth in Mbit/s.
    load_level:
        Sum of synthetic load-generator levels active on the node
        (diagnostic; 0 when unloaded).
    """

    cpu_available: float
    free_memory_mb: float
    bandwidth_mbps: float
    load_level: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.cpu_available <= 1.0:
            raise SimulationError(
                f"cpu_available must be in [0, 1], got {self.cpu_available}"
            )
        if self.free_memory_mb < 0:
            raise SimulationError(
                f"free_memory_mb must be >= 0, got {self.free_memory_mb}"
            )
        if self.bandwidth_mbps < 0:
            raise SimulationError(
                f"bandwidth_mbps must be >= 0, got {self.bandwidth_mbps}"
            )
