"""Network link cost model.

The paper's cluster interconnect is switched Fast Ethernet (100 Mbit/s).
The partitioning experiments need communication *cost*, not packet-level
fidelity, so a latency + bandwidth (alpha-beta) model suffices:

    transfer_time(n bytes) = latency + n / effective_bandwidth

Effective bandwidth is the minimum of the two endpoints' currently
deliverable NIC bandwidths (a congested or loaded endpoint throttles the
transfer), optionally derated by a contention factor when many pairs
communicate at once through one switch fabric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.util.errors import SimulationError

__all__ = ["LinkModel"]

_BITS_PER_BYTE = 8.0
_MEGA = 1e6


@dataclass(frozen=True, slots=True)
class LinkModel:
    """Alpha-beta transfer cost model.

    Parameters
    ----------
    latency_s:
        Per-message latency in seconds (Fast Ethernet + TCP stack:
        ~1e-4 s is representative).
    contention_factor:
        Multiplier >= 1 applied to transfer time when the fabric is shared;
        1.0 models an uncontended switched network.
    """

    latency_s: float = 1e-4
    contention_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise SimulationError(f"negative latency {self.latency_s}")
        if self.contention_factor < 1.0:
            raise SimulationError(
                f"contention_factor must be >= 1, got {self.contention_factor}"
            )

    def transfer_time(
        self,
        nbytes: float,
        src_bandwidth_mbps: float,
        dst_bandwidth_mbps: float,
    ) -> float:
        """Seconds to move ``nbytes`` between two endpoints."""
        if not math.isfinite(nbytes):
            raise SimulationError(f"non-finite transfer size {nbytes}")
        if nbytes < 0:
            raise SimulationError(f"negative transfer size {nbytes}")
        if nbytes == 0:
            return 0.0
        bw = min(src_bandwidth_mbps, dst_bandwidth_mbps)
        if bw <= 0:
            raise SimulationError("transfer over a zero-bandwidth link")
        bytes_per_s = bw * _MEGA / _BITS_PER_BYTE
        return self.contention_factor * (self.latency_s + nbytes / bytes_per_s)

    def transfer_times(
        self, nbytes: np.ndarray, bandwidth_mbps: np.ndarray
    ) -> np.ndarray:
        """Vector :meth:`transfer_time`: seconds per message for arrays of
        positive sizes and positive (already endpoint-minimised)
        bandwidths -- the same operations in the same order, so every
        element is bitwise equal to the scalar form."""
        bytes_per_s = bandwidth_mbps * _MEGA / _BITS_PER_BYTE
        return self.contention_factor * (self.latency_s + nbytes / bytes_per_s)
