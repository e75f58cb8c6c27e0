"""The relative-capacity metric (paper section 5.2).

For node *k* with CPU availability ``P_k``, free memory ``M_k`` and link
bandwidth ``B_k`` (as provided by the resource monitor), each resource is
first normalized to its cluster-wide share::

    P_hat_k = P_k / sum_i P_i      (and likewise M_hat, B_hat)

and the relative capacity is the weighted sum::

    C_k = w_p * P_hat_k + w_m * M_hat_k + w_b * B_hat_k,
    w_p + w_m + w_b = 1   =>   sum_k C_k = 1.

The weights reflect the application's computational, memory and
communication requirements; the paper's experiments use equal weights
(1/3 each) and flag weight choice as future work -- the weight-ablation
benchmark explores it.

If the total work to be assigned is ``L``, node *k* should receive
``L_k = C_k * L``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.util.errors import PartitionError

if TYPE_CHECKING:
    from repro.monitor.service import MonitorSnapshot

__all__ = ["CapacityWeights", "CapacityCalculator"]


@dataclass(frozen=True, slots=True)
class CapacityWeights:
    """Application-dependent resource weights (w_p, w_m, w_b).

    Must be non-negative and sum to 1.  ``equal()`` reproduces the paper's
    experimental setting; the named alternates describe application types
    for the ablation study.
    """

    w_p: float = 1.0 / 3.0
    w_m: float = 1.0 / 3.0
    w_b: float = 1.0 / 3.0

    def __post_init__(self) -> None:
        for name, w in (("w_p", self.w_p), ("w_m", self.w_m), ("w_b", self.w_b)):
            if w < 0:
                raise PartitionError(f"{name} must be >= 0, got {w}")
        total = self.w_p + self.w_m + self.w_b
        if abs(total - 1.0) > 1e-9:
            raise PartitionError(
                f"weights must sum to 1, got {total} "
                f"(w_p={self.w_p}, w_m={self.w_m}, w_b={self.w_b})"
            )

    @classmethod
    def equal(cls) -> "CapacityWeights":
        """The paper's setting: all three resources equally important."""
        return cls()

    @classmethod
    def compute_bound(cls) -> "CapacityWeights":
        """CPU-dominated application profile."""
        return cls(0.8, 0.1, 0.1)

    @classmethod
    def memory_bound(cls) -> "CapacityWeights":
        """Memory-dominated application profile."""
        return cls(0.1, 0.8, 0.1)

    @classmethod
    def comm_bound(cls) -> "CapacityWeights":
        """Communication-dominated application profile."""
        return cls(0.1, 0.1, 0.8)


class CapacityCalculator:
    """Computes relative capacities from monitor snapshots."""

    def __init__(self, weights: CapacityWeights | None = None):
        self.weights = weights if weights is not None else CapacityWeights.equal()

    @staticmethod
    def _normalize(values: np.ndarray) -> np.ndarray:
        """Per-node share of the cluster total; uniform if the total is 0
        (e.g. every node out of free memory -- no information to act on).
        A NaN or infinite reading is an error, not a share."""
        values = np.asarray(values, dtype=float)
        if not np.isfinite(values).all():
            raise PartitionError("resource availabilities must be finite")
        if (values < 0).any():
            raise PartitionError("resource availabilities must be >= 0")
        total = values.sum()
        n = len(values)
        if n == 0:
            raise PartitionError("no nodes to normalize over")
        if total <= 0:
            return np.full(n, 1.0 / n)
        return values / total

    def relative_capacities(
        self,
        snapshot: MonitorSnapshot,
        live: np.ndarray | None = None,
    ) -> np.ndarray:
        """C_k for every node; non-negative and summing to 1.

        ``live`` (optional boolean mask) restricts the normalization to the
        surviving rank set: dead nodes get exactly zero capacity and the
        remaining shares renormalize over live nodes only.  ``None`` (or an
        all-true mask) is the original fixed-rank-set computation.
        """
        if live is not None:
            live = np.asarray(live, dtype=bool)
            if live.shape != (len(snapshot.cpu),):
                raise PartitionError(
                    f"live mask has shape {live.shape}, snapshot covers "
                    f"{len(snapshot.cpu)} nodes"
                )
            if not live.any():
                raise PartitionError(
                    "no live nodes: cannot renormalize capacities"
                )
            if not live.all():
                p_hat = self._normalize(
                    np.where(live, snapshot.cpu, 0.0)[live]
                )
                m_hat = self._normalize(
                    np.where(live, snapshot.memory_mb, 0.0)[live]
                )
                b_hat = self._normalize(
                    np.where(live, snapshot.bandwidth_mbps, 0.0)[live]
                )
                w = self.weights
                c_live = w.w_p * p_hat + w.w_m * m_hat + w.w_b * b_hat
                c = np.zeros(len(live))
                c[live] = c_live / c_live.sum()
                return c
        p_hat = self._normalize(snapshot.cpu)
        m_hat = self._normalize(snapshot.memory_mb)
        b_hat = self._normalize(snapshot.bandwidth_mbps)
        w = self.weights
        c = w.w_p * p_hat + w.w_m * m_hat + w.w_b * b_hat
        # Weights and shares each sum to 1, so c sums to 1 up to rounding.
        return c / c.sum()
