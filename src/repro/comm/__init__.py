"""Simulated message-passing layer.

Substitute for the MPI transport under GrACE: the experiments need the
*cost* of communication phases (ghost exchanges, data migration,
reductions), not actual data movement, so :class:`SimCommunicator` prices
message patterns against the cluster's link model and current node
bandwidths; a bound tracer records the traffic (``comm.*`` counters and
``comm.exchange`` events).
"""

from repro.comm.simmpi import SimCommunicator

__all__ = ["SimCommunicator"]
