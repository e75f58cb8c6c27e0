"""Foundation utilities shared by every subsystem.

This package holds the building blocks that the SAMR substrate, the HDDA,
the cluster simulator and the partitioners are all expressed in terms of:

- :mod:`repro.util.geometry` -- rectilinear index-space boxes (the unit of
  partitioning in GrACE: every component grid is maintained as a list of
  bounding boxes).
- :mod:`repro.util.sfc` -- space-filling curves (Morton and Hilbert) used by
  the HDDA hierarchical index space and the default SFC partitioner.
- :mod:`repro.util.hashing` -- extendible hashing (Fagin et al.), the
  storage/access mechanism of the HDDA.
- :mod:`repro.util.durable` -- the one durable-write primitive (append
  a line, read rows, publish a file) every store and log goes through.
- :mod:`repro.util.errors` -- exception hierarchy.
- :mod:`repro.util.config` -- small frozen configuration records.
- :mod:`repro.util.rng` -- deterministic seeding helpers.
"""

from repro.util.errors import (
    ReproError,
    GeometryError,
    PartitionError,
    SimulationError,
    MonitorError,
    HDDAError,
)
from repro.util.geometry import Box, BoxList, Layout

__all__ = [
    "ReproError",
    "GeometryError",
    "PartitionError",
    "SimulationError",
    "MonitorError",
    "HDDAError",
    "Box",
    "BoxList",
    "Layout",
]
