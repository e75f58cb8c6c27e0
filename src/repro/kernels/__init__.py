"""Application kernels.

Concrete :class:`~repro.amr.api.AmrKernel` implementations:

- :mod:`repro.kernels.advection` -- linear scalar advection (upwind), the
  minimal moving-feature workload used in tests and the quickstart;
- :mod:`repro.kernels.rm3d` -- the paper's evaluation application: a 3-D
  compressible Euler solver with a Richtmyer-Meshkov-style shocked-interface
  initial condition (base mesh 128x32x32, 3 levels of factor-2 refinement);
- :mod:`repro.kernels.buckley_leverett` -- the 2-D Buckley-Leverett
  two-phase reservoir transport problem of the paper's fig. 3;
- :mod:`repro.kernels.workloads` -- synthetic refinement-trace generators
  that reproduce paper-scale hierarchy dynamics without paying kernel FLOP
  costs (used by the benchmark harness).
"""

from repro.kernels.advection import AdvectionKernel
from repro.kernels.rm3d import RM3DKernel
from repro.kernels.buckley_leverett import BuckleyLeverettKernel
from repro.kernels.workloads import (
    SyntheticWorkload,
    paper_rm3d_trace,
    record_workload,
)

__all__ = [
    "AdvectionKernel",
    "RM3DKernel",
    "BuckleyLeverettKernel",
    "SyntheticWorkload",
    "paper_rm3d_trace",
    "record_workload",
]
