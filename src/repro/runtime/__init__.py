"""The adaptive runtime: sense -> capacity -> partition -> execute loop.

This package is the analogue of the paper's "system sensitive runtime
management architecture" (section 5, fig. 5): it wires the resource monitor,
the capacity calculator, a partitioner, the HDDA and the cluster simulator
into the iteration loop of a SAMR application, and accounts simulated
execution time with :mod:`repro.runtime.timemodel`.

- :mod:`repro.runtime.engine` -- :class:`StepEngine`, the one run loop,
  :class:`SamrRuntime`, its trace executor, and :class:`RunResult`, the
  full execution record;
- :mod:`repro.runtime.distributed` -- the kernel executor of the same loop;
- :mod:`repro.runtime.pipeline` -- the stages the loop sequences;
- :mod:`repro.runtime.timemodel` -- per-iteration makespan model
  (compute + ghost exchange + sync + migration + sensing overhead);
- :mod:`repro.runtime.experiment` -- pre-configured builders for every
  experiment in the paper's evaluation section;
- :mod:`repro.runtime.reporting` -- row/series printers matching the
  paper's tables and figures.
"""

from repro.runtime.engine import RunResult, RuntimeConfig, SamrRuntime
from repro.runtime.pipeline import RepartitionOutcome, RepartitionPipeline
from repro.runtime.timemodel import IterationCost, TimeModel

__all__ = [
    "SamrRuntime",
    "RuntimeConfig",
    "RunResult",
    "RepartitionPipeline",
    "RepartitionOutcome",
    "TimeModel",
    "IterationCost",
]
