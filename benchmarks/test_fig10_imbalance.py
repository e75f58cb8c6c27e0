"""Fig. 10: percentage load imbalance, system-sensitive vs default.

Paper: I_k = |W_k - L_k| / L_k * 100 with L_k the capacity-proportional
target; the default scheme shows imbalances up to ~90 %, the
system-sensitive one stays low, with a residual (up to ~40 % in the
paper's grids, from the min-box-size and aspect-ratio constraints).

Expected shape: default >> system-sensitive at every regrid;
system-sensitive max < 40 %.  The paper's claim is also asserted as
written on the paper run itself (RM3D on 32 dynamic nodes, 200
iterations), where it does not hold yet (ROADMAP item 1).
"""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.kernels.workloads import paper_rm3d_trace
from repro.partition import ACEHeterogeneous
from repro.runtime import RuntimeConfig
from repro.runtime.experiment import imbalance_comparison, run_once
from repro.runtime.reporting import format_imbalance


def test_fig10_load_imbalance(run_experiment):
    data = run_experiment(imbalance_comparison, num_regrids=6)
    print()
    print(format_imbalance(data))
    sys_sens = data["system_sensitive"]
    default = data["default"]
    # Default is worse at every regrid -- by a wide margin.
    assert (default > sys_sens).all()
    assert default.mean() > 5 * sys_sens.mean()
    # The paper's residual-imbalance bound for the system-sensitive scheme.
    assert sys_sens.max() < 40.0
    # And the default's capacity-blindness shows up as tens of percent.
    assert default.max() > 25.0


def paper_run_imbalance() -> np.ndarray:
    """Max I_k per regrid of the system-sensitive scheme on the paper run:
    RM3D 128x32x32, 3 levels, 32 dynamic nodes (seed 11), 200 iterations,
    regrid every 5, sense every 20."""
    result = run_once(
        paper_rm3d_trace(num_regrids=200 // 5 + 2),
        Cluster.paper_linux_cluster(32, seed=11, dynamic=True, horizon_s=600.0),
        ACEHeterogeneous(),
        RuntimeConfig(iterations=200, regrid_interval=5, sensing_interval=20),
    )
    return np.array([r.imbalance.max() for r in result.regrids])


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: the splitter leaves rank 31 empty on regrids 0-28",
)
def test_fig10_paper_run_32_dynamic_nodes(run_experiment):
    sys_sens = run_experiment(paper_run_imbalance)
    print()
    print(f"32 dynamic nodes: max I_k per regrid {np.round(sys_sens, 1).tolist()}")
    # The paper's residual-imbalance bound, as the paper states it.
    assert sys_sens.max() < 40.0
