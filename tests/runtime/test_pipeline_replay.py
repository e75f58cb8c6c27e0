"""Golden-trace replay guard for the repartition pipeline.

The :class:`~repro.runtime.pipeline.RepartitionPipeline` extraction must
not change a single observable byte of telemetry: the PR-2 dashboard
and :class:`~repro.telemetry.analysis.HealthMonitor` replay traces
recorded by earlier versions.  These tests run
two instrumented scenarios -- a fig10-style :class:`SamrRuntime` run and a
:class:`DistributedAmrRun` -- and compare every *deterministic* field of
the resulting trace (span tree over simulated time, span attributes,
events, health snapshots and anomaly events, metric aggregates) against
golden JSON captured before the pipeline existed.

Wall-clock fields are excluded; everything else must match exactly.

Regenerate the goldens (only when telemetry output changes on purpose)::

    PYTHONPATH=src python tests/runtime/test_pipeline_replay.py --regen
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from repro.cluster import Cluster
from repro.kernels.advection import AdvectionKernel
from repro.amr.hierarchy import GridHierarchy
from repro.kernels.workloads import paper_rm3d_trace
from repro.partition import ACEHeterogeneous
from repro.runtime import RuntimeConfig, SamrRuntime
from repro.runtime.distributed import DistributedAmrRun, DistributedRunConfig
from repro.telemetry import HealthMonitor, Tracer, metrics_summary
from repro.util.geometry import Box

DATA_DIR = Path(__file__).parent / "data"
ENGINE_GOLDEN = DATA_DIR / "golden_engine_trace.json"
DISTRIBUTED_GOLDEN = DATA_DIR / "golden_distributed_trace.json"


# ---------------------------------------------------------------------------
# Canonicalization: keep deterministic fields only
# ---------------------------------------------------------------------------
def _canon_value(value):
    """JSON-stable form of a span/event attribute value."""
    if isinstance(value, np.ndarray):
        return [_canon_value(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (list, tuple)):
        return [_canon_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canon_value(v) for k, v in value.items()}
    return value


def canonical_trace(tracer, monitor) -> dict:
    """Deterministic projection of one instrumented run.

    Includes the full span sequence over simulated time, all events, the
    health monitor's snapshots and anomaly events, and the sim-side metric
    aggregates.  Excludes every wall-clock quantity.
    """
    spans = [
        {
            "name": s.name,
            "span_id": s.span_id,
            "parent_id": s.parent_id,
            "pid": s.pid,
            "rank": s.rank,
            "start_sim": s.start_sim,
            "end_sim": s.end_sim,
            "attributes": _canon_value(s.attributes),
        }
        for s in tracer.spans
    ]
    events = [
        {
            "name": e.name,
            "pid": e.pid,
            "rank": e.rank,
            "sim": e.sim,
            "attributes": _canon_value(e.attributes),
        }
        for e in tracer.events
    ]
    summary = metrics_summary(tracer)
    phases = {
        name: {"count": agg["count"], "sim_seconds": agg["sim_seconds"]}
        for name, agg in summary["phases"].items()
    }
    return {
        "spans": spans,
        "events": events,
        "run_labels": {str(k): v for k, v in tracer.run_labels.items()},
        "phases": phases,
        "metrics": _canon_value(summary["metrics"]),
        "health_snapshots": [
            _canon_value(s.to_dict()) for s in monitor.snapshots
        ],
        "health_events": [_canon_value(e.to_dict()) for e in monitor.events],
    }


# ---------------------------------------------------------------------------
# Scenario builders
# ---------------------------------------------------------------------------
def engine_trace() -> dict:
    """Fig10-style run (paper 4-node cluster) plus a sensing-driven stretch
    on a dynamic cluster, fully instrumented."""
    tracer = Tracer()
    monitor = HealthMonitor().attach(tracer)

    # Fig. 10 shape: fixed capacities, sense once, regrid every 5.
    runtime = SamrRuntime(
        paper_rm3d_trace(num_regrids=6),
        Cluster.paper_four_node(),
        ACEHeterogeneous(),
        config=RuntimeConfig(
            iterations=30, regrid_interval=5, sensing_interval=0
        ),
        tracer=tracer,
    )
    runtime.run()

    # Dynamic cluster with periodic sensing: exercises the sense-triggered
    # repartition path.
    runtime = SamrRuntime(
        paper_rm3d_trace(num_regrids=5),
        Cluster.paper_linux_cluster(4, seed=5, dynamic=True, horizon_s=400.0),
        ACEHeterogeneous(),
        config=RuntimeConfig(iterations=15, regrid_interval=5, sensing_interval=3),
        tracer=tracer,
    )
    runtime.run()
    monitor.finish()
    return canonical_trace(tracer, monitor)


def distributed_trace() -> dict:
    """A real AMR kernel driven by DistributedAmrRun, instrumented."""
    tracer = Tracer()
    monitor = HealthMonitor().attach(tracer)
    kernel = AdvectionKernel(
        velocity=(1.0, 0.5), pulse_center=(8.0, 8.0), pulse_width=2.0
    )
    hierarchy = GridHierarchy(Box((0, 0), (32, 32)), kernel, max_levels=3)
    run = DistributedAmrRun(
        hierarchy,
        Cluster.paper_linux_cluster(4, seed=11),
        ACEHeterogeneous(),
        config=DistributedRunConfig(
            steps=9, regrid_interval=3, sensing_interval=3
        ),
        tracer=tracer,
    )
    run.run()
    monitor.finish()
    return canonical_trace(tracer, monitor)


def _assert_matches_golden(actual: dict, path: Path) -> None:
    golden = json.loads(path.read_text())
    # Compare section by section for actionable failure output.
    for key in golden:
        assert actual[key] == golden[key], (
            f"telemetry drift in {path.name}:{key} -- the repartition "
            "pipeline no longer reproduces the pre-refactor trace"
        )
    assert set(actual) == set(golden)


def test_engine_trace_matches_golden():
    _assert_matches_golden(engine_trace(), ENGINE_GOLDEN)


def test_distributed_trace_matches_golden():
    _assert_matches_golden(distributed_trace(), DISTRIBUTED_GOLDEN)


def _regen() -> None:
    DATA_DIR.mkdir(exist_ok=True)
    for path, build in (
        (ENGINE_GOLDEN, engine_trace),
        (DISTRIBUTED_GOLDEN, distributed_trace),
    ):
        path.write_text(json.dumps(build(), indent=1) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
