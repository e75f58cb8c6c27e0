"""Resilience-cost export: write ``BENCH_resilience.json``.

Measures the wall-clock cost of the checkpoint/restart machinery and the
end-to-end latency of a kill-and-recover chaos run:

- **checkpoint save / restore**: serialize a stepped AMR hierarchy (real
  patch data, multiple levels) into a versioned checksummed snapshot and
  load it back with integrity verification, reported as throughput
  (``bytes_per_wall_second``, higher is better for ``repro bench-diff``);
- **chaos end-to-end**: the :func:`~repro.runtime.experiment.chaos_experiment`
  scenario (2 of 8 nodes killed mid-run, recovered later), reporting the
  simulated time-to-recover and the wall time of the full experiment.

The artifact feeds ``repro bench-diff`` alongside the telemetry and
partition benches; throughput keys diff with inverted direction.

Not pytest-collected -- CI runs it explicitly::

    PYTHONPATH=src python benchmarks/bench_resilience.py
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

from repro import __version__
from repro.amr.integrator import BergerOligerIntegrator
from repro.resilience.checkpoint import CheckpointManager, ResilienceConfig
from repro.runtime.experiment import _chaos_hierarchy, chaos_experiment
from repro.util.geometry import Layout

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_resilience.json"

REPEATS = 10


def _best_wall(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def stepped_hierarchy():
    """A hierarchy with real refined data: setup + 6 advection steps."""
    h = _chaos_hierarchy()
    integ = BergerOligerIntegrator(h, regrid_interval=3)
    integ.setup()
    for _ in range(6):
        integ.advance()
    return h


def bench_checkpoint() -> dict:
    h = stepped_hierarchy()
    assignment = Layout.from_pairs((box, 0) for box in h.box_list())
    manager = CheckpointManager(ResilienceConfig(checkpoint_interval=1))
    ckpt = manager.save(h, assignment, clock_time=0.0)
    nbytes = ckpt.nbytes

    save_wall = _best_wall(lambda: manager.save(h, assignment, 0.0))

    def restore():
        manager.restore_latest(h)

    restore_wall = _best_wall(restore)
    return {
        "payload_bytes": nbytes,
        "num_patches": sum(len(level.patches) for level in h.levels),
        "save": {
            "wall_seconds": save_wall,
            "bytes_per_wall_second": nbytes / save_wall,
        },
        "restore": {
            "wall_seconds": restore_wall,
            "bytes_per_wall_second": nbytes / restore_wall,
        },
    }


def bench_chaos() -> dict:
    t0 = time.perf_counter()
    stats = chaos_experiment(num_nodes=8, steps=12, kill=2)
    wall = time.perf_counter() - t0
    if not stats["bitwise_identical"]:
        raise AssertionError("chaos run diverged from the sequential run")
    return {
        "wall_seconds": wall,
        "sim_recovery_seconds": stats["recovery_seconds"],
        "sim_overhead_pct": stats["overhead_pct"],
        "num_restores": stats["num_restores"],
        "replayed_steps": stats["replayed_steps"],
    }


def main() -> None:
    checkpoint = bench_checkpoint()
    chaos = bench_chaos()
    summary = {
        "schema_version": 1,
        "repro_version": __version__,
        "python": platform.python_version(),
        "checkpoint": checkpoint,
        "chaos": chaos,
    }
    OUTPUT.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {OUTPUT}")
    print(
        f"  checkpoint: {checkpoint['payload_bytes']} bytes, save "
        f"{checkpoint['save']['wall_seconds'] * 1e3:.2f} ms, restore "
        f"{checkpoint['restore']['wall_seconds'] * 1e3:.2f} ms"
    )
    print(
        f"  chaos e2e: {chaos['wall_seconds']:.1f} s wall, "
        f"{chaos['sim_recovery_seconds']:.3f} sim s recovering, "
        f"{chaos['replayed_steps']} steps replayed"
    )


if __name__ == "__main__":
    main()
