"""Micro-benchmarks of the substrate hot paths.

Unlike the table/figure benches (which run an experiment once and assert
its shape), these time the inner kernels pytest-benchmark style: SFC
encoding, Berger-Rigoutsos clustering, partitioning one paper-scale epoch,
HDDA redistribution, and one AMR solver step.  They guard against
performance regressions in the code the runtime calls thousands of times.
"""

import numpy as np

from repro.amr.clustering import berger_rigoutsos
from repro.hdda import HDDA, HierarchicalIndexSpace
from repro.kernels.rm3d import RM3DKernel
from repro.kernels.workloads import paper_rm3d_trace
from repro.partition import ACEComposite, ACEHeterogeneous
from repro.runtime.experiment import PAPER_CAPACITIES
from repro.util.geometry import Box, Layout
from repro.util.sfc import hilbert_encode_many


def test_bench_hilbert_encoding(benchmark):
    rng = np.random.default_rng(0)
    coords = rng.integers(0, 1 << 10, size=(100_000, 3))
    keys = benchmark(hilbert_encode_many, coords, 10)
    assert len(keys) == 100_000
    # Injective: as many distinct keys as distinct coordinates.
    assert len(np.unique(keys)) == len(np.unique(coords, axis=0))


def test_bench_berger_rigoutsos(benchmark):
    rng = np.random.default_rng(1)
    mask = np.zeros((128, 128), dtype=bool)
    for _ in range(12):  # scattered blobs
        x, y = rng.integers(0, 112, size=2)
        mask[x : x + 16, y : y + 16] = rng.random((16, 16)) < 0.7
    boxes = benchmark(berger_rigoutsos, mask, efficiency=0.7, min_size=2)
    assert len(boxes) > 1


def test_bench_partition_heterogeneous(benchmark):
    epoch = paper_rm3d_trace(num_regrids=8).epoch(7)
    caps = np.tile(PAPER_CAPACITIES, 8) / 8  # 32 ranks
    part = ACEHeterogeneous()
    result = benchmark(part.partition, epoch, caps)
    result.validate_covers(epoch)


def test_bench_partition_composite(benchmark):
    epoch = paper_rm3d_trace(num_regrids=8).epoch(7)
    caps = np.full(32, 1 / 32)
    part = ACEComposite()
    result = benchmark(part.partition, epoch, caps)
    result.validate_covers(epoch)


def test_bench_hdda_redistribution(benchmark):
    space = HierarchicalIndexSpace(Box((0, 0), (256, 256)), max_levels=2)
    tiles = [
        Box((i * 8, j * 8), ((i + 1) * 8, (j + 1) * 8))
        for i in range(32)
        for j in range(32)
    ]
    a1 = Layout.from_pairs((b, i % 8) for i, b in enumerate(tiles))
    a2 = Layout.from_pairs((b, (i + 3) % 8) for i, b in enumerate(tiles))

    def roundtrip():
        h = HDDA(space, num_procs=8)
        h.apply_assignment(a1)
        plan = h.apply_assignment(a2)
        return h, plan

    h, plan = benchmark(roundtrip)
    assert plan.total_blocks > 0
    h.check_invariants()


def test_bench_rm3d_step(benchmark):
    kernel = RM3DKernel(domain_shape=(64, 16, 16))
    u = kernel.initial_condition(Box((0, 0, 0), (64, 16, 16)), 1.0)
    dt = kernel.stable_dt(u, 1.0, 0.3)
    out = benchmark(kernel.step, u, dt, 1.0)
    assert out.shape == u.shape


def test_bench_rm3d_muscl_step(benchmark):
    kernel = RM3DKernel(domain_shape=(64, 16, 16), order=2)
    u = kernel.initial_condition(Box((0, 0, 0), (64, 16, 16)), 1.0)
    dt = kernel.stable_dt(u, 1.0, 0.3)
    out = benchmark(kernel.step, u, dt, 1.0)
    assert out.shape == u.shape


def test_bench_multigrid_vcycle(benchmark):
    import numpy as np

    from repro.solvers import PoissonMultigrid

    n = 128
    dx = 1.0 / n
    x = (np.arange(n) + 0.5) * dx
    X, Y = np.meshgrid(x, x, indexing="ij")
    f = 2 * np.pi**2 * np.sin(np.pi * X) * np.sin(np.pi * Y)
    mg = PoissonMultigrid((n, n), dx=dx)

    def solve():
        return mg.solve(f, tol=1e-8)

    u, info = benchmark(solve)
    assert info["converged"]


# --------------------------------------------------------------------------
# The partitioner's work queue (heapq swap regression guards)
# --------------------------------------------------------------------------
def _drain_work_queue(n: int) -> int:
    """Mirror ACEHeterogeneous's queue access pattern at size ``n``.

    Build a work-ascending (work, seq, item) queue, then pop everything
    while pushing split remainders back for a third of the pops -- the
    same pop/push mix the partitioner's fill loop produces.
    """
    import heapq

    queue = [(float((i * 7919) % 97), i, i) for i in range(n)]
    queue.sort()
    heapq.heapify(queue)
    seq = n
    popped = 0
    budget = n // 3  # bounded number of re-pushed "remainders"
    while queue:
        work, _, item = heapq.heappop(queue)
        popped += 1
        if budget > 0 and item % 3 == 0:
            heapq.heappush(queue, (work + 1.0, seq, item + n))
            seq += 1
            budget -= 1
    return popped


def test_bench_work_queue_drain(benchmark):
    n = 50_000
    popped = benchmark(_drain_work_queue, n)
    assert popped == n + n // 3


def test_work_queue_scales_linearithmically():
    """4x the boxes must cost nowhere near the 16x a quadratic queue does.

    The pre-heapq queue (``list.pop(0)`` + ``bisect.insort``) made every
    operation O(n), so quadrupling the queue quadrupled *each* of the 4x
    operations: a ~16x wall ratio.  The heap keeps operations O(log n);
    the observed ratio sits near 4.3x, and the generous 10x bound below
    stays red for any quadratic regression while tolerating noisy CI.
    """
    import time

    sizes = (8_000, 32_000)
    walls = []
    for n in sizes:
        _drain_work_queue(n)  # warm-up
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            _drain_work_queue(n)
            best = min(best, time.perf_counter() - t0)
        walls.append(best)
    ratio = walls[1] / walls[0]
    assert ratio < 10.0, (
        f"queue drain scaled {ratio:.1f}x for 4x items "
        f"({walls[0]*1e3:.2f} ms -> {walls[1]*1e3:.2f} ms); "
        f"expected ~4x (linearithmic), got quadratic-like behaviour"
    )
