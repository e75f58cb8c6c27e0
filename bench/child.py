"""One launch of one workload, in a fresh interpreter.

``bench/run.py`` starts this file as a subprocess, several times per
workload, and reads the JSON object it prints last on stdout.  A launch
either times untraced passes (``--trace 0``: the end-to-end samples) or
runs the traced pass (``--trace 1``: wrappers installed by
:mod:`bench.layers`, spans kept in memory and written to
``bench/out/<workload>.spans.json`` at the end).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The script directory (bench/) must not be importable as top-level
# modules: bench/trace.py would shadow the standard library's ``trace``.
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from bench import layers, trace  # noqa: E402
from bench.workloads import WORKLOADS, Digest, Workload  # noqa: E402

OUT = ROOT / "bench" / "out"

#: A launch times at least two passes: with three launches that is six
#: samples even for the 3 s pass of rm3d32_observed, whose median over
#: three samples moved by 6 % between otherwise identical runs.
TIMED_MIN_PASSES = 2


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool) / 1024.0


class Passes:
    """Runs passes of one workload and verifies what they produce."""

    def __init__(self, workload: Workload, scratch: Path):
        self.workload = workload
        self.scratch = scratch
        self.count = 0
        self.first: Digest | None = None
        self.last: Digest | None = None
        self.verified: set[str] = set()
        self.attempted = 0
        self.failures: list[str] = []

    def _fresh_dir(self) -> Path:
        self.count += 1
        path = self.scratch / f"pass-{self.count}"
        path.mkdir(parents=True)
        return path

    def warm(self) -> None:
        for _ in range(self.workload.warmups):
            rep_dir = self._fresh_dir()
            self.workload.warm(rep_dir)
            shutil.rmtree(rep_dir)

    def run(self, before_checks=None) -> float:
        """One timed pass, then (untimed) digest, checks and clean-up.

        ``before_checks`` runs between the pass and its checks, while the
        process has allocated nothing but what the pass itself needed.
        """
        rep_dir = self._fresh_dir()
        start = time.perf_counter()
        out = self.workload.body(rep_dir)
        wall = time.perf_counter() - start
        if before_checks is not None:
            before_checks()
        self._verify(out)
        del out
        shutil.rmtree(rep_dir)
        return wall

    def record(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def _verify(self, out) -> None:
        workload = self.workload
        digest = workload.digest(out)
        # Full checks once per distinct output; a pass that reproduces a
        # verified output bit for bit needs only the equality check.
        if digest.fingerprint not in self.verified:
            self.verified.add(digest.fingerprint)
            for name, ok in workload.check(out):
                self.record(name, ok)
        if self.first is None:
            self.first = digest
        else:
            self.record(
                "pass_repeats_exactly",
                (digest.fingerprint, digest.sim_time_s, digest.max_imbalance_pct)
                == (
                    self.first.fingerprint,
                    self.first.sim_time_s,
                    self.first.max_imbalance_pct,
                ),
            )
        self.last = digest

    def until(
        self, budget_s: float, min_passes: int, before_pass=None, before_checks=None
    ) -> list[float]:
        """Timed passes until the budget is (to the nearest pass) used."""
        walls: list[float] = []
        while True:
            if before_pass is not None:
                before_pass(len(walls))
            walls.append(self.run(before_checks))
            if (
                len(walls) >= min_passes
                and sum(walls) + 0.5 * statistics.fmean(walls) >= budget_s
            ):
                return walls

    def summary(self) -> dict:
        digest = self.first
        return {
            "fingerprint": digest.fingerprint,
            "sim_time_s": digest.sim_time_s,
            "max_imbalance_pct": digest.max_imbalance_pct,
            "disk_bytes": digest.disk_bytes,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures,
        }


def timed_launch(passes: Passes, budget_s: float) -> dict:
    passes.warm()
    # The first reading is taken before any output check has allocated
    # anything: set-up, warm-up and one pass, as a one-shot user sees it.
    rss: list[float] = []
    walls = passes.until(
        budget_s, TIMED_MIN_PASSES, before_checks=lambda: rss.append(peak_rss_mb())
    )
    return {"walls": walls, "peak_rss_mb": rss[0], **passes.summary()}


def traced_launch(passes: Passes, budget_s: float, seed: int) -> dict:
    workload = passes.workload
    rec = trace.SpanRecorder()

    layers.install(rec)
    passes.warm()  # under the wrappers: first-call costs are spans too
    patched = rec.patched_attributes()
    rec.remove()
    passes.record(
        "wrappers_restored",
        all(getattr(owner, attr) is orig for owner, attr, orig in patched),
    )
    untraced_wall = passes.run()

    layers.install(rec)
    try:
        walls = passes.until(budget_s, 1, before_pass=lambda i: setattr(rec, "rep", i))
    finally:
        rec.remove()

    per_rep = trace.aggregate(rec.spans)
    rows, shares, unattributed = [], [], []
    for rep, wall in enumerate(walls):
        stats, root_cover = per_rep[rep]
        rows.append(layers.rep_metrics(rec, rep, stats))
        shares.append(layers.layer_shares(stats, rec, rep, wall))
        unattributed.append(max(0.0, 1.0 - root_cover / wall))
    metrics = dict.fromkeys(layers.METRIC_NAMES, 0.0)
    for name in rows[0]:
        metrics[name] = statistics.median(row[name] for row in rows)
    share = {
        layer: statistics.median(s.get(layer, 0.0) for s in shares)
        for layer in sorted({k for s in shares for k in s})
    }
    digest = passes.last
    metrics.update(digest.layer_counts)
    metrics["partition.first_call_s"] = layers.first_partition_call_s(rec)
    metrics["partition.max_imbalance_pct"] = digest.max_imbalance_pct or 0.0
    metrics["io.bytes_written"] = digest.disk_bytes or 0
    metrics["bench.trace_overhead_frac"] = (
        statistics.median(walls) / untraced_wall - 1.0
    )
    metrics["bench.unattributed_frac"] = statistics.median(unattributed)
    # Self times are exclusive, so layers + unattributed must rebuild
    # the traced wall; more than 2 % off means the span tree is broken.
    passes.record(
        "attribution_adds_up",
        all(
            abs(sum(s.values()) + u - 1.0) <= 0.02
            for s, u in zip(shares, unattributed)
        ),
    )
    metrics.update(layers.extras(workload, passes.scratch, untraced_wall, budget_s))

    last = len(walls) - 1
    stages = {
        stage: {"harness_s": seconds, "program_s": digest.stage_wall.get(stage)}
        for stage, seconds in layers.stage_seconds(rec, last).items()
    }
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"{workload.name}.spans.json"
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": workload.name,
                "seed": seed,
                "traced_walls_s": walls,
                "untraced_wall_s": untraced_wall,
                "spans": rec.to_records(),
                "leaves": {
                    f"{name}@{rep}": acc for (rep, name), acc in rec.leaves.items()
                },
                "counts": {
                    f"{name}@{rep}": v for (rep, name), v in rec.counts.items()
                },
            },
            fh,
        )
    return {
        "metrics": metrics,
        "layer_share": share,
        "stages": stages,
        "traced_wall_s": statistics.median(walls),
        "untraced_wall_s": untraced_wall,
        "spans_file": str(spans_path.relative_to(ROOT)),
        **passes.summary(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--t0", type=float, required=True, help="time.time() when the parent spawned us"
    )
    args = parser.parse_args(argv)

    scratch = OUT / "scratch" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload]()
        workload.setup(args.seed, scratch)
        # Inputs stay alive for the whole launch: keep the collector from
        # re-scanning them on every generation-2 pass while timing.
        gc.collect()
        gc.freeze()
        setup_s = time.time() - args.t0
        passes = Passes(workload, scratch)
        if args.trace:
            report = traced_launch(passes, args.seconds, args.seed)
        else:
            report = timed_launch(passes, args.seconds)
        report["setup_s"] = setup_s
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.flush()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
