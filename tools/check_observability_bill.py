#!/usr/bin/env python
"""Fail when observing the paper run costs more than its budget.

``rm3d32_observed`` is ``rm3d32_trace`` plus everything the run records,
writes and reads back about itself: tracer, health monitor, learner,
decision ledger, JSONL export, profile passes, dashboard and reconcile.
The ratio of their ``wall_s`` is therefore the instrumentation bill per
unit of run (ROADMAP item 4).  This check reads the file the benchmark
harness merges its numbers into and fails when that ratio exceeds
:data:`MAX_RATIO` on any recorded seed, or when no seed recorded both
workloads.

Run from the repo root (CI does)::

    python3 bench/run.py --seconds 2 --record /tmp/bench-record.json
    python tools/check_observability_bill.py /tmp/bench-record.json

The planted-offender self-test runs first, every time.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Budget for ``rm3d32_observed.wall_s / rm3d32_trace.wall_s``: the
#: largest of ten ``bench/run.py --seconds 2`` readings (2.27-3.06,
#: seed 11; 2-core x86_64, Python 3.11, numpy 2.4) times 1.25.  Lower it
#: when a change makes the observed run cheaper; never raise it to pass.
MAX_RATIO = 3.82

TRACE, OBSERVED = "rm3d32_trace", "rm3d32_observed"


def bills(record: dict) -> dict[str, float]:
    """``observed / trace`` ``wall_s`` per seed that recorded both."""
    out = {}
    for seed, workloads in sorted(record.get("seeds", {}).items()):
        if TRACE in workloads and OBSERVED in workloads:
            out[seed] = workloads[OBSERVED]["wall_s"] / workloads[TRACE]["wall_s"]
    return out


def violations(record: dict) -> list[str]:
    ratios = bills(record)
    if not ratios:
        return [f"no seed recorded both {TRACE} and {OBSERVED}"]
    return [
        f"seed {seed}: {OBSERVED} costs {ratio:.2f}x {TRACE}"
        f" (budget {MAX_RATIO}x)"
        for seed, ratio in ratios.items()
        if ratio > MAX_RATIO
    ]


def self_test() -> list[str]:
    """The check must flag exactly the planted offender."""

    def seed(ratio: float) -> dict:
        return {TRACE: {"wall_s": 0.2}, OBSERVED: {"wall_s": 0.2 * ratio}}

    planted = {
        "seeds": {
            "11": seed(MAX_RATIO * 1.01),
            "12": seed(MAX_RATIO * 0.99),
            "13": {TRACE: {"wall_s": 0.2}},
        }
    }
    failures = []
    got = [v.split(":")[0] for v in violations(planted)]
    if got != ["seed 11"]:
        failures.append(
            f"self-test: flagged {got} of the planted record, expected"
            " ['seed 11']"
        )
    if not violations({"seeds": {"13": planted["seeds"]["13"]}}):
        failures.append("self-test: a record without both workloads passed")
    return failures


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        print("usage: check_observability_bill.py RECORD.json", file=sys.stderr)
        return 2
    record = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    problems = self_test() + violations(record)
    if problems:
        print("observability bill over budget:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    described = ", ".join(
        f"seed {seed} {ratio:.2f}x" for seed, ratio in bills(record).items()
    )
    print(f"observability bill: {described} (budget {MAX_RATIO}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
