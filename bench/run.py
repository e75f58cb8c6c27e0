"""Benchmark entry point: seven workloads, end to end and layer by layer.

    python3 bench/run.py                         # every workload, end-to-end pass
    python3 bench/run.py --traced                # ... plus the traced pass
    python3 bench/run.py --workload rm3d32_trace --seed 11 --seconds 10 --trace 0
    python3 bench/run.py --repeat-check [--runs 10]

With ``--workload`` the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``): the end-to-end
metrics of ``BENCHMARK.json`` for ``--trace 0``, its per-layer metrics
for ``--trace 1``.  Every pass of a workload runs in a fresh child
process (:mod:`bench.child`); this file only starts them, pools their
samples and prints.  See ``bench/README.md`` for the protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BASELINE_PATH = BENCH / "BASELINE.json"

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: Fresh processes per end-to-end pass; ``setup_s`` and ``peak_rss_mb``
#: are medians over them, ``wall_s`` over their pooled timed passes.
LAUNCHES = 3
CHILD_TIMEOUT_S = 170


def launch(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one child to completion and return the report it printed."""
    argv = [
        sys.executable,
        str(BENCH / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--trace", "1" if traced else "0",
        "--t0", repr(time.time()),
    ]  # fmt: skip
    done = subprocess.run(
        argv, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end_pass(workload: str, seed: int, seconds: float) -> dict:
    """``LAUNCHES`` fresh processes; pooled samples and verified outputs."""
    reports = [
        launch(workload, seed, seconds / LAUNCHES, traced=False)
        for _ in range(LAUNCHES)
    ]
    first = reports[0]
    attempted = sum(r["attempted"] for r in reports) + 1
    failures = [name for r in reports for name in r["failures"]]
    # sim_time_s / max_imbalance_pct / the output fingerprint must be
    # identical in every launch of one seed, not only inside a launch.
    same = all(
        (r["fingerprint"], r["sim_time_s"], r["max_imbalance_pct"])
        == (first["fingerprint"], first["sim_time_s"], first["max_imbalance_pct"])
        for r in reports
    )
    if not same:
        failures.append("launches_repeat_exactly")
    return {
        "walls": [w for r in reports for w in r["walls"]],
        "setups": [r["setup_s"] for r in reports],
        "rss": [r["peak_rss_mb"] for r in reports],
        "sim_time_s": first["sim_time_s"],
        "max_imbalance_pct": first["max_imbalance_pct"],
        "disk_bytes": first["disk_bytes"],
        "fingerprint": first["fingerprint"],
        "attempted": attempted,
        "failures": failures,
    }


def end_to_end_metrics(e2e: dict) -> dict[str, float]:
    return {
        "wall_s": statistics.median(e2e["walls"]),
        "setup_s": statistics.median(e2e["setups"]),
        "peak_rss_mb": statistics.median(e2e["rss"]),
        "sim_time_s": e2e["sim_time_s"],
    }


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def print_end_to_end(workload: str, seed: int, e2e: dict) -> None:
    print(f"\n== {workload} (seed {seed}) -- end to end, wrappers off")

    def row(name, unit, values):
        q1, q2, q3 = quartiles(values)
        print(
            f"  {name:<18} {q2:>14.6g} {unit:<5} "
            f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"
        )

    row("wall_s", "s", e2e["walls"])
    row("setup_s", "s", e2e["setups"])
    row("peak_rss_mb", "MB", e2e["rss"])
    print(f"  {'sim_time_s':<18} {e2e['sim_time_s']:>14.9g} s     (simulated; repeats exactly)")
    if e2e["max_imbalance_pct"] is not None:
        print(f"  {'max_imbalance_pct':<18} {e2e['max_imbalance_pct']:>14.6g} %     (repeats exactly)")
    if e2e["disk_bytes"] is not None:
        print(f"  {'disk_mb':<18} {e2e['disk_bytes'] / 1e6:>14.6g} MB")
    failed = len(e2e["failures"])
    print(
        f"  {'failed_frac':<18} {failed / e2e['attempted']:>14.6g} ratio "
        f"({failed} failed of {e2e['attempted']} checks)"
    )
    for name in e2e["failures"]:
        print(f"    FAILED: {name}")


def predicted_shares(workload: str) -> dict[str, float]:
    """Layer shares of the committed baseline: the prediction for this run."""
    if not BASELINE_PATH.is_file():
        return {}
    seeds = json.loads(BASELINE_PATH.read_text(encoding="utf-8")).get("seeds", {})
    for seed in sorted(seeds, key=int):
        entry = seeds[seed].get(workload, {})
        if "layer_share" in entry:
            return {
                **entry["layer_share"],
                "(unattributed)": entry["per_layer"]["bench.unattributed_frac"],
            }
    return {}


def print_traced(workload: str, seed: int, predicted: dict, report: dict) -> None:
    print(f"== {workload} (seed {seed}) -- traced pass")
    print(
        f"  wall: traced {report['traced_wall_s']:.4f} s, untraced "
        f"{report['untraced_wall_s']:.4f} s; spans -> {report['spans_file']}"
    )
    print(f"  {'layer':<12} {'predicted':>10} {'measured':>10} {'residual':>10}   (share of traced wall_s)")
    measured = dict(report["layer_share"])
    measured["(unattributed)"] = report["metrics"]["bench.unattributed_frac"]
    for layer in sorted(set(predicted) | set(measured)):
        p, m = predicted.get(layer), measured.get(layer, 0.0)
        p_txt = f"{p:10.4f}" if p is not None else f"{'n/a':>10}"
        r_txt = f"{m - p:+10.4f}" if p is not None else f"{'n/a':>10}"
        print(f"  {layer:<12} {p_txt} {m:10.4f} {r_txt}")
    if any(s["program_s"] is not None for s in report["stages"].values()):
        print(f"  {'stage':<12} {'harness_s':>10} {'program_s':>10} {'gap_s':>10}   (harness wrapper vs program span wall)")
        for stage, s in report["stages"].items():
            print(
                f"  {stage:<12} {s['harness_s']:10.5f} {s['program_s']:10.5f} "
                f"{s['harness_s'] - s['program_s']:+10.5f}"
            )
    for name, value in report["metrics"].items():
        print(f"  {name:<34} {value:>16.9g} {PER_LAYER[name]['unit']}")
    for name in report["failures"]:
        print(f"    FAILED: {name}")


# ----------------------------------------------------------------------
# --repeat-check
# ----------------------------------------------------------------------
def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def repeat_check(workloads: list[str], seed: int, seconds: float, runs: int) -> tuple[bool, dict]:
    """Two sets of ``runs`` runs of the same code, compared to the bounds.

    This is the acceptance procedure of the benchmark itself: per set the
    median and inter-quartile distance of each end-to-end metric over the
    runs (one seed each: seed, seed+1, ...), the spread as a share of the
    median, and whether the two medians agree within the metric's bound.
    """
    ok = True
    spread_record: dict = {}
    for workload in workloads:
        sets: list[list[dict]] = [[], []]
        for which in (0, 1):
            for k in range(runs):
                e2e = end_to_end_pass(workload, seed + k, seconds)
                ok = ok and not e2e["failures"]
                sets[which].append(end_to_end_metrics(e2e))
        print(f"\n== {workload}: two sets of {runs} run(s), seeds {seed}..{seed + runs - 1}")
        print(f"  {'metric':<12} {'median A':>12} {'median B':>12} {'iqr A':>10} {'iqr B':>10} {'spread':>8} {'B vs A':>8} {'bound':>6}")
        for name, metric in END_TO_END.items():
            cols = [[run[name] for run in s] for s in sets]
            (q1a, ma, q3a), (q1b, mb, q3b) = quartiles(cols[0]), quartiles(cols[1])
            spread = max((q3a - q1a) / ma, (q3b - q1b) / mb)
            drift = max(worse_by(metric, ma, mb), worse_by(metric, mb, ma))
            verdict = ""
            if drift > metric["bound"]:
                verdict, ok = "  MEDIANS DISAGREE", False
            elif name != "setup_s" and spread > metric["bound"]:
                verdict, ok = "  SPREAD OVER BOUND", False
            if name == "sim_time_s" and cols[0] != cols[1]:
                verdict, ok = "  NOT REPEATABLE", False
            print(
                f"  {name:<12} {ma:>12.6g} {mb:>12.6g} {q3a - q1a:>10.4g} "
                f"{q3b - q1b:>10.4g} {spread:>8.4f} {drift:>+8.4f} {metric['bound']:>6}{verdict}"
            )
            spread_record.setdefault(workload, {})[name] = {
                "median_a": ma, "median_b": mb, "spread": spread, "runs": runs,
            }  # fmt: skip
    return ok, spread_record


# ----------------------------------------------------------------------
def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "launches": LAUNCHES,
    }


def record(path: Path, keys: list[str], value: dict) -> None:
    """Set ``file[keys[0]][keys[1]]... = value`` in a JSON file."""
    data = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    data["environment"] = environment()
    data["claim"] = None  # this harness defines the baseline; it claims no gain
    node = data
    for key in keys[:-1]:
        node = node.setdefault(key, {})
    node[keys[-1]] = value
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all seven)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--seconds", type=float, default=float(SPEC["run_seconds"]),
        help="timed passes per workload run for about this long",
    )  # fmt: skip
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced pass only")
    parser.add_argument("--traced", action="store_true", help="end-to-end pass, then the traced pass")
    parser.add_argument("--repeat-check", action="store_true", help="two sets of runs must agree within the bounds")
    parser.add_argument("--runs", type=int, default=3, help="runs per set for --repeat-check (seeds seed..seed+runs-1)")
    parser.add_argument("--record", type=Path, help="merge this run's numbers into a JSON file")
    args = parser.parse_args(argv)
    sys.stdout.reconfigure(line_buffering=True)  # progress shows when piped

    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else WORKLOADS

    if args.repeat_check:
        ok, spreads = repeat_check(workloads, args.seed, args.seconds, args.runs)
        if args.record:
            for workload, value in spreads.items():
                record(args.record, ["spread", workload], value)
        print("\nrepeat-check:", "PASS" if ok else "FAIL")
        return 0 if ok else 1

    attempted = failed = 0
    for workload in workloads:
        entry: dict = {}
        result_metrics: dict = {}  # printed for --workload, the only one then
        if args.traced or args.trace == 0:
            e2e = end_to_end_pass(workload, args.seed, args.seconds)
            print_end_to_end(workload, args.seed, e2e)
            attempted += e2e["attempted"]
            failed += len(e2e["failures"])
            values = end_to_end_metrics(e2e)
            result_metrics.update(
                (name, {"value": values[name], "unit": END_TO_END[name]["unit"]})
                for name in END_TO_END
            )
            q1, _, q3 = quartiles(e2e["walls"])
            entry.update(values, wall_q1=q1, wall_q3=q3, n=len(e2e["walls"]),
                         max_imbalance_pct=e2e["max_imbalance_pct"],
                         disk_bytes=e2e["disk_bytes"], checks=e2e["attempted"])  # fmt: skip
        if args.traced or args.trace == 1:
            predicted = predicted_shares(workload)
            print(f"\n{workload}: predicted layer shares of wall_s (BASELINE.json): " + (
                ", ".join(f"{k} {v:.3f}" for k, v in predicted.items()) or "none recorded"
            ))  # fmt: skip
            report = launch(workload, args.seed, args.seconds, traced=True)
            print_traced(workload, args.seed, predicted, report)
            attempted += report["attempted"]
            failed += report["failed"]
            result_metrics.update(
                (name, {"value": report["metrics"][name], "unit": PER_LAYER[name]["unit"]})
                for name in PER_LAYER
            )
            entry.update(layer_share=report["layer_share"], per_layer=report["metrics"])
        if args.record:
            record(args.record, ["seeds", str(args.seed), workload], entry)

    print(f"\nfailed_frac = {failed / attempted:.6g} ({failed} failed of {attempted} checks)")
    if args.workload:
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": result_metrics,
        }))  # fmt: skip
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
