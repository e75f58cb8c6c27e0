"""``repro learn fit|inspect|replay`` and ``repro explain``: cost models
fitted from campaign artifacts, and the audit of a decision ledger."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cli.common import add_group, at_least, user_errors


def _print_learn_summary(summary: dict) -> None:
    cap = summary["capacity_model"]
    itm = summary["iter_model"]
    mig = summary["migration_model"]
    probe = summary["probe_model"]

    def _state(cold: bool) -> str:
        return "cold" if cold else "fitted"

    print(
        f"  iteration model:  {_state(itm['cold'])} "
        f"(n={itm['n']}, beta={itm['beta']:.4g}, "
        f"intercept={itm['intercept']:.4g})"
    )
    print(
        f"  migration model:  {_state(mig['cold'])} "
        f"(n={mig['n']}, mean={mig['mean_seconds']:.4g}s)"
    )
    print(
        f"  probe model:      {_state(probe['cold'])} "
        f"(n={probe['n']}, mean={probe['mean_seconds']:.4g}s)"
    )
    print(
        f"  capacity model:   {_state(cap['cold'])} "
        f"(window={cap['window_len']}, "
        f"drift_rate={cap['drift_rate']:.4g}/s)"
    )
    print(f"  sensing interval: {summary['sensing_interval']} its")


@user_errors("ExperimentError", "learn")
def _learn_fit(args: argparse.Namespace) -> int:
    """Ingest campaign artifacts into a history store and fit models."""
    from repro.learn import ExecutionHistoryStore, LearnController

    campaign_path = Path(args.campaign)
    if not (campaign_path / "artifacts").is_dir():
        print(
            f"no artifacts/ under {campaign_path}; run the campaign first",
            file=sys.stderr,
        )
        return 2
    directory = Path(args.store) if args.store else campaign_path / "learn"
    store = ExecutionHistoryStore(directory)
    added = store.ingest_artifacts(campaign_path)
    learn = LearnController(history=store)
    counts = learn.warm_start(store)
    print(
        f"history store {directory}: {len(store)} rows "
        f"({added} newly ingested from {campaign_path}/artifacts)"
    )
    print(
        "warm-started models from "
        + ", ".join(f"{v} {k}" for k, v in counts.items())
        + " rows:"
    )
    _print_learn_summary(learn.summary())
    return 0


def _history_store(path: str):
    """The history store at ``path``, or ``None`` (the error printed)."""
    from repro.learn import ExecutionHistoryStore

    directory = Path(path)
    if not directory.is_dir():
        print(f"no history store at {directory}", file=sys.stderr)
        return None
    return ExecutionHistoryStore(directory)


@user_errors("ExperimentError", "learn")
def _learn_inspect(args: argparse.Namespace) -> int:
    """Print a history store's contents and the models it supports."""
    from repro.learn import LearnController

    store = _history_store(args.store)
    if store is None:
        return 2
    print(f"history store {Path(args.store)}: {len(store)} rows")
    if len(store):
        keys = store.column("cell_key")
        for cell_key in store.sources():
            n = int((keys == cell_key).sum())
            print(f"  cell {cell_key}: {n} rows")
        print("  phases: " + ", ".join(store.phases()))
    learn = LearnController(history=None)
    learn.warm_start(store)
    _print_learn_summary(learn.summary())
    return 0


@user_errors("ExperimentError", "learn")
def _learn_replay(args: argparse.Namespace) -> int:
    """Re-run the dynamic-load scenario with warm-started models.

    Runs the paper's fixed-f loop and the fully learned loop (adaptive
    sensing + payoff gate + transient forecasting), the latter seeded
    from the history store, and prints the wall-clock comparison.
    """
    from repro.cluster import Cluster
    from repro.learn import LearnConfig, LearnController
    from repro.monitor.service import ResourceMonitor
    from repro.partition import ACEHeterogeneous
    from repro.runtime.ablation import learn_scenario
    from repro.runtime.engine import RuntimeConfig, SamrRuntime

    store = _history_store(args.store)
    if store is None:
        return 2

    iterations, seed = args.iterations, args.seed
    regrid_interval = 7
    workload, cal_seconds = learn_scenario(iterations, regrid_interval, seed)
    horizon = 0.8 * cal_seconds

    def run_once(learn: LearnController | None):
        cluster = Cluster.paper_linux_cluster(
            8, seed=seed, dynamic=True, horizon_s=horizon
        )
        return SamrRuntime(
            workload,
            cluster,
            ACEHeterogeneous(),
            monitor=ResourceMonitor(cluster),
            config=RuntimeConfig(
                iterations=iterations,
                regrid_interval=regrid_interval,
                sensing_interval=20,
            ),
            learn=learn,
        ).run()

    baseline = run_once(None)
    learn = LearnController(
        LearnConfig(
            adaptive_sensing=True, payoff_gate=True,
            transient_forecast=True,
        )
    )
    counts = learn.warm_start(store)
    replayed = run_once(learn)
    win = (
        (baseline.total_seconds - replayed.total_seconds)
        / baseline.total_seconds * 100.0
        if baseline.total_seconds
        else 0.0
    )
    print(
        f"replay on load-dynamics ({iterations} its, seed {seed}), "
        f"warm-started from {len(store)} history rows "
        f"({sum(counts.values())} replayed):"
    )
    print(
        f"  fixed f=20: {baseline.total_seconds:8.1f}s "
        f"({baseline.num_sensings} sensings)"
    )
    print(
        f"  learned:    {replayed.total_seconds:8.1f}s "
        f"({replayed.num_sensings} sensings, {win:+.1f}%)"
    )
    _print_learn_summary(learn.summary())
    return 0


def _fmt_audit_seconds(value) -> str:
    """Render a reconciled seconds value ('-' for absent, 'inf' kept)."""
    if value is None:
        return "-"
    return f"{value:.4g}"


def _explain_summary(report: dict) -> list[str]:
    gate = report["gate"]
    cal = report["calibration"]
    reg = report["regret"]
    lines = [
        f"{report['records']} ledger records: "
        + ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(report["counts"].items())
        ),
        f"gate: {gate['decisions']} decisions, "
        f"{gate['accepts']} repartitions, {gate['skips']} skips "
        + "("
        + ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(gate["reasons"].items())
        )
        + ")"
        if gate["decisions"]
        else "gate: no decisions recorded",
    ]
    if cal["predictions"]:
        lines.append(
            f"calibration: {cal['coverage']:.1%} of {cal['predictions']} "
            f"warm 95% CIs contained the truth (target "
            f"{cal['target']:.0%}; {cal['cold_predictions']} cold), "
            f"mean |err| {_fmt_audit_seconds(cal['mean_abs_error_seconds'])}s"
        )
    if reg["decisions"]:
        lines.append(
            f"regret: {reg['cumulative_regret_seconds']:.4g}s vs the "
            f"hindsight oracle ({reg['disagreements']}/{reg['decisions']} "
            f"decisions differ, agreement {reg['agreement_rate']:.1%})"
        )
    fc = report["forecast"]
    if fc["forecasts"]:
        lines.append(
            f"forecast: {fc['scored']}/{fc['forecasts']} capacity "
            "forecasts scored against the next probe, mean |err| "
            f"{_fmt_audit_seconds(fc['mean_abs_error'])}"
        )
    return lines


def _explain_decision(rows: list[dict], seq: int) -> int:
    """Reconstruct one gate decision bit-exactly; exit 1 on divergence."""
    from repro.learn.audit import verify_decision

    record = next(
        (r for r in rows if int(r.get("seq", -1)) == seq), None
    )
    if record is None:
        print(f"explain error: no record with seq {seq}", file=sys.stderr)
        return 2
    if record.get("kind") != "gate":
        print(
            f"decision {seq} is a {record.get('kind')!r} record:"
        )
        for key in sorted(record):
            print(f"  {key} = {record[key]}")
        return 0
    check = verify_decision(record)
    action = "repartition" if check["recorded"]["repartition"] else "skip"
    print(
        f"decision {seq} (iteration {record.get('iteration')}, "
        f"t={record.get('t')}): {action} [{check['recorded']['reason']}]"
    )
    print(
        f"  inputs: {len(record.get('loads', []))} nodes, "
        f"horizon {record['horizon_iters']} its, "
        f"beta={record.get('beta')}, "
        f"migration_seconds={record.get('migration_seconds')}, "
        f"gate_safety={record.get('gate_safety')}"
    )
    print(
        f"  prediction: payoff {record.get('payoff_seconds')}s "
        f"(95% CI [{record.get('payoff_lo_seconds')}, "
        f"{record.get('payoff_hi_seconds')}]) "
        f"vs cost {record.get('cost_seconds')}s"
    )
    print(
        f"  model digest: iter n={record.get('iter_n')} "
        f"slope={record.get('iter_slope')}, "
        f"migration n={record.get('migration_n')}"
    )
    if check["match"]:
        print("  replay: bit-exact (gate re-run from recorded inputs)")
        return 0
    print("  replay: DIVERGED on " + ", ".join(check["mismatches"]))
    for name in check["mismatches"]:
        print(
            f"    {name}: recorded {check['recorded'][name]!r} "
            f"vs replayed {check['replayed'][name]!r}"
        )
    return 1


@user_errors("ExperimentError", "explain")
def _explain(args: argparse.Namespace) -> int:
    """``repro explain``; user errors exit 2, divergence 1."""
    from repro.learn.audit import load_ledger_rows, reconcile, verify_decision

    rows = load_ledger_rows(args.ledger)
    if args.decision is not None:
        return _explain_decision(rows, args.decision)
    report = reconcile(rows)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    for line in _explain_summary(report):
        print(line)
    if args.calibration:
        cal = report["calibration"]
        print("calibration detail:")
        for key in (
            "predictions",
            "cold_predictions",
            "covered",
            "coverage",
            "target",
            "mean_abs_error_seconds",
            "mean_signed_error_seconds",
        ):
            print(f"  {key} = {cal[key]}")
    if args.regret:
        reg = report["regret"]
        print("regret detail (per gate decision):")
        print(
            f"  oracle beta={reg['oracle_beta']}, "
            f"oracle migration={reg['oracle_migration_seconds']}"
        )
        for row in reg["per_decision"]:
            mark = "agree" if row["agree"] else (
                f"DIFFER regret={row['regret_seconds']:.4g}s"
            )
            print(
                f"  seq {row['seq']:>4}: recorded="
                f"{'repartition' if row['recorded'] else 'skip'} "
                f"oracle="
                f"{'repartition' if row['oracle'] else 'skip'} "
                f"[{mark}]"
            )
    if args.verify:
        checks = [verify_decision(r) for r in rows if r.get("kind") == "gate"]
        bad = [c for c in checks if not c["match"]]
        print(
            f"verify: {len(checks) - len(bad)}/{len(checks)} gate "
            "decisions replay bit-exactly"
        )
        if bad:
            for c in bad:
                print(
                    f"  seq {c['seq']} diverged on "
                    + ", ".join(c["mismatches"])
                )
            return 1
    return 0


def register(subparsers: argparse._SubParsersAction) -> None:
    learn = add_group(
        subparsers, "learn",
        help="execution-history cost models: fit from campaign "
        "artifacts, inspect a store, replay with learned policies",
    )
    lfit = learn.add_parser(
        "fit",
        help="ingest a campaign's artifacts/ into a history store and "
        "fit the cost models",
    )
    lfit.add_argument("campaign", help="campaign directory with artifacts/<cell>/")
    lfit.add_argument(
        "--store", default=None,
        help="history store directory (default: <campaign>/learn)",
    )
    lfit.set_defaults(run=_learn_fit)
    linspect = learn.add_parser(
        "inspect", help="print a history store's rows and model fits"
    )
    linspect.add_argument("store", help="history store directory")
    linspect.set_defaults(run=_learn_inspect)
    lreplay = learn.add_parser(
        "replay",
        help="run the dynamic-load scenario with models warm-started "
        "from a history store, vs the fixed-f baseline",
    )
    lreplay.add_argument("store", help="history store directory")
    lreplay.add_argument(
        "--iterations", type=at_least(1), default=60,
        help="AMR iterations per run (default: 60)",
    )
    lreplay.add_argument(
        "--seed", type=int, default=11,
        help="cluster/load-script seed (default: 11)",
    )
    lreplay.set_defaults(run=_learn_replay)
    explain = subparsers.add_parser(
        "explain",
        help="audit a decision ledger: reconstruct decisions, score "
        "CI calibration, price regret vs the hindsight oracle",
    )
    explain.add_argument(
        "ledger", help="decision-ledger directory (or its decisions.jsonl)"
    )
    explain.add_argument(
        "--decision", type=int, default=None, metavar="SEQ",
        help="reconstruct one decision bit-exactly from its recorded "
        "inputs (exit 1 on divergence)",
    )
    explain.add_argument(
        "--calibration", action="store_true",
        help="print the CI-coverage calibration detail",
    )
    explain.add_argument(
        "--regret", action="store_true",
        help="print the per-decision oracle-replay regret detail",
    )
    explain.add_argument(
        "--verify", action="store_true",
        help="replay every gate decision; exit 1 if any diverges",
    )
    explain.add_argument(
        "--json", action="store_true",
        help="emit the full reconciliation report as JSON",
    )
    explain.set_defaults(run=_explain)
