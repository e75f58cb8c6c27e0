"""``repro trace / report / profile / top / chaos``: runs under an
enabled tracer, or an exported ``.events.jsonl`` trace read back."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from repro.cli.common import add_experiment, add_out_dir, at_least
from repro.cli.experiments import lookup_experiment

if TYPE_CHECKING:
    from repro.telemetry import HealthMonitor, TraceModel, Tracer

_TARGET_HELP = "experiment id from 'list', or path to an exported .events.jsonl trace"


def _load_model_or_fail(path: Path) -> TraceModel | None:
    """Read a JSONL trace into its model, or print one clear line and
    return ``None``.

    Every CLI path that reads a user-supplied trace file funnels through
    here so a missing, unreadable, corrupt or older-format file is always
    a one-line error and exit code 2, never a traceback.
    """
    from repro.telemetry import TraceModel
    from repro.util.errors import TelemetryError

    if not path.is_file():
        print(f"trace file not found: {path}", file=sys.stderr)
        return None
    records: list[dict] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError(
                        f"line {lineno}: expected a JSON object, "
                        f"got {type(record).__name__}"
                    )
                records.append(record)
    except (json.JSONDecodeError, UnicodeDecodeError, ValueError, OSError) as exc:
        print(f"corrupt trace file {path}: {exc}", file=sys.stderr)
        return None
    if not records:
        print(f"trace file {path} contains no records", file=sys.stderr)
        return None
    try:
        return TraceModel(records)
    except TelemetryError as exc:
        print(f"cannot read trace file {path}: {exc}", file=sys.stderr)
        return None


def _trace_file(target: str) -> tuple[TraceModel | None, str] | None:
    """``(model, stem)`` when ``target`` names an exported trace file
    rather than an experiment id; ``model`` is ``None`` (the error
    printed) for a file that cannot be read."""
    path = Path(target)
    if path.suffix != ".jsonl" and not path.is_file():
        return None
    stem = path.name.removesuffix(".jsonl").removesuffix(".events")
    return _load_model_or_fail(path), stem


def _run_experiment(experiment: str, quick: bool, tracer: Tracer) -> str | None:
    """Run ``experiment`` under ``tracer``; its printed report, or
    ``None`` (the error already printed) for an unknown id."""
    from repro.telemetry import activate

    fn = lookup_experiment(experiment)
    if fn is None:
        return None
    with activate(tracer):
        return fn(quick)


def _trace(args: argparse.Namespace) -> int:
    """Run one experiment instrumented; write trace + metrics artifacts."""
    from repro.telemetry import (
        Tracer,
        aggregate_phases,
        write_chrome_trace,
        write_jsonl,
        write_metrics_json,
    )

    tracer = Tracer()
    output = _run_experiment(args.experiment, args.quick, tracer)
    if output is None:
        return 2
    print(output)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / f"{args.experiment}.trace.json"
    events_path = out / f"{args.experiment}.events.jsonl"
    metrics_path = out / f"{args.experiment}.metrics.json"
    write_chrome_trace(tracer, trace_path)
    write_jsonl(tracer, events_path)
    write_metrics_json(tracer, metrics_path)
    phases = aggregate_phases(tracer)
    print()
    print(
        f"telemetry: {len(tracer.spans)} spans, {len(tracer.events)} events, "
        f"{len(tracer.run_labels)} traced runs"
    )
    for name in sorted(phases, key=lambda n: -phases[n]["sim_seconds"]):
        agg = phases[name]
        print(
            f"  {name:>16}: {agg['count']:5.0f} spans, "
            f"{agg['sim_seconds']:10.2f} sim s, "
            f"{agg['wall_seconds']:8.3f} wall s"
        )
    print(f"chrome trace (Perfetto-loadable): {trace_path}")
    print(f"event log (JSONL):                {events_path}")
    print(f"metrics summary (JSON):           {metrics_path}")
    return 0


def _print_health_summary(monitor: HealthMonitor) -> None:
    summary = monitor.summary()
    print(
        f"health: {summary['num_snapshots']} iteration snapshots, "
        f"worst mean imbalance "
        f"{summary['worst_imbalance_pct']:.1f}% "
        f"(bound {summary['imbalance_bound_pct']:g}%)"
    )
    if monitor.events:
        by_sev = summary["events_by_severity"]
        counts = ", ".join(f"{n} {sev}" for sev, n in sorted(by_sev.items()))
        print(f"anomalies: {counts}")
        for event in monitor.events[:10]:
            print(
                f"  [{event.severity}] it {event.iteration} "
                f"(run {event.pid}): {event.message}"
            )
        if len(monitor.events) > 10:
            print(f"  ... and {len(monitor.events) - 10} more (see dashboard)")
    else:
        print("anomalies: none detected")


def _write_events_and_dashboard(
    tracer: Tracer, out: Path, stem: str, title: str
) -> None:
    from repro.telemetry import write_dashboard, write_jsonl

    out.mkdir(parents=True, exist_ok=True)
    events_path = out / f"{stem}.events.jsonl"
    dashboard_path = out / f"{stem}.dashboard.html"
    write_jsonl(tracer, events_path)
    write_dashboard(tracer, dashboard_path, title=title)
    print(f"event log (JSONL):                 {events_path}")
    print(f"health dashboard (self-contained): {dashboard_path}")


def _report(args: argparse.Namespace) -> int:
    """Render the health dashboard for an experiment or a trace file.

    ``target`` is either an experiment id (the experiment runs
    instrumented with a health monitor attached) or a path to a
    previously exported ``.events.jsonl`` trace (offline analysis).
    """
    from repro.telemetry import HealthMonitor, Tracer, write_dashboard

    out = Path(args.out_dir)
    trace_file = _trace_file(args.target)
    if trace_file is not None:
        model, stem = trace_file
        if model is None:
            return 2
        out.mkdir(parents=True, exist_ok=True)
        dashboard_path = out / f"{stem}.dashboard.html"
        title = f"Health dashboard — {Path(args.target).name}"
        write_dashboard(model, dashboard_path, title=title)
        print(f"health dashboard (self-contained): {dashboard_path}")
        return 0
    tracer = Tracer()
    health = HealthMonitor()
    health.attach(tracer)
    output = _run_experiment(args.target, args.quick, tracer)
    if output is None:
        return 2
    print(output)
    health.finish()
    print()
    _print_health_summary(health)
    _write_events_and_dashboard(
        tracer, out, args.target, f"Health dashboard — {args.target}"
    )
    return 0


def _write_profile_artifacts(source, out: Path, stem: str) -> int:
    """Analyze ``source`` and write the full profile artifact set."""
    from repro.telemetry import (
        TraceModel,
        analyze_critical_path,
        comm_profile,
        format_critical_path_report,
        openmetrics_selfcheck,
        registry_from_records,
        write_collapsed,
        write_openmetrics,
        write_speedscope,
    )

    out.mkdir(parents=True, exist_ok=True)
    model = TraceModel.of(source)
    results = analyze_critical_path(model)
    print(format_critical_path_report(results))
    comm = comm_profile(model)
    for profile in comm:
        total = profile.total
        derated = total.derated_bytes_total
        share = 100.0 * derated / total.bytes_total if total.bytes_total else 0.0
        print(
            f"comm [{profile.label}]: {total.bytes_total / 1e6:.2f} MB over "
            f"{profile.events} exchange phases, {total.seconds_total:.4f} s "
            f"on NICs, {share:.1f}% of bytes over derated links"
        )
        for pair in total.top_pairs(3):
            print(
                f"  {pair['src']}->{pair['dst']}: "
                f"{pair['bytes'] / 1e6:.2f} MB, {pair['seconds']:.4f} s"
                + ("  [derated link]" if pair["derated"] else "")
            )
    critical_path = out / f"{stem}.critical_path.json"
    comm_path = out / f"{stem}.comm.json"
    collapsed_path = out / f"{stem}.collapsed.txt"
    speedscope_path = out / f"{stem}.speedscope.json"
    openmetrics_path = out / f"{stem}.openmetrics.txt"
    for path, items in ((critical_path, results), (comm_path, comm)):
        document = json.dumps([item.to_dict() for item in items], indent=1)
        path.write_text(document + "\n", encoding="utf-8")
    write_collapsed(model, collapsed_path)
    write_speedscope(model, speedscope_path, name=stem)
    registry = registry_from_records(model)
    write_openmetrics(registry, openmetrics_path)
    problems = openmetrics_selfcheck(
        openmetrics_path.read_text(encoding="utf-8")
    )
    if problems:
        print(
            "openmetrics self-check failed: " + "; ".join(problems),
            file=sys.stderr,
        )
        return 1
    print(f"critical-path analysis (JSON):    {critical_path}")
    print(f"communication matrices (JSON):    {comm_path}")
    print(f"flamegraph (collapsed stacks):    {collapsed_path}")
    print(f"flamegraph (speedscope.app JSON): {speedscope_path}")
    print(f"metrics (OpenMetrics text):       {openmetrics_path}")
    return 0


def _profile(args: argparse.Namespace) -> int:
    """Profile an experiment run or a previously exported trace.

    ``target`` is an experiment id (runs instrumented, then profiles the
    live tracer) or a path to an exported ``.events.jsonl`` trace
    (offline profiling, nothing re-runs).
    """
    from repro.telemetry import Tracer, write_jsonl

    out = Path(args.out_dir)
    trace_file = _trace_file(args.target)
    if trace_file is not None:
        model, stem = trace_file
        if model is None:
            return 2
        return _write_profile_artifacts(model, out, stem)
    tracer = Tracer()
    output = _run_experiment(args.target, args.quick, tracer)
    if output is None:
        return 2
    print(output)
    print()
    out.mkdir(parents=True, exist_ok=True)
    events_path = out / f"{args.target}.events.jsonl"
    write_jsonl(tracer, events_path)
    status = _write_profile_artifacts(tracer, out, args.target)
    print(f"event log (JSONL):                {events_path}")
    return status


def _top(args: argparse.Namespace) -> int:
    """Run an experiment with the live span-observer terminal view."""
    from repro.telemetry import LiveTop, Tracer

    top = LiveTop()
    tracer = Tracer()
    live = sys.stdout.isatty()
    state = {"iterations": 0}

    def refresh(span) -> None:
        top.on_span_close(span)
        if span.name != "iteration":
            return
        state["iterations"] += 1
        if live and state["iterations"] % args.interval == 0:
            # Home the cursor and clear below: stable in-place refresh.
            sys.stdout.write("\x1b[H\x1b[J" + top.render() + "\n")
            sys.stdout.flush()

    tracer.add_observer(refresh)
    output = _run_experiment(args.experiment, args.quick, tracer)
    tracer.remove_observer(refresh)
    if output is None:
        return 2
    if live:
        sys.stdout.write("\x1b[H\x1b[J")
    print(top.render())
    print()
    print(output)
    return 0


def _chaos(args: argparse.Namespace) -> int:
    """Run the chaos experiment; print recovery + integrity stats."""
    from repro.runtime.experiment import chaos_experiment
    from repro.telemetry import Tracer, activate

    if not 0 < args.kill < args.nodes:
        print(
            f"--kill must leave at least one survivor: "
            f"kill={args.kill}, nodes={args.nodes}",
            file=sys.stderr,
        )
        return 2
    tracer = Tracer()
    with activate(tracer):
        stats = chaos_experiment(
            num_nodes=args.nodes,
            steps=args.steps,
            kill=args.kill,
            seed=args.seed,
            checkpoint_interval=args.checkpoint_interval,
            tracer=tracer,
        )
    print(
        f"chaos run: {stats['steps']} steps on {stats['num_nodes']} nodes, "
        f"killed {stats['killed_nodes']} at t={stats['outage_at_s']:.2f}s "
        f"for {stats['outage_duration_s']:.2f}s (plan seed {args.seed})"
    )
    print(
        f"  checkpoints: {stats['num_checkpoints']} "
        f"({stats['checkpoint_seconds']:.3f}s I/O), "
        f"restores: {stats['num_restores']}, "
        f"recoveries: {stats['num_recoveries']}, "
        f"replayed steps: {stats['replayed_steps']}"
    )
    ttr = stats["mean_time_to_recover_s"]
    print(
        "  time-to-recover: "
        + (f"{ttr:.3f}s (mean)" if ttr is not None else "n/a")
        + f", recovery time total: {stats['recovery_seconds']:.3f}s"
    )
    print(
        f"  runtime: {stats['chaos_seconds']:.2f}s vs fault-free "
        f"{stats['baseline_seconds']:.2f}s "
        f"({stats['overhead_pct']:+.1f}% overhead)"
    )
    ok = stats["bitwise_identical"]
    print(
        "  solution integrity: "
        + ("bitwise identical to the sequential run" if ok else "MISMATCH")
    )
    _write_events_and_dashboard(
        tracer, Path(args.out_dir), "chaos",
        "Chaos run — fault injection dashboard",
    )
    return 0 if ok else 1


def register(subparsers: argparse._SubParsersAction) -> None:
    trace = subparsers.add_parser(
        "trace",
        help="run one experiment instrumented; export trace + metrics",
    )
    add_experiment(trace, out_dir="trace artifacts")
    trace.set_defaults(run=_trace)
    report = subparsers.add_parser(
        "report",
        help="run the health monitor; render a self-contained HTML "
        "dashboard (accepts an experiment id or a .events.jsonl trace)",
    )
    add_experiment(report, "target", _TARGET_HELP, out_dir="the dashboard")
    report.set_defaults(run=_report)
    profile = subparsers.add_parser(
        "profile",
        help="critical-path analysis, comm matrices, flamegraphs and "
        "OpenMetrics (accepts an experiment id or a .events.jsonl trace)",
    )
    add_experiment(profile, "target", _TARGET_HELP, out_dir="profile artifacts")
    profile.set_defaults(run=_profile)
    top = subparsers.add_parser(
        "top",
        help="run one experiment with a live per-phase/per-rank terminal "
        "view fed by the span-observer hook",
    )
    add_experiment(top)
    top.add_argument(
        "--interval", type=at_least(1), default=5,
        help="refresh the view every N iterations (default: 5)",
    )
    top.set_defaults(run=_top)
    chaos = subparsers.add_parser(
        "chaos",
        help="run a distributed AMR execution under fault injection; "
        "report time-to-recover and solution-integrity stats",
    )
    chaos.add_argument("--nodes", type=int, default=8, help="cluster size (default: 8)")
    chaos.add_argument(
        "--kill", type=int, default=2,
        help="nodes crashed mid-run and recovered later (default: 2)",
    )
    chaos.add_argument(
        "--steps", type=at_least(1), default=12,
        help="coarse AMR steps to execute (default: 12)",
    )
    chaos.add_argument(
        "--seed", type=int, default=7, help="fault-plan seed (default: 7)"
    )
    chaos.add_argument(
        "--checkpoint-interval", type=at_least(1), default=3,
        help="steps between checkpoints (default: 3)",
    )
    add_out_dir(chaos, "trace + dashboard artifacts")
    chaos.set_defaults(run=_chaos)
