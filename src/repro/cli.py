"""Command-line interface: regenerate any of the paper's results.

Usage::

    python -m repro list                 # what can be run
    python -m repro run fig7             # regenerate Fig. 7 / Table I
    python -m repro run table2 --quick   # smaller configuration
    python -m repro run all              # everything (takes a few minutes)
    python -m repro trace fig7           # run instrumented, export traces
    python -m repro report fig7          # run + health-analyse + HTML dash
    python -m repro report traces/fig7.events.jsonl   # offline, from file
    python -m repro profile fig10        # critical path + flamegraphs
    python -m repro profile traces/fig10.events.jsonl # offline profiling
    python -m repro top fig10            # live per-rank terminal view
    python -m repro chaos --nodes 8 --kill 2          # fault injection
    python -m repro campaign run SPEC.json --dir campaigns/a --workers 4
    python -m repro campaign status campaigns/a       # progress ledger
    python -m repro campaign resume campaigns/a --workers 4
    python -m repro campaign watch campaigns/a        # live progress tail
    python -m repro serve --root campaigns --port 8765  # HTTP front
    python -m repro learn fit campaigns/a             # fit cost models
    python -m repro learn inspect campaigns/a/learn   # model fit state
    python -m repro learn replay campaigns/a/learn    # learned vs fixed-f
    python -m repro run ablation-learn --ledger traces/ledger  # + provenance
    python -m repro explain traces/ledger/chaos/all   # audit the decisions
    python -m repro explain traces/ledger/chaos/all --decision 12
    python -m repro explain traces/ledger/chaos/all --calibration --regret

``campaign`` executes a scenario × partitioner × seed × config grid
(one JSON spec file) sharded across worker processes, committing each
cell with one fsynced append to the result store: a run killed at any
point -- SIGKILL included -- resumes with ``campaign resume``
re-executing zero completed cells, and the compacted result store is
byte-identical to an uninterrupted single-worker run.  Each cell also
persists a per-cell trace-artifact bundle (span JSONL, flamegraph, critical-path profile)
under ``artifacts/<cell-key>/`` and appends lifecycle events to the
campaign's ``events.jsonl`` progress log.  ``campaign watch`` tails
that log (or a serve ``/live`` SSE URL) as a live progress line with
throughput and ETA.  ``serve`` fronts a directory of campaigns with a
stdlib HTTP API (status, paginated cells, per-cell records and
artifacts, OpenMetrics at ``/metrics``, an SSE stream at
``/campaigns/<id>/live``, HTML report and dashboard) with
ETag-validated response caching.

``learn`` closes the loop from observability to decision-making: ``fit``
ingests a campaign's per-cell ``artifacts/<cell-key>/profile.json``
bundles into a durable execution-history store and fits the
least-squares cost/capacity models of :mod:`repro.learn`; ``inspect``
reports which models are fitted vs cold; ``replay`` re-runs the dynamic
Linux-cluster scenario with the learned policies (adaptive sensing
interval, payoff-gated repartitioning, transient capacity forecasting)
warm-started from that store and compares against the paper's fixed
f=20 loop.

``explain`` audits a decision ledger (written when a run's
:class:`~repro.learn.policy.LearnController` is given a
:class:`~repro.learn.audit.DecisionLedger`, e.g. via
``repro run ablation-learn --ledger DIR``): the default summary counts
records and gate accepts/skips; ``--decision SEQ`` reconstructs one
gate decision bit-exactly from its recorded inputs (exit 1 on any
divergence); ``--calibration`` scores the 95% CI coverage of the
one-step-ahead cost predictions; ``--regret`` re-prices every gate
decision with hindsight costs and reports the cumulative regret.

``profile`` reconstructs the per-iteration critical path from the span
stream (which rank's compute/exchange gated each step, slack per rank,
the headroom a perfect capacity-proportional partition could recover),
folds ``comm.exchange`` events into rank-by-rank traffic matrices with
derated-link attribution, and writes flamegraph (collapsed + speedscope
JSON) and OpenMetrics artifacts.

``chaos`` runs a distributed AMR execution under a seeded fault plan
(node crashes mid-run, recovery later), with checkpoint/restart and
failure-aware repartitioning enabled, and reports time-to-recover plus
solution-integrity stats: the final solution must be bitwise identical
to an undisturbed sequential run.

``trace`` runs one experiment under an enabled telemetry tracer and writes
three artifacts to ``--out-dir`` (default ``traces/``): a Chrome
trace-event JSON loadable in Perfetto (one track per simulated rank), a
JSONL span/event log, and a JSON metrics summary.

``report`` additionally runs the health monitor (anomaly detection
against the paper's 40 % imbalance bound, probe-overhead and
capacity-drift rules, duration-spike z-scores) and renders one
self-contained HTML dashboard; given a path to an exported ``.jsonl``
trace it analyses offline without re-running anything.

Each experiment prints the same rows/series the paper reports, produced by
the corresponding builder in :mod:`repro.runtime.experiment` /
:mod:`repro.runtime.ablation`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable

from repro.runtime import ablation as ab
from repro.runtime import experiment as ex
from repro.runtime import reporting as rep
from repro.telemetry import (
    HealthMonitor,
    LiveTop,
    Tracer,
    activate,
    aggregate_phases,
    analyze_critical_path,
    comm_profile,
    format_critical_path_report,
    openmetrics_selfcheck,
    registry_from_records,
    write_chrome_trace,
    write_collapsed,
    write_dashboard,
    write_jsonl,
    write_metrics_json,
    write_openmetrics,
    write_speedscope,
)

__all__ = ["main", "EXPERIMENTS"]


def _run_fig7(quick: bool) -> str:
    data = ex.execution_time_comparison(
        processor_counts=(4, 8, 16, 32),
        iterations=20 if quick else 40,
        seeds=(7,) if quick else (7, 19, 31),
    )
    return rep.format_fig7_table1(data)


def _run_fig8(quick: bool) -> str:
    return rep.format_load_assignment(
        ex.load_assignment_tracking("composite", num_regrids=4 if quick else 8)
    )


def _run_fig9(quick: bool) -> str:
    return rep.format_load_assignment(
        ex.load_assignment_tracking(
            "heterogeneous", num_regrids=4 if quick else 8
        )
    )


def _run_fig10(quick: bool) -> str:
    return rep.format_imbalance(
        ex.imbalance_comparison(num_regrids=3 if quick else 6)
    )


def _run_fig11(quick: bool) -> str:
    return rep.format_dynamic_allocation(
        ex.dynamic_allocation_trace(
            num_sensings=2, iterations=20 if quick else 30
        )
    )


def _run_table2(quick: bool) -> str:
    data = ex.dynamic_vs_static_sensing(
        processor_counts=(2, 4) if quick else (2, 4, 6, 8),
        iterations=80 if quick else 160,
        seeds=(5,) if quick else (5, 11, 23),
    )
    return rep.format_table2(data)


def _run_table3(quick: bool) -> str:
    data = ex.sensing_frequency_sweep(
        frequencies=(10, 40) if quick else (2, 10, 20, 30, 60),
        iterations=80 if quick else 160,
        seeds=(5,) if quick else (5, 11, 23),
    )
    return rep.format_table3(data)


def _run_fig12_15(quick: bool) -> str:
    data = ex.sensing_frequency_traces(
        frequencies=(10, 40) if quick else (10, 20, 30, 40),
        iterations=60 if quick else 120,
    )
    return rep.format_frequency_traces(data)


def _run_ablation_weights(quick: bool) -> str:
    data = ab.weight_ablation(iterations=15 if quick else 30)
    lines = [f"weight ablation ({data['cluster']} cluster):"]
    for row in sorted(data["rows"], key=lambda r: r["seconds"]):
        lines.append(f"  {row['profile']:>14}: {row['seconds']:7.1f}s")
    return "\n".join(lines)


def _run_ablation_multiaxis(quick: bool) -> str:
    lines = []
    for label, kwargs in (
        ("coarse (min=8, snap=4)", {"min_box_size": 8, "snap": 4}),
        ("fine   (min=2, snap=2)", {"min_box_size": 2, "snap": 2}),
    ):
        data = ab.multiaxis_split_ablation(
            num_regrids=4 if quick else 8, **kwargs
        )
        lines.append(f"granularity {label}:")
        for rule, rec in data.items():
            lines.append(
                f"  {rule:>13}: worst imbalance "
                f"{max(rec['max_imbalance_pct']):5.1f}%, "
                f"{rec['total_splits']} splits"
            )
    return "\n".join(lines)


def _run_ablation_forecasters(quick: bool) -> str:
    data = ab.forecaster_ablation(
        probes=20 if quick else 40, seeds=(0,) if quick else (0, 1, 2)
    )
    lines = [f"capacity MAE under {data['noise']:.0%} measurement noise:"]
    for row in sorted(data["rows"], key=lambda r: r["mae"]):
        lines.append(f"  {row['forecaster']:>9}: {row['mae']:.4f}")
    return "\n".join(lines)


def _run_sweep_probe_cost(quick: bool) -> str:
    data = ab.probe_cost_sensitivity(
        probe_costs=(0.0, 2.0) if quick else (0.0, 0.5, 2.0, 8.0),
        iterations=60 if quick else 120,
    )
    lines = [
        "dynamic-sensing benefit vs probe cost "
        f"(sensing every {data['sensing_interval']} its):"
    ]
    for row in data["rows"]:
        lines.append(
            f"  probe {row['probe_cost_s']:4.1f}s: benefit "
            f"{row['benefit_pct']:5.1f}%"
        )
    return "\n".join(lines)


def _run_sweep_heterogeneity(quick: bool) -> str:
    data = ab.heterogeneity_sweep(
        load_levels=(0.0, 2.0) if quick else (0.0, 0.5, 1.0, 2.0, 4.0),
        iterations=15 if quick else 30,
    )
    lines = [f"improvement vs load level ({data['procs']} procs):"]
    for row in data["rows"]:
        lines.append(
            f"  load {row['load_level']:3.1f}: {row['improvement_pct']:5.1f}%"
        )
    return "\n".join(lines)


def _run_ablation_learn(quick: bool, ledger_dir: str | None = None) -> str:
    data = ab.learn_ablation(
        iterations=60 if quick else 150, ledger_dir=ledger_dir
    )
    lines = [
        "learned-policy ablation vs fixed "
        f"f={data['sensing_interval']} "
        f"(regrid every {data['regrid_interval']} its):"
    ]
    for scenario, rec in data["scenarios"].items():
        lines.append(f"  {scenario}:")
        for row in rec["rows"]:
            extra = ""
            if "sensing_interval" in row:
                extra = (
                    f", f->{row['sensing_interval']}, "
                    f"gate {row['gate_skips']}/{row['gate_decisions']} "
                    "skipped"
                )
            lines.append(
                f"    {row['variant']:>10}: {row['seconds']:7.1f}s "
                f"({row['win_pct']:+5.1f}%, "
                f"{row['num_sensings']} sensings{extra})"
            )
    if ledger_dir is not None:
        lines.append(
            f"decision ledgers written under {ledger_dir}/<scenario>/"
            "<variant> -- audit with `repro explain`"
        )
    return "\n".join(lines)


def _run_ablation_panel(quick: bool) -> str:
    data = ab.partitioner_panel(iterations=15 if quick else 30)
    lines = ["partitioner panel (8-node loaded cluster):"]
    for row in sorted(data["rows"], key=lambda r: r["seconds"]):
        lines.append(
            f"  {row['partitioner']:>17}: {row['seconds']:7.1f}s, "
            f"mean imbalance {row['mean_imbalance_pct']:5.1f}%"
        )
    return "\n".join(lines)


EXPERIMENTS: dict[str, tuple[str, Callable[[bool], str]]] = {
    "fig7": ("Fig. 7 / Table I: execution time vs processors", _run_fig7),
    "table1": ("alias of fig7", _run_fig7),
    "fig8": ("Fig. 8: load assignment, default partitioner", _run_fig8),
    "fig9": ("Fig. 9: load assignment, ACEHeterogeneous", _run_fig9),
    "fig10": ("Fig. 10: % load imbalance, both schemes", _run_fig10),
    "fig11": ("Fig. 11: dynamic load allocation", _run_fig11),
    "table2": ("Table II: dynamic vs static sensing", _run_table2),
    "table3": ("Table III: sensing frequency sweep", _run_table3),
    "fig12-15": ("Figs. 12-15: sensing-frequency traces", _run_fig12_15),
    "ablation-weights": ("weight-choice ablation", _run_ablation_weights),
    "ablation-multiaxis": (
        "multi-axis splitting ablation", _run_ablation_multiaxis,
    ),
    "ablation-forecasters": (
        "forecaster-choice ablation", _run_ablation_forecasters,
    ),
    "ablation-panel": ("partitioner panel", _run_ablation_panel),
    "ablation-learn": (
        "learned-policy ablation (adaptive-f / gate / transient)",
        _run_ablation_learn,
    ),
    "sweep-probe-cost": (
        "probe-cost sensitivity sweep", _run_sweep_probe_cost,
    ),
    "sweep-heterogeneity": (
        "improvement vs heterogeneity sweep", _run_sweep_heterogeneity,
    ),
}


def _lookup_experiment(name: str) -> Callable[[bool], str] | None:
    """Resolve an experiment id, printing a clear error for unknown names.

    Every subcommand that takes an experiment goes through here, so a typo
    always yields exit code 2 with the list of valid ids -- never a raw
    traceback.
    """
    entry = EXPERIMENTS.get(name)
    if entry is not None:
        return entry[1]
    close = [k for k in EXPERIMENTS if name.lower() in k or k in name.lower()]
    hint = f" (did you mean: {', '.join(close)}?)" if close else ""
    print(
        f"unknown experiment {name!r}{hint}; "
        f"valid ids: {', '.join(EXPERIMENTS)}",
        file=sys.stderr,
    )
    return None


def _load_records_or_fail(path: Path) -> list[dict] | None:
    """Parse a JSONL trace, or print one clear line and return ``None``.

    Every CLI path that reads a user-supplied trace file funnels through
    here so a missing, unreadable or corrupt file is always a one-line
    error and exit code 2, never a traceback.
    """
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
    return records


def _run_traced(experiment: str, quick: bool, out_dir: str) -> int:
    """Run one experiment instrumented; write trace + metrics artifacts."""
    fn = _lookup_experiment(experiment)
    if fn is None:
        return 2
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    with activate(tracer):
        print(fn(quick))
    trace_path = out / f"{experiment}.trace.json"
    events_path = out / f"{experiment}.events.jsonl"
    metrics_path = out / f"{experiment}.metrics.json"
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


def _run_report(target: str, quick: bool, out_dir: str) -> int:
    """Render the health dashboard for an experiment or a trace file.

    ``target`` is either an experiment id (the experiment runs
    instrumented with a health monitor attached) or a path to a
    previously exported ``.events.jsonl`` trace (offline analysis).
    """
    out = Path(out_dir)
    path = Path(target)
    if path.suffix == ".jsonl" or path.is_file():
        records = _load_records_or_fail(path)
        if records is None:
            return 2
        out.mkdir(parents=True, exist_ok=True)
        stem = path.name.removesuffix(".jsonl").removesuffix(".events")
        dashboard_path = out / f"{stem}.dashboard.html"
        write_dashboard(
            records,
            dashboard_path,
            title=f"Health dashboard — {path.name}",
        )
        print(f"health dashboard (self-contained): {dashboard_path}")
        return 0
    fn = _lookup_experiment(target)
    if fn is None:
        return 2
    out.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    health = HealthMonitor()
    health.attach(tracer)
    with activate(tracer):
        print(fn(quick))
    health.finish()
    print()
    _print_health_summary(health)
    events_path = out / f"{target}.events.jsonl"
    dashboard_path = out / f"{target}.dashboard.html"
    write_jsonl(tracer, events_path)
    write_dashboard(
        tracer, dashboard_path, title=f"Health dashboard — {target}"
    )
    print(f"event log (JSONL):                 {events_path}")
    print(f"health dashboard (self-contained): {dashboard_path}")
    return 0


def _write_profile_artifacts(
    source, out: Path, stem: str, run_labels: dict[int, str] | None = None
) -> int:
    """Analyze ``source`` and write the full profile artifact set."""
    out.mkdir(parents=True, exist_ok=True)
    results = analyze_critical_path(source, run_labels=run_labels)
    print(format_critical_path_report(results))
    comm = comm_profile(source, run_labels=run_labels)
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
    with open(critical_path, "w", encoding="utf-8") as fh:
        json.dump([r.to_dict() for r in results], fh, indent=1)
        fh.write("\n")
    with open(comm_path, "w", encoding="utf-8") as fh:
        json.dump([p.to_dict() for p in comm], fh, indent=1)
        fh.write("\n")
    write_collapsed(source, collapsed_path)
    write_speedscope(source, speedscope_path, name=stem)
    registry = registry_from_records(source)
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


def _run_profile(target: str, quick: bool, out_dir: str) -> int:
    """Profile an experiment run or a previously exported trace.

    ``target`` is an experiment id (runs instrumented, then profiles the
    live tracer) or a path to an exported ``.events.jsonl`` trace
    (offline profiling, nothing re-runs).
    """
    out = Path(out_dir)
    path = Path(target)
    if path.suffix == ".jsonl" or path.is_file():
        records = _load_records_or_fail(path)
        if records is None:
            return 2
        stem = path.name.removesuffix(".jsonl").removesuffix(".events")
        return _write_profile_artifacts(records, out, stem)
    fn = _lookup_experiment(target)
    if fn is None:
        return 2
    tracer = Tracer()
    with activate(tracer):
        print(fn(quick))
    print()
    out.mkdir(parents=True, exist_ok=True)
    events_path = out / f"{target}.events.jsonl"
    write_jsonl(tracer, events_path)
    status = _write_profile_artifacts(tracer, out, target)
    print(f"event log (JSONL):                {events_path}")
    return status


def _run_top(experiment: str, quick: bool, interval: int) -> int:
    """Run an experiment with the live span-observer terminal view."""
    fn = _lookup_experiment(experiment)
    if fn is None:
        return 2
    top = LiveTop()
    tracer = Tracer()
    live = sys.stdout.isatty()
    state = {"iterations": 0}

    def refresh(span) -> None:
        top.on_span_close(span)
        if span.name != "iteration":
            return
        state["iterations"] += 1
        if live and state["iterations"] % max(1, interval) == 0:
            # Home the cursor and clear below: stable in-place refresh.
            sys.stdout.write("\x1b[H\x1b[J" + top.render() + "\n")
            sys.stdout.flush()

    tracer.add_observer(refresh)
    with activate(tracer):
        output = fn(quick)
    tracer.remove_observer(refresh)
    if live:
        sys.stdout.write("\x1b[H\x1b[J")
    print(top.render())
    print()
    print(output)
    return 0


def _run_chaos(
    nodes: int,
    kill: int,
    steps: int,
    seed: int,
    checkpoint_interval: int,
    out_dir: str,
) -> int:
    """Run the chaos experiment; print recovery + integrity stats."""
    from repro.runtime.experiment import chaos_experiment

    if not 0 < kill < nodes:
        print(
            f"--kill must leave at least one survivor: "
            f"kill={kill}, nodes={nodes}",
            file=sys.stderr,
        )
        return 2
    tracer = Tracer()
    with activate(tracer):
        stats = chaos_experiment(
            num_nodes=nodes,
            steps=steps,
            kill=kill,
            seed=seed,
            checkpoint_interval=checkpoint_interval,
            tracer=tracer,
        )
    print(
        f"chaos run: {stats['steps']} steps on {stats['num_nodes']} nodes, "
        f"killed {stats['killed_nodes']} at t={stats['outage_at_s']:.2f}s "
        f"for {stats['outage_duration_s']:.2f}s (plan seed {seed})"
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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    events_path = out / "chaos.events.jsonl"
    dashboard_path = out / "chaos.dashboard.html"
    write_jsonl(tracer, events_path)
    write_dashboard(
        tracer, dashboard_path, title="Chaos run — fault injection dashboard"
    )
    print(f"event log (JSONL):                 {events_path}")
    print(f"health dashboard (self-contained): {dashboard_path}")
    return 0 if ok else 1


def _load_campaign_spec_for_dir(directory: Path):
    """Recover the spec a campaign directory was created from."""
    from repro.campaign.orchestrator import META_NAME
    from repro.campaign.spec import CampaignSpec
    from repro.util.errors import CampaignError

    meta_path = directory / META_NAME
    if not meta_path.is_file():
        raise CampaignError(
            f"{directory} is not a campaign directory (no {META_NAME}); "
            f"start one with 'repro campaign run SPEC --dir {directory}'"
        )
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        return CampaignSpec.from_dict(meta["spec"])
    except (json.JSONDecodeError, OSError, KeyError) as exc:
        raise CampaignError(
            f"unreadable campaign metadata {meta_path}: {exc}"
        ) from exc


def _print_campaign_result(result: dict) -> None:
    state = "complete" if result["complete"] else "interrupted"
    print(
        f"campaign {result['campaign_id']}: "
        f"{result['completed']}/{result['num_cells']} cells ({state})"
    )
    print(
        f"  executed {result['executed']}, skipped {result['skipped']} "
        f"already-done, failed {result['failed']}, "
        f"{result['wall_seconds']:.2f}s wall"
    )


def _execute_campaign(
    spec, directory: Path, workers: int, max_cells: int | None
) -> int:
    """Shared body of ``campaign run`` and ``campaign resume``."""
    from repro.campaign import ORCHESTRATOR_TRACE_NAME, CampaignRunner

    tracer = Tracer()
    runner = CampaignRunner(spec, directory, workers=workers, tracer=tracer)
    result = runner.run(max_cells=max_cells)
    # The orchestrator's own trace; ``events.jsonl`` is the cross-process
    # progress log the runner appends to while cells execute.
    write_jsonl(tracer, directory / ORCHESTRATOR_TRACE_NAME)
    _print_campaign_result(result)
    if result["complete"]:
        print(f"  result store: {runner.store.results_path}")
    else:
        print(
            f"  resume with: repro campaign resume {directory} "
            f"--workers {workers}"
        )
    return 1 if result["failed"] else 0


def _watch_event_line(record: dict, progress) -> str | None:
    """One log line per lifecycle event for non-tty watch output."""
    name = record.get("name")
    attrs = record.get("attributes") or {}
    key = attrs.get("cell_key", "")
    if name == "campaign.started":
        return (
            f"campaign {attrs.get('campaign_id', '?')}: "
            f"{attrs.get('num_cells', '?')} cells, "
            f"{attrs.get('pending', '?')} pending"
        )
    if name == "live.cell_started":
        return f"cell started  {key}"
    if name == "live.cell_finished":
        return (
            f"cell finished {key} "
            f"({progress.completed}/{progress.num_cells or '?'})"
        )
    if name == "live.cell_failed":
        return f"cell failed   {key}: {attrs.get('error', '')}"
    return None


def _watch_directory(
    directory: Path, interval: float, timeout: float | None
) -> int:
    """Tail a campaign directory's progress log until completion."""
    import time as _time

    from repro.campaign import campaign_status
    from repro.telemetry.live import EVENTS_NAME, LiveProgress, ProgressLog

    status = campaign_status(directory)
    progress = LiveProgress(num_cells=status["num_cells"])
    log = ProgressLog(directory / EVENTS_NAME)
    live = sys.stdout.isatty()
    deadline = _time.monotonic() + timeout if timeout is not None else None
    offset = 0
    observed_any = False
    while True:
        records, offset = log.read_from(offset)
        for record in records:
            if not progress.observe(record):
                continue
            observed_any = True
            if live:
                sys.stdout.write("\r\x1b[K" + progress.render_line())
                sys.stdout.flush()
            else:
                line = _watch_event_line(record, progress)
                if line is not None:
                    print(line)
        if progress.complete:
            break
        if not observed_any and status["complete"]:
            # Completed before the progress log existed: nothing to tail.
            progress.completed = int(status["completed"])
            progress.complete = True
            break
        if deadline is not None and _time.monotonic() >= deadline:
            if live:
                sys.stdout.write("\n")
            print(
                f"watch timed out after {timeout:g}s: "
                + progress.render_line()
            )
            return 1
        _time.sleep(max(0.05, interval))
    if live:
        sys.stdout.write("\n")
    print("watch: " + progress.render_line())
    return 1 if progress.failed else 0


def _watch_url(url: str, timeout: float | None) -> int:
    """Consume a serve ``/campaigns/<id>/live`` SSE stream until done."""
    import time as _time
    import urllib.error
    import urllib.request

    deadline = _time.monotonic() + timeout if timeout is not None else None
    request = urllib.request.Request(
        url, headers={"Accept": "text/event-stream"}
    )
    last: dict = {}
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            for raw in response:
                line = raw.decode("utf-8", "replace").rstrip("\r\n")
                if not line.startswith("data: "):
                    if deadline is not None and _time.monotonic() >= deadline:
                        print(f"watch timed out after {timeout:g}s")
                        return 1
                    continue
                payload = json.loads(line[len("data: "):])
                snapshot = (
                    payload.get("progress")
                    if isinstance(payload, dict) and "progress" in payload
                    else payload
                )
                if not isinstance(snapshot, dict):
                    continue
                last = snapshot
                completed = snapshot.get("completed", 0)
                total = snapshot.get("num_cells") or "?"
                print(f"progress: {completed}/{total} cells")
                if snapshot.get("complete"):
                    break
                if deadline is not None and _time.monotonic() >= deadline:
                    print(f"watch timed out after {timeout:g}s")
                    return 1
    except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
        print(f"watch error: could not stream {url}: {exc}", file=sys.stderr)
        return 2
    if last.get("complete"):
        print("watch: complete")
        return 1 if last.get("failed") else 0
    print("watch: stream ended before completion")
    return 1


def _run_campaign_watch(
    target: str, interval: float, timeout: float | None
) -> int:
    """``repro campaign watch``: live progress for a directory or URL."""
    if target.startswith(("http://", "https://")):
        return _watch_url(target, timeout)
    return _watch_directory(Path(target), interval, timeout)


def _run_campaign(args) -> int:
    """Dispatch ``repro campaign run|status|resume|watch``; errors exit 2."""
    from repro.campaign import CampaignSpec, campaign_status
    from repro.util.errors import CampaignError

    try:
        if args.campaign_command == "run":
            spec = CampaignSpec.from_file(args.spec)
            return _execute_campaign(
                spec, Path(args.dir), args.workers, args.max_cells
            )
        if args.campaign_command == "resume":
            directory = Path(args.dir)
            spec = _load_campaign_spec_for_dir(directory)
            return _execute_campaign(
                spec, directory, args.workers, args.max_cells
            )
        if args.campaign_command == "status":
            status = campaign_status(Path(args.dir))
            state = "complete" if status["complete"] else "in progress"
            print(
                f"campaign {status['campaign_id']} ({status['name']}): "
                f"{status['completed']}/{status['num_cells']} cells, {state}"
            )
            print(
                f"  store records: {status['store_records']}"
                + (" (compacted)" if status["compacted"] else "")
            )
            if status.get("artifact_cells"):
                print(
                    f"  artifact bundles: {status['artifact_cells']} cells"
                )
            for key, error in sorted(status["failed"].items()):
                print(f"  failed {key}: {error}")
            return 1 if status["failed"] else 0
        if args.campaign_command == "watch":
            return _run_campaign_watch(
                args.target, args.interval, args.timeout
            )
    except CampaignError as exc:
        print(f"campaign error: {exc}", file=sys.stderr)
        return 2
    print(
        "usage: repro campaign {run,status,resume,watch} ...",
        file=sys.stderr,
    )
    return 2


def _run_serve(root: str, host: str, port: int) -> int:
    """Serve campaign directories over HTTP until interrupted."""
    import signal

    from repro.campaign import make_server
    from repro.util.errors import CampaignError

    try:
        server = make_server(root, host=host, port=port)
    except CampaignError as exc:
        print(f"serve error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # port in use, permission denied ...
        print(f"could not bind {host}:{port}: {exc}", file=sys.stderr)
        return 2

    def _terminate(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _terminate)
    bound_port = server.server_address[1]
    ids = server.campaign_ids()
    print(f"serving {len(ids)} campaign(s) from {root} "
          f"on http://{host}:{bound_port}")
    for campaign_id in ids:
        print(f"  http://{host}:{bound_port}/campaigns/{campaign_id}/report")
    try:
        server.serve_forever(poll_interval=0.2)
    except (KeyboardInterrupt, SystemExit):
        pass
    finally:
        server.server_close()
    return 0


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


def _learn_fit(campaign: str, store_dir: str | None) -> int:
    """Ingest campaign artifacts into a history store and fit models."""
    from repro.learn import ExecutionHistoryStore, LearnController

    campaign_path = Path(campaign)
    if not (campaign_path / "artifacts").is_dir():
        print(
            f"no artifacts/ under {campaign_path}; run the campaign first",
            file=sys.stderr,
        )
        return 2
    directory = Path(store_dir) if store_dir else campaign_path / "learn"
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


def _learn_inspect(store_dir: str) -> int:
    """Print a history store's contents and the models it supports."""
    from repro.learn import ExecutionHistoryStore, LearnController

    directory = Path(store_dir)
    if not directory.is_dir():
        print(f"no history store at {directory}", file=sys.stderr)
        return 2
    store = ExecutionHistoryStore(directory)
    print(f"history store {directory}: {len(store)} rows")
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


def _learn_replay(store_dir: str, iterations: int, seed: int) -> int:
    """Re-run the dynamic-load scenario with warm-started models.

    Runs the paper's fixed-f loop and the fully learned loop (adaptive
    sensing + payoff gate + transient forecasting), the latter seeded
    from the history store, and prints the wall-clock comparison.
    """
    from repro.cluster import Cluster
    from repro.kernels.workloads import paper_rm3d_trace
    from repro.learn import (
        ExecutionHistoryStore,
        LearnConfig,
        LearnController,
    )
    from repro.monitor.service import ResourceMonitor
    from repro.partition import ACEHeterogeneous
    from repro.runtime.engine import RuntimeConfig, SamrRuntime

    directory = Path(store_dir)
    if not directory.is_dir():
        print(f"no history store at {directory}", file=sys.stderr)
        return 2
    store = ExecutionHistoryStore(directory)

    regrid_interval = 7
    workload = paper_rm3d_trace(
        num_regrids=iterations // regrid_interval + 2
    )
    cal = SamrRuntime(
        workload,
        Cluster.paper_linux_cluster(8, seed=seed, dynamic=True,
                                    horizon_s=1e9),
        ACEHeterogeneous(),
        config=RuntimeConfig(
            iterations=iterations, regrid_interval=regrid_interval
        ),
    ).run()
    horizon = 0.8 * cal.total_seconds

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


def _run_learn(args) -> int:
    """Dispatch ``repro learn fit|inspect|replay``; errors exit 2."""
    from repro.util.errors import ExperimentError

    try:
        if args.learn_command == "fit":
            return _learn_fit(args.campaign, args.store)
        if args.learn_command == "inspect":
            return _learn_inspect(args.store)
        if args.learn_command == "replay":
            return _learn_replay(args.store, args.iterations, args.seed)
    except ExperimentError as exc:
        print(f"learn error: {exc}", file=sys.stderr)
        return 2
    print("usage: repro learn {fit,inspect,replay} ...", file=sys.stderr)
    return 2


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


def _run_explain(args) -> int:
    """Dispatch ``repro explain``; user errors exit 2, divergence 1."""
    from repro.learn.audit import (
        load_ledger_rows,
        reconcile,
        verify_decision,
    )
    from repro.util.errors import ExperimentError

    try:
        rows = load_ledger_rows(args.ledger)
    except ExperimentError as exc:
        print(f"explain error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.decision is not None:
            return _explain_decision(rows, args.decision)
        report = reconcile(rows)
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
            return 0
        sections = []
        if args.calibration:
            sections.append("calibration")
        if args.regret:
            sections.append("regret")
        for line in _explain_summary(report):
            print(line)
        if "calibration" in sections:
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
        if "regret" in sections:
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
            checks = [
                verify_decision(r) for r in rows if r.get("kind") == "gate"
            ]
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
    except ExperimentError as exc:
        print(f"explain error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id from 'list', or 'all'")
    run.add_argument(
        "--quick", action="store_true",
        help="smaller configuration (fewer seeds/iterations)",
    )
    run.add_argument(
        "--ledger", default=None, metavar="DIR",
        help="record decision provenance under DIR "
        "(ablation-learn only; audit with `repro explain`)",
    )
    trace = sub.add_parser(
        "trace",
        help="run one experiment instrumented; export trace + metrics",
    )
    trace.add_argument("experiment", help="experiment id from 'list'")
    trace.add_argument(
        "--quick", action="store_true",
        help="smaller configuration (fewer seeds/iterations)",
    )
    trace.add_argument(
        "--out-dir", default="traces",
        help="directory for trace artifacts (default: traces/)",
    )
    report = sub.add_parser(
        "report",
        help="run the health monitor; render a self-contained HTML "
        "dashboard (accepts an experiment id or a .events.jsonl trace)",
    )
    report.add_argument(
        "target",
        help="experiment id from 'list', or path to an exported "
        ".events.jsonl trace",
    )
    report.add_argument(
        "--quick", action="store_true",
        help="smaller configuration (fewer seeds/iterations)",
    )
    report.add_argument(
        "--out-dir", default="traces",
        help="directory for the dashboard (default: traces/)",
    )
    profile = sub.add_parser(
        "profile",
        help="critical-path analysis, comm matrices, flamegraphs and "
        "OpenMetrics (accepts an experiment id or a .events.jsonl trace)",
    )
    profile.add_argument(
        "target",
        help="experiment id from 'list', or path to an exported "
        ".events.jsonl trace",
    )
    profile.add_argument(
        "--quick", action="store_true",
        help="smaller configuration (fewer seeds/iterations)",
    )
    profile.add_argument(
        "--out-dir", default="traces",
        help="directory for profile artifacts (default: traces/)",
    )
    top = sub.add_parser(
        "top",
        help="run one experiment with a live per-phase/per-rank terminal "
        "view fed by the span-observer hook",
    )
    top.add_argument("experiment", help="experiment id from 'list'")
    top.add_argument(
        "--quick", action="store_true",
        help="smaller configuration (fewer seeds/iterations)",
    )
    top.add_argument(
        "--interval", type=int, default=5,
        help="refresh the view every N iterations (default: 5)",
    )
    chaos = sub.add_parser(
        "chaos",
        help="run a distributed AMR execution under fault injection; "
        "report time-to-recover and solution-integrity stats",
    )
    chaos.add_argument(
        "--nodes", type=int, default=8, help="cluster size (default: 8)"
    )
    chaos.add_argument(
        "--kill", type=int, default=2,
        help="nodes crashed mid-run and recovered later (default: 2)",
    )
    chaos.add_argument(
        "--steps", type=int, default=12,
        help="coarse AMR steps to execute (default: 12)",
    )
    chaos.add_argument(
        "--seed", type=int, default=7, help="fault-plan seed (default: 7)"
    )
    chaos.add_argument(
        "--checkpoint-interval", type=int, default=3,
        help="steps between checkpoints (default: 3)",
    )
    chaos.add_argument(
        "--out-dir", default="traces",
        help="directory for trace + dashboard artifacts (default: traces/)",
    )
    campaign = sub.add_parser(
        "campaign",
        help="run/resume/inspect a resumable experiment-campaign grid",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command")
    crun = campaign_sub.add_parser(
        "run", help="execute a campaign spec (JSON grid) in a directory"
    )
    crun.add_argument("spec", help="path to a campaign spec JSON file")
    crun.add_argument(
        "--dir", required=True,
        help="campaign directory (result store + artifacts)",
    )
    crun.add_argument(
        "--workers", type=int, default=1,
        help="worker processes to shard cells across (default: 1)",
    )
    crun.add_argument(
        "--max-cells", type=int, default=None,
        help="stop after N newly executed cells (deterministic interrupt)",
    )
    cresume = campaign_sub.add_parser(
        "resume",
        help="continue an interrupted campaign (zero cells re-executed)",
    )
    cresume.add_argument("dir", help="existing campaign directory")
    cresume.add_argument(
        "--workers", type=int, default=1,
        help="worker processes to shard cells across (default: 1)",
    )
    cresume.add_argument(
        "--max-cells", type=int, default=None,
        help="stop after N newly executed cells (deterministic interrupt)",
    )
    cstatus = campaign_sub.add_parser(
        "status", help="print a campaign directory's progress ledger"
    )
    cstatus.add_argument("dir", help="existing campaign directory")
    cwatch = campaign_sub.add_parser(
        "watch",
        help="tail a campaign's live progress (throughput, ETA) from its "
        "directory or a serve /campaigns/<id>/live SSE URL",
    )
    cwatch.add_argument(
        "target",
        help="campaign directory, or an http(s) URL of a serve live stream",
    )
    cwatch.add_argument(
        "--interval", type=float, default=0.5,
        help="poll interval in seconds for directory mode (default: 0.5)",
    )
    cwatch.add_argument(
        "--timeout", type=float, default=None,
        help="give up (exit 1) after this many seconds (default: no limit)",
    )
    serve = sub.add_parser(
        "serve",
        help="serve campaign directories over HTTP (status, cells, "
        "reports, dashboards) with ETag response caching",
    )
    serve.add_argument(
        "--root", default="campaigns",
        help="directory containing campaign directories (default: campaigns/)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=8765, help="bind port (default: 8765)"
    )
    learn = sub.add_parser(
        "learn",
        help="execution-history cost models: fit from campaign "
        "artifacts, inspect a store, replay with learned policies",
    )
    learn_sub = learn.add_subparsers(dest="learn_command")
    lfit = learn_sub.add_parser(
        "fit",
        help="ingest a campaign's artifacts/ into a history store and "
        "fit the cost models",
    )
    lfit.add_argument(
        "campaign", help="campaign directory with artifacts/<cell>/"
    )
    lfit.add_argument(
        "--store", default=None,
        help="history store directory (default: <campaign>/learn)",
    )
    linspect = learn_sub.add_parser(
        "inspect", help="print a history store's rows and model fits"
    )
    linspect.add_argument("store", help="history store directory")
    lreplay = learn_sub.add_parser(
        "replay",
        help="run the dynamic-load scenario with models warm-started "
        "from a history store, vs the fixed-f baseline",
    )
    lreplay.add_argument("store", help="history store directory")
    lreplay.add_argument(
        "--iterations", type=int, default=60,
        help="AMR iterations per run (default: 60)",
    )
    lreplay.add_argument(
        "--seed", type=int, default=11,
        help="cluster/load-script seed (default: 11)",
    )
    explain = sub.add_parser(
        "explain",
        help="audit a decision ledger: reconstruct decisions, score "
        "CI calibration, price regret vs the hindsight oracle",
    )
    explain.add_argument(
        "ledger",
        help="decision-ledger directory (or its decisions.jsonl)",
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
    args = parser.parse_args(argv)

    if args.command == "list" or args.command is None:
        print("available experiments:")
        for key, (desc, _) in EXPERIMENTS.items():
            print(f"  {key:>22}  {desc}")
        print("  {:>22}  {}".format("all", "run everything"))
        return 0

    if args.command == "run":
        if args.experiment == "all":
            seen = set()
            for key, (_, fn) in EXPERIMENTS.items():
                if fn in seen:
                    continue
                seen.add(fn)
                print(f"==> {key}")
                print(fn(args.quick))
                print()
            return 0
        fn = _lookup_experiment(args.experiment)
        if fn is None:
            return 2
        if args.ledger is not None:
            if fn is not _run_ablation_learn:
                print(
                    "repro run: --ledger only applies to ablation-learn",
                    file=sys.stderr,
                )
                return 2
            print(_run_ablation_learn(args.quick, args.ledger))
            return 0
        print(fn(args.quick))
        return 0

    if args.command == "trace":
        return _run_traced(args.experiment, args.quick, args.out_dir)
    if args.command == "report":
        return _run_report(args.target, args.quick, args.out_dir)
    if args.command == "profile":
        return _run_profile(args.target, args.quick, args.out_dir)
    if args.command == "top":
        return _run_top(args.experiment, args.quick, args.interval)
    if args.command == "chaos":
        return _run_chaos(
            args.nodes, args.kill, args.steps, args.seed,
            args.checkpoint_interval, args.out_dir,
        )
    if args.command == "campaign":
        return _run_campaign(args)
    if args.command == "serve":
        return _run_serve(args.root, args.host, args.port)
    if args.command == "learn":
        return _run_learn(args)
    if args.command == "explain":
        return _run_explain(args)
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
