"""``repro list`` / ``repro run``: each experiment id maps to a builder
returning the rows/series the paper reports, as text."""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.cli.common import add_experiment


def _run_fig7(quick: bool) -> str:
    from repro.runtime import experiment as ex, reporting as rep

    data = ex.execution_time_comparison(
        processor_counts=(4, 8, 16, 32),
        iterations=20 if quick else 40,
        seeds=(7,) if quick else (7, 19, 31),
    )
    return rep.format_fig7_table1(data)


def _run_fig8(quick: bool) -> str:
    from repro.runtime import experiment as ex, reporting as rep

    return rep.format_load_assignment(
        ex.load_assignment_tracking("composite", num_regrids=4 if quick else 8)
    )


def _run_fig9(quick: bool) -> str:
    from repro.runtime import experiment as ex, reporting as rep

    return rep.format_load_assignment(
        ex.load_assignment_tracking(
            "heterogeneous", num_regrids=4 if quick else 8
        )
    )


def _run_fig10(quick: bool) -> str:
    from repro.runtime import experiment as ex, reporting as rep

    return rep.format_imbalance(
        ex.imbalance_comparison(num_regrids=3 if quick else 6)
    )


def _run_fig11(quick: bool) -> str:
    from repro.runtime import experiment as ex, reporting as rep

    return rep.format_dynamic_allocation(
        ex.dynamic_allocation_trace(
            num_sensings=2, iterations=20 if quick else 30
        )
    )


def _run_table2(quick: bool) -> str:
    from repro.runtime import experiment as ex, reporting as rep

    data = ex.dynamic_vs_static_sensing(
        processor_counts=(2, 4) if quick else (2, 4, 6, 8),
        iterations=80 if quick else 160,
        seeds=(5,) if quick else (5, 11, 23),
    )
    return rep.format_table2(data)


def _run_table3(quick: bool) -> str:
    from repro.runtime import experiment as ex, reporting as rep

    data = ex.sensing_frequency_sweep(
        frequencies=(10, 40) if quick else (2, 10, 20, 30, 60),
        iterations=80 if quick else 160,
        seeds=(5,) if quick else (5, 11, 23),
    )
    return rep.format_table3(data)


def _run_fig12_15(quick: bool) -> str:
    from repro.runtime import experiment as ex, reporting as rep

    data = ex.sensing_frequency_traces(
        frequencies=(10, 40) if quick else (10, 20, 30, 40),
        iterations=60 if quick else 120,
    )
    return rep.format_frequency_traces(data)


def _run_ablation_weights(quick: bool) -> str:
    from repro.runtime import ablation as ab

    data = ab.weight_ablation(iterations=15 if quick else 30)
    lines = [f"weight ablation ({data['cluster']} cluster):"]
    for row in sorted(data["rows"], key=lambda r: r["seconds"]):
        lines.append(f"  {row['profile']:>14}: {row['seconds']:7.1f}s")
    return "\n".join(lines)


def _run_ablation_multiaxis(quick: bool) -> str:
    from repro.runtime import ablation as ab

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
    from repro.runtime import ablation as ab

    data = ab.forecaster_ablation(
        probes=20 if quick else 40, seeds=(0,) if quick else (0, 1, 2)
    )
    lines = [f"capacity MAE under {data['noise']:.0%} measurement noise:"]
    for row in sorted(data["rows"], key=lambda r: r["mae"]):
        lines.append(f"  {row['forecaster']:>9}: {row['mae']:.4f}")
    return "\n".join(lines)


def _run_sweep_probe_cost(quick: bool) -> str:
    from repro.runtime import ablation as ab

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
    from repro.runtime import ablation as ab

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
    from repro.runtime import ablation as ab

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
    from repro.runtime import ablation as ab

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


def lookup_experiment(name: str) -> Callable[[bool], str] | None:
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


def list_experiments(args: argparse.Namespace) -> int:
    """``repro list`` (and ``repro`` alone): every experiment id."""
    print("available experiments:")
    for key, (desc, _) in EXPERIMENTS.items():
        print(f"  {key:>22}  {desc}")
    print("  {:>22}  {}".format("all", "run everything"))
    return 0


def _run(args: argparse.Namespace) -> int:
    """``repro run``: one experiment, or each distinct one for ``all``."""
    everything = args.experiment == "all"
    fn = None if everything else lookup_experiment(args.experiment)
    if fn is None and not everything:
        return 2
    if args.ledger is not None and fn is not _run_ablation_learn:
        print("repro run: --ledger only applies to ablation-learn", file=sys.stderr)
        return 2
    if fn is not None:
        if args.ledger is None:
            print(fn(args.quick))
        else:
            print(fn(args.quick, args.ledger))
        return 0
    seen = set()
    for key, (_, fn) in EXPERIMENTS.items():
        if fn in seen:
            continue
        seen.add(fn)
        print(f"==> {key}")
        print(fn(args.quick))
        print()
    return 0


def register(subparsers: argparse._SubParsersAction) -> None:
    subparsers.add_parser(
        "list", help="list available experiments"
    ).set_defaults(run=list_experiments)
    run = subparsers.add_parser("run", help="run one experiment (or 'all')")
    add_experiment(run, help="experiment id from 'list', or 'all'")
    run.add_argument(
        "--ledger", default=None, metavar="DIR",
        help="record decision provenance under DIR "
        "(ablation-learn only; audit with `repro explain`)",
    )
    run.set_defaults(run=_run)
