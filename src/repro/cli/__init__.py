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

from repro.cli import campaign, experiments, learn, telemetry
from repro.cli.experiments import EXPERIMENTS

__all__ = ["main", "EXPERIMENTS"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="Regenerate the paper's tables and figures."
    )
    parser.set_defaults(run=experiments.list_experiments)
    commands = parser.add_subparsers()
    # One module per subsystem the commands drive, in the documented order.
    for module in (experiments, telemetry, campaign, learn):
        module.register(commands)
    args = parser.parse_args(argv)
    return args.run(args)
