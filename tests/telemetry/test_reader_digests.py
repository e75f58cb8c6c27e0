"""Every trace reader's output, pinned byte for byte on four fixed traces.

The readers -- dashboard, critical path, comm matrices, collapsed and
speedscope flamegraphs, OpenMetrics, offline health analysis, the cell
bundle and the ``repro profile`` / ``repro report`` artifacts -- are the
paper's evidence: the per-iteration imbalance against the 40 % bound and
which node gated each step are read off them.  A refactor of how they
read a trace must leave every byte alone, so each output's sha256 is
compared with ``data/reader_digests.json``.

The four traces come from :func:`~repro.telemetry.deterministic_tracer`
(wall clock pinned at zero, so the bytes are a function of the code):

- ``multi``: two runs of one experiment in one tracer, on a four-node
  and a six-node cluster;
- ``chaos``: a kill-and-recover run of the advection kernel, with fault
  and recovery events and replayed steps;
- ``learned``: a run under the learned controller with a decision
  ledger, so the trace carries ``decision.*`` events;
- ``rm3d32``: the paper's RM3D run on 32 dynamic nodes through two
  regrids, so migration and ghost-exchange comm events interleave and
  rank ids reach two digits.

Each trace is read from the live tracer and from its exported JSONL
file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.cluster import Cluster
from repro.kernels.workloads import paper_rm3d_trace
from repro.learn import DecisionLedger, LearnConfig, LearnController
from repro.partition import ACEHeterogeneous, SFCHybrid
from repro.runtime import RuntimeConfig, SamrRuntime
from repro.runtime.experiment import chaos_experiment
from repro.telemetry import (
    analyze_critical_path,
    analyze_records,
    comm_profile,
    deterministic_tracer,
    flamegraph_collapsed,
    format_critical_path_report,
    load_trace_records,
    registry_from_records,
    render_dashboard,
    speedscope_document,
    write_cell_bundle,
    write_jsonl,
)

DIGESTS = Path(__file__).with_name("data") / "reader_digests.json"


def multi_trace(tmp_path: Path):
    tracer = deterministic_tracer()
    for partitioner, cluster in (
        (ACEHeterogeneous(), Cluster.paper_four_node()),
        (SFCHybrid(), Cluster.homogeneous(6)),
    ):
        SamrRuntime(
            paper_rm3d_trace(num_regrids=4),
            cluster,
            partitioner,
            config=RuntimeConfig(
                iterations=12, regrid_interval=4, sensing_interval=4
            ),
            tracer=tracer,
        ).run()
    return tracer


def chaos_trace(tmp_path: Path):
    tracer = deterministic_tracer()
    stats = chaos_experiment(
        num_nodes=4, steps=9, kill=2, outage_window=(0.5, 0.8), tracer=tracer
    )
    assert stats["bitwise_identical"] and stats["replayed_steps"] > 0
    return tracer


def learned_trace(tmp_path: Path):
    tracer = deterministic_tracer()
    learn = LearnController(
        LearnConfig(
            adaptive_sensing=True, payoff_gate=True, transient_forecast=True
        ),
        ledger=DecisionLedger(tmp_path / "ledger"),
    )
    SamrRuntime(
        paper_rm3d_trace(num_regrids=4),
        Cluster.paper_four_node(),
        ACEHeterogeneous(),
        config=RuntimeConfig(
            iterations=16, regrid_interval=4, sensing_interval=4
        ),
        tracer=tracer,
        learn=learn,
    ).run()
    return tracer


def rm3d32_trace(tmp_path: Path):
    tracer = deterministic_tracer()
    SamrRuntime(
        paper_rm3d_trace(num_regrids=3),
        Cluster.paper_linux_cluster(32, seed=11, dynamic=True, horizon_s=600.0),
        ACEHeterogeneous(),
        config=RuntimeConfig(
            iterations=12, regrid_interval=4, sensing_interval=4
        ),
        tracer=tracer,
    ).run()
    return tracer


TRACES = {
    "multi": multi_trace,
    "chaos": chaos_trace,
    "learned": learned_trace,
    "rm3d32": rm3d32_trace,
}


def sha(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def reader_outputs(source, records, run_labels) -> dict[str, str]:
    """Every reader's output on one trace source, as text."""
    critical = analyze_critical_path(source)
    snapshots, events = analyze_records(records, run_labels=run_labels)
    return {
        "dashboard": render_dashboard(source),
        "critical_path": json.dumps([r.to_dict() for r in critical], indent=1),
        "critical_path_report": format_critical_path_report(critical),
        "comm": json.dumps([p.to_dict() for p in comm_profile(source)], indent=1),
        "collapsed": flamegraph_collapsed(source),
        "speedscope": json.dumps(speedscope_document(source, name="pinned")),
        "openmetrics": registry_from_records(source).to_openmetrics(),
        "health_snapshots": json.dumps(
            [s.to_dict() for s in snapshots], sort_keys=True
        ),
        "health_events": json.dumps(
            [e.to_dict() for e in events], sort_keys=True
        ),
    }


def trace_digests(name: str, tmp_path: Path, capsys) -> dict[str, str]:
    """``{"<source>.<output>": sha256}`` for one pinned trace."""
    tracer = TRACES[name](tmp_path)
    live_records = [s.to_dict() for s in tracer.spans] + [
        e.to_dict() for e in tracer.events
    ]
    trace_path = tmp_path / f"{name}.events.jsonl"
    write_jsonl(tracer, trace_path)
    texts = {
        f"tracer.{k}": v
        for k, v in reader_outputs(
            tracer, live_records, tracer.run_labels
        ).items()
    }
    texts.update(
        (f"jsonl.{k}", v)
        for k, v in reader_outputs(
            trace_path, load_trace_records(trace_path), None
        ).items()
    )
    bundle = tmp_path / "bundle"
    write_cell_bundle(tracer, bundle, cell_key=name)
    for path in sorted(bundle.iterdir()):
        texts[f"bundle.{path.name}"] = path.read_text(encoding="utf-8")

    out = tmp_path / "cli"
    capsys.readouterr()
    assert main(["profile", str(trace_path), "--out-dir", str(out)]) == 0
    assert main(["report", str(trace_path), "--out-dir", str(out)]) == 0
    texts["cli.stdout"] = capsys.readouterr().out.replace(str(out), "<out>")
    for path in sorted(out.iterdir()):
        texts[f"cli.{path.name}"] = path.read_text(encoding="utf-8")
    return {key: sha(text) for key, text in sorted(texts.items())}


@pytest.mark.parametrize("name", sorted(TRACES))
def test_reader_outputs_are_pinned(name, tmp_path, capsys):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))[name]
    assert trace_digests(name, tmp_path, capsys) == pinned
