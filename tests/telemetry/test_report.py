"""Tests for the self-contained HTML health dashboard."""

from __future__ import annotations

import re

from repro.cluster import Cluster
from repro.partition import ACEHeterogeneous
from repro.runtime import RuntimeConfig, SamrRuntime
from repro.telemetry import (
    Tracer,
    load_trace_records,
    render_dashboard,
    write_dashboard,
    write_jsonl,
)
from tests.conftest import moving_blob_trace


def traced_run(iterations=10):
    tracer = Tracer()
    SamrRuntime(
        moving_blob_trace(domain_shape=(32, 32), num_regrids=4, max_levels=2),
        Cluster.paper_linux_cluster(4, seed=7),
        ACEHeterogeneous(),
        config=RuntimeConfig(iterations=iterations, sensing_interval=4),
        tracer=tracer,
    ).run()
    return tracer


def synthetic_tracer(imbalances=(10.0, 80.0, 15.0)):
    tracer = Tracer()
    tracer.begin_run("synthetic")
    tracer.add_span(
        "sense", 0.0, 0.5, overhead_seconds=0.5, capacities=(0.5, 0.5)
    )
    t = 0.5
    for i, imb in enumerate(imbalances):
        tracer.add_span(
            "iteration", t, t + 1.0, iteration=i, epoch=0, imbalance_pct=imb,
            compute=[0.8, 0.6], comm=[0.0, 0.0],
        )  # fmt: skip
        t += 1.0
    tracer.add_span("run", 0.0, t)
    return tracer


class TestSelfContainment:
    def test_no_external_resources(self):
        html = render_dashboard(traced_run())
        lowered = html.lower()
        assert "<script src" not in lowered
        assert "<link" not in lowered
        assert "cdn." not in lowered
        assert "@import" not in lowered
        assert "fetch(" not in lowered
        # The only URL allowed is the SVG namespace identifier, which
        # browsers never fetch.
        urls = re.findall(r"https?://[^\s'\"<>]+", html)
        assert set(urls) <= {"http://www.w3.org/2000/svg"}

    def test_single_document(self):
        html = render_dashboard(traced_run())
        assert html.lstrip().lower().startswith("<!doctype html>")
        assert html.count("<html") == 1
        assert "</html>" in html


class TestDashboardContent:
    def test_required_charts_present(self):
        html = render_dashboard(traced_run())
        assert "<svg" in html
        assert "Per-rank phase timeline" in html
        assert "rank 0" in html and "rank 3" in html
        assert "Imbalance trajectory" in html or "imbalance" in html.lower()
        assert "40% paper bound" in html
        assert "Capacity evolution" in html or "capacit" in html.lower()

    def test_phase_legend_and_tooltips(self):
        html = render_dashboard(traced_run())
        for phase in ("compute", "ghost-exchange", "sync", "sense", "migrate"):
            assert phase in html
        assert "<title>" in html  # native SVG tooltips

    def test_table_views_exist(self):
        # The palette validator WARNs on light-surface contrast for some
        # series colors; relief is visible labels plus a table view.
        html = render_dashboard(traced_run())
        assert "<table" in html

    def test_dark_mode_is_selected_not_flipped(self):
        html = render_dashboard(traced_run())
        assert "prefers-color-scheme: dark" in html

    def test_anomaly_markers_and_event_rows(self):
        html = render_dashboard(synthetic_tracer(imbalances=(10.0, 80.0, 15.0)))
        assert "imbalance_bound" in html
        assert "critical" in html
        # A healthy run renders no anomaly rows.
        healthy = render_dashboard(synthetic_tracer(imbalances=(5.0, 6.0)))
        assert "imbalance_bound" not in healthy

    def test_multiple_runs_render_separate_sections(self):
        tracer = synthetic_tracer()
        tracer.begin_run("second")
        tracer.add_span("iteration", 0.0, 1.0, iteration=0)
        tracer.add_span("run", 0.0, 1.0)
        html = render_dashboard(tracer)
        assert "Run 1" in html and "Run 2" in html


class TestSources:
    def test_write_dashboard_from_tracer(self, tmp_path):
        path = tmp_path / "dash.html"
        write_dashboard(traced_run(), path)
        assert path.exists() and path.stat().st_size > 1000

    def test_render_from_jsonl_file(self, tmp_path):
        tracer = traced_run()
        trace_path = tmp_path / "run.events.jsonl"
        write_jsonl(tracer, trace_path)
        from_file = render_dashboard(trace_path)
        assert "Per-rank phase timeline" in from_file
        assert "rank 0" in from_file

    def test_render_from_parsed_records(self, tmp_path):
        tracer = synthetic_tracer()
        trace_path = tmp_path / "run.events.jsonl"
        write_jsonl(tracer, trace_path)
        records = load_trace_records(trace_path)
        assert render_dashboard(records).count("<svg") >= 1

    def test_empty_trace_renders_placeholder(self):
        html = render_dashboard(Tracer())
        assert "<html" in html  # degrades gracefully, no crash


class TestProfilingPanels:
    """Comm heatmap + critical-path panel added by the profiling PR."""

    def test_heatmap_and_critical_panel_render(self):
        html = render_dashboard(traced_run())
        assert "Communication matrix" in html
        assert "Critical path" in html
        # At least one shaded heatmap cell with a src->dst tooltip.
        assert re.search(r"class='hm[ '][^>]*fill-opacity", html)
        assert "rank 0 -&gt; rank" in html or "rank 0 -> rank" in html

    def test_critical_path_spans_highlighted_on_timeline(self):
        html = render_dashboard(traced_run())
        crit_rects = re.findall(r"class='ph-[\w-]+ crit'", html)
        assert crit_rects, "no timeline rects carry the critical outline"
        assert "[critical path]" in html  # tooltip marks them textually
        assert "critical path</span>" in html  # legend chip

    def test_headroom_note_present(self):
        html = render_dashboard(traced_run())
        assert "Perfect rebalancing headroom" in html

    def test_offline_render_matches_live_highlighting(self, tmp_path):
        tracer = traced_run()
        live = render_dashboard(tracer)
        path = tmp_path / "trace.jsonl"
        write_jsonl(tracer, path)
        offline = render_dashboard(load_trace_records(path))
        n = len(re.findall(r"class='ph-[\w-]+ crit'", live))
        assert len(re.findall(r"class='ph-[\w-]+ crit'", offline)) == n

    def test_trace_without_comm_events_degrades_gracefully(self):
        html = render_dashboard(synthetic_tracer())
        assert "no communication events" in html
        # Synthetic add_span traces carry no critical_rank attrs either;
        # the analyzer falls back to argmax-busy attribution.
        assert "Critical path" in html


def learned_traced_run(tmp_path, iterations=30):
    """A traced run with a learning controller and a decision ledger."""
    from repro.learn import DecisionLedger, LearnConfig, LearnController

    tracer = Tracer()
    ledger = DecisionLedger(tmp_path / "ledger")
    SamrRuntime(
        moving_blob_trace(domain_shape=(32, 32), num_regrids=4, max_levels=2),
        Cluster.paper_linux_cluster(4, seed=7, dynamic=True, horizon_s=40.0),
        ACEHeterogeneous(),
        config=RuntimeConfig(
            iterations=iterations, regrid_interval=7, sensing_interval=4
        ),
        learn=LearnController(LearnConfig(), ledger=ledger),
        tracer=tracer,
    ).run()
    return tracer, ledger


class TestDecisionPanel:
    def test_panel_renders_from_ledgered_run(self, tmp_path):
        tracer, ledger = learned_traced_run(tmp_path)
        assert len(ledger) > 0
        html = render_dashboard(tracer)
        assert "Decision provenance" in html
        assert "Repartition gate timeline" in html
        assert "Prediction calibration" in html
        assert "decision records" in html
        # The gate table draws payoff-vs-cost bars and oracle verdicts.
        assert "bar-cost" in html
        assert "hindsight oracle" in html

    def test_panel_numbers_match_reconcile(self, tmp_path):
        from repro.learn.audit import load_ledger_rows, reconcile

        tracer, _ = learned_traced_run(tmp_path)
        report = reconcile(load_ledger_rows(tmp_path / "ledger"))
        html = render_dashboard(tracer)
        gate = report["gate"]
        assert (
            f"{gate['decisions']} gate decisions "
            f"({gate['accepts']} accepts, {gate['skips']} skips)"
        ) in html
        cal = report["calibration"]
        if cal["coverage"] is not None:
            assert f"{cal['coverage']:.1%}" in html

    def test_panel_absent_without_learner(self):
        html = render_dashboard(traced_run())
        assert "Decision provenance" not in html

    def test_panel_survives_jsonl_round_trip(self, tmp_path):
        tracer, _ = learned_traced_run(tmp_path)
        path = tmp_path / "trace.jsonl"
        write_jsonl(tracer, path)
        html = render_dashboard(str(path))
        assert "Decision provenance" in html
        assert "Prediction calibration" in html
