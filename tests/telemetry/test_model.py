"""Tests for the trace model every reader reads (repro.telemetry.model)."""

from __future__ import annotations

import re
from bisect import bisect_right

import pytest

from repro.telemetry import (
    TraceModel,
    analyze_critical_path,
    analyze_records,
    comm_profile,
    render_dashboard,
    speedscope_document,
    write_jsonl,
)
from tests.telemetry.test_reader_digests import chaos_trace, multi_trace

#: The spans the health analysis folds into its per-phase breakdown.
HEALTH_PHASES = ("compute", "ghost-exchange", "sync")


def records_of(tracer) -> list[dict]:
    return [s.to_dict() for s in tracer.spans] + [
        e.to_dict() for e in tracer.events
    ]


class TestTraceModel:
    def test_every_source_groups_the_same_runs(self, tmp_path):
        tracer = multi_trace(tmp_path)
        path = tmp_path / "multi.events.jsonl"
        write_jsonl(tracer, path)

        def shape(model):
            return [
                (v.pid, len(v.spans), len(v.closed), len(v.comm_events))
                for v in model.runs
            ]

        live = TraceModel.of(tracer)
        assert shape(live) == shape(TraceModel.of(records_of(tracer)))
        assert shape(live) == shape(TraceModel.of(path))
        # The tracer's label map wins; a file falls back on the partitioner.
        assert [v.label for v in live.runs if v.spans] == [
            "SamrRuntime[ACEHeterogeneous]",
            "SamrRuntime[SFCHybrid]",
        ]
        assert [v.label for v in TraceModel.of(path).runs if v.spans] == [
            "ACEHeterogeneous",
            "SFCHybrid",
        ]

    def test_a_model_is_its_own_model(self, tmp_path):
        model = TraceModel.of(multi_trace(tmp_path))
        assert TraceModel.of(model) is model
        with pytest.raises(ValueError):
            TraceModel.of(model, run_labels={1: "renamed"})

    def test_only_a_live_tracer_brings_its_registry(self, tmp_path):
        tracer = multi_trace(tmp_path)
        assert TraceModel.of(tracer).metrics is tracer.metrics
        assert TraceModel.of(records_of(tracer)).metrics is None


class TestRunLabel:
    """A run whose ``run`` span never closed keeps one name everywhere."""

    EXPECTED = {1: "ACEHeterogeneous", 2: "SFCHybrid"}

    @pytest.fixture
    def open_run_records(self, tmp_path):
        records = records_of(multi_trace(tmp_path))
        for record in records:
            if record["type"] == "span" and record["name"] == "run":
                record["end_sim"] = record["end_wall"] = None
        return records

    def test_every_reader_names_the_run_alike(self, open_run_records):
        records = open_run_records
        assert {
            cp.pid: cp.label for cp in analyze_critical_path(records)
        } == self.EXPECTED
        assert {p.pid: p.label for p in comm_profile(records)} == self.EXPECTED
        snapshots, _ = analyze_records(records)
        assert {s.pid: s.run_label for s in snapshots} == self.EXPECTED
        names = {
            profile["name"]
            for profile in speedscope_document(records)["profiles"]
        }
        assert {
            int(pid): label
            for label, pid in (
                re.fullmatch(r"(.*) \(pid (\d+)\) .*", name).groups()
                for name in names
            )
        } == self.EXPECTED
        html = render_dashboard(records)
        for pid, label in self.EXPECTED.items():
            assert f"<h2>Run {pid} — {label}</h2>" in html

    def test_unlabelled_runs_print_their_pid(self, open_run_records):
        for record in open_run_records:
            if record["type"] == "span" and record["name"] == "run":
                record["attributes"] = {}
        assert [
            cp.label for cp in analyze_critical_path(open_run_records)
        ] == ["run 1", "run 2"]


# ----------------------------------------------------------------------
def model_slots(view) -> dict[int, int | None]:
    """Iteration span id of each health-phase span, by the model's rule."""
    placed = {
        s["span_id"]: view.iterations[slot]["span_id"]
        for s, slot in zip(view.closed, view.columns.slot)
        if slot is not None
    }
    return {
        s["span_id"]: placed.get(s["span_id"])
        for s in view.spans
        if s["name"] in HEALTH_PHASES
    }


def health_slots(view) -> dict[int, int | None]:
    """The same, by the health analysis's rule: ``bisect_right(starts,
    start) - 1`` over every iteration sorted by start, no epsilon, no
    end check, open spans included."""
    iterations = sorted(
        (s for s in view.spans if s["name"] == "iteration"),
        key=lambda s: s["start_sim"],
    )
    starts = [s["start_sim"] for s in iterations]
    slots = {}
    for s in view.spans:
        if s["name"] in HEALTH_PHASES:
            idx = bisect_right(starts, s["start_sim"]) - 1
            slots[s["span_id"]] = iterations[idx]["span_id"] if idx >= 0 else None
    return slots


def rule_differences(model) -> list[tuple[int, int, int | None, int | None]]:
    """``(pid, span_id, health slot, model slot)`` where the rules part."""
    out = []
    for view in model.runs:
        by_model, by_health = model_slots(view), health_slots(view)
        out += [
            (view.pid, span_id, by_health[span_id], by_model[span_id])
            for span_id in by_health
            if by_health[span_id] != by_model[span_id]
        ]
    return out


def span(span_id, name, start, end, rank=None):
    return {
        "type": "span", "name": name, "span_id": span_id, "pid": 1,
        "parent_id": None, "rank": rank, "start_sim": start,
        "end_sim": end, "attributes": {},
    }  # fmt: skip


class TestIterationSlotRules:
    """The critical-path slot rule and the health analysis's differ.

    Both are kept byte for byte; these tests say exactly where they part,
    so merging them is a change whose effect is known.
    """

    def test_health_rule_is_what_the_analysis_applies(self, tmp_path):
        model = TraceModel.of(chaos_trace(tmp_path))
        snapshots, _ = analyze_records(model)
        by_iteration: dict[int, dict[str, float]] = {}
        iteration_ids: list[int] = []
        for view in model.runs:
            slots = health_slots(view)
            for s in view.spans:
                target = slots.get(s["span_id"])
                if s["name"] in HEALTH_PHASES and target is not None:
                    phases = by_iteration.setdefault(target, {})
                    phases[s["name"]] = phases.get(s["name"], 0.0) + (
                        s["end_sim"] - s["start_sim"]
                    )
            iteration_ids += [
                s["span_id"]
                for s in sorted(
                    (s for s in view.spans if s["name"] == "iteration"),
                    key=lambda s: s["start_sim"],
                )
            ]
        assert [s.phase_seconds for s in snapshots] == [
            by_iteration.get(i, {}) for i in iteration_ids
        ]

    def test_rules_agree_on_the_kill_and_recover_trace(self, tmp_path):
        model = TraceModel.of(chaos_trace(tmp_path))
        assert sum(len(model_slots(v)) for v in model.runs) == 99
        assert rule_differences(model) == []

    def test_rules_part_on_spans_that_leave_their_iteration(self):
        records = [
            span(1, "iteration", 0.0, 1.0),
            span(2, "iteration", 1.0, 2.0),
            span(3, "compute", 0.2, 0.8, rank=0),  # inside: both agree
            span(4, "compute", 0.5, 1.5, rank=1),  # outlives iteration 1
            span(5, "compute", 1.0 - 1e-12, 1.5, rank=2),  # within epsilon
            span(6, "compute", 0.3, None, rank=3),  # never closed
            span(7, "sync", 1.2, 2.0),  # inside: both agree
            span(8, "compute", -1.0, -0.5, rank=0),  # before any iteration
        ]
        assert rule_differences(TraceModel.of(records)) == [
            (1, 4, 1, None),
            (1, 5, 1, 2),
            (1, 6, 1, None),
        ]
