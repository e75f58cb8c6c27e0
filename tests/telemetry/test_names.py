"""Tests for the span/event name registry and its lint predicate."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from repro.telemetry import EVENT_NAMES, EVENT_PREFIXES, SPAN_NAMES
from repro.telemetry.names import is_known_span

REPO = Path(__file__).resolve().parents[2]


class TestRegistry:
    def test_core_pipeline_spans_registered(self):
        assert {
            "run", "iteration", "sense", "partition", "migrate",
            "compute", "ghost-exchange", "sync",
        } <= SPAN_NAMES

    def test_span_predicate(self):
        assert is_known_span("compute")
        assert not is_known_span("computee")

    def test_event_predicate_exact_and_prefix(self):
        assert "cluster" in EVENT_NAMES
        assert "comm.exchange" in EVENT_NAMES  # literal: registered exactly
        assert "health.imbalance".startswith(EVENT_PREFIXES)  # f-string family
        assert "made.up.event" not in EVENT_NAMES
        assert not "made.up.event".startswith(EVENT_PREFIXES)

    def test_prefixes_end_with_dot(self):
        # A prefix without the dot would match unrelated names
        # ("commission" under "comm").
        assert all(p.endswith(".") for p in EVENT_PREFIXES)

    def test_registries_disjoint_enough(self):
        # "split" is deliberately both (span in the partitioner wrapper,
        # event when boxes split); nothing else may overlap silently.
        assert SPAN_NAMES & EVENT_NAMES <= {"split"}


class TestLintTool:
    def test_src_tree_is_clean(self):
        """The committed tree must pass its own span-name lint."""
        import subprocess

        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "check_span_names.py")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_a_prefix_family_admits_only_fstring_names(self):
        spec = importlib.util.spec_from_file_location(
            "check_span_names", REPO / "tools" / "check_span_names.py"
        )
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        planted = (
            'tracer.event("checkpoint.save")\n'
            'tracer.event("checkpoint.bogus")\n'
            'tracer.event(f"health.{kind}")\n'
            'tracer.event(f"bogus.{kind}")\n'
        )
        flagged = tool.check_source(planted, "planted.py")
        assert [v.split(": ")[0] for v in flagged] == ["planted.py:2", "planted.py:4"]
