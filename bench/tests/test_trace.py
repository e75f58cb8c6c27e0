"""Span arithmetic and wrapper hygiene of bench/trace.py + bench/layers.py."""

import numpy as np
import pytest

from bench import layers, trace
from bench.trace import SpanRecorder


def span(name, start, end, parent=-1, rep=0, leaf=0.0, tag=None):
    return [name, tag, start, end, parent, rep, leaf]


class TestSelfTime:
    def test_nested_children_are_subtracted(self):
        spans = [
            span("a.root", 0.0, 10.0),
            span("b.child", 1.0, 4.0, parent=0),
            span("b.child", 5.0, 7.0, parent=0),
            span("c.grandchild", 1.5, 2.5, parent=1),
        ]
        assert trace.self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 1.0])

    def test_overlapping_children_count_their_union_once(self):
        spans = [
            span("a.root", 0.0, 10.0),
            span("b.x", 2.0, 6.0, parent=0),
            span("b.y", 4.0, 8.0, parent=0),  # overlaps b.x on [4, 6]
        ]
        assert trace.self_times(spans)[0] == pytest.approx(4.0)

    def test_child_sticking_out_is_clipped_to_the_parent(self):
        spans = [span("a.root", 0.0, 5.0), span("b.x", 3.0, 9.0, parent=0)]
        assert trace.self_times(spans)[0] == pytest.approx(3.0)

    def test_leaf_seconds_count_as_covered_and_never_go_negative(self):
        spans = [span("a.root", 0.0, 2.0, leaf=0.5), span("a.tiny", 0.0, 1.0, leaf=3.0)]
        assert trace.self_times(spans) == pytest.approx([1.5, 0.0])

    def test_self_times_rebuild_the_root_wall(self):
        spans = [
            span("a.root", 0.0, 10.0),
            span("b.x", 1.0, 9.0, parent=0),
            span("c.y", 2.0, 3.0, parent=1),
            span("c.y", 3.0, 8.0, parent=1),
        ]
        assert sum(trace.self_times(spans)) == pytest.approx(10.0)


class TestAggregate:
    def test_totals_count_nested_same_name_calls_once(self):
        spans = [
            span("p.partition", 0.0, 4.0, tag="Level"),
            span("p.partition", 1.0, 3.0, parent=0, tag="Inner"),
            span("p.partition", 5.0, 6.0, rep=1, tag="Inner"),
        ]
        per_rep = trace.aggregate(spans)
        stats, root_cover = per_rep[0]
        assert stats["p.partition"].calls == 2
        assert stats["p.partition"].total_s == pytest.approx(4.0)
        assert stats["p.partition"].self_s == pytest.approx(4.0)
        assert dict(stats["p.partition"].by_tag) == {"Level": pytest.approx(4.0)}
        assert root_cover == pytest.approx(4.0)
        assert per_rep[1][0]["p.partition"].total_s == pytest.approx(1.0)


class TestWrappers:
    def test_recorder_builds_the_call_tree(self):
        rec = SpanRecorder()
        inner = rec.span_wrapper(lambda: 1, "x.inner")
        outer = rec.span_wrapper(lambda: inner() + inner(), "x.outer")
        rec.rep = 3
        assert outer() == 2
        names = [(s[trace.NAME], s[trace.PARENT], s[trace.REP]) for s in rec.spans]
        assert names == [("x.outer", -1, 3), ("x.inner", 0, 3), ("x.inner", 0, 3)]
        assert rec.stack == []

    def test_a_raising_call_still_closes_its_span(self):
        rec = SpanRecorder()

        def boom():
            raise ValueError("no")

        with pytest.raises(ValueError):
            rec.span_wrapper(boom, "x.boom")()
        assert rec.stack == [] and rec.spans[0][trace.END] >= rec.spans[0][trace.START]

    def test_install_then_remove_restores_every_attribute(self):
        from repro.partition import SFCHybrid, WorkModel
        from repro.runtime import pipeline
        from repro.util.geometry import Box, BoxList

        rec = SpanRecorder()
        layers.install(rec)
        patched = rec.patched_attributes()
        assert len(patched) > 40
        # a function bound by name in a second module is patched there too
        assert any(owner is pipeline and attr == "plan_exchange_volumes" for owner, attr, _ in patched)
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original

        boxes = BoxList([Box((0, 0), (8, 8)), Box((8, 0), (16, 8))])
        rec.rep = 0
        SFCHybrid().partition(boxes, np.array([0.5, 0.5]), WorkModel())
        assert any(s[trace.NAME] == layers.PARTITION_SPAN for s in rec.spans)

        rec.remove()
        assert rec.patched_attributes() == []
        for owner, attr, original in patched:
            assert getattr(owner, attr) is original, (owner, attr)
