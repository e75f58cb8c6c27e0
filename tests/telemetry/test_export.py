"""Tests for the trace/metrics exporters."""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.telemetry import (
    Tracer,
    aggregate_phases,
    chrome_trace_events,
    metrics_csv,
    metrics_summary,
    write_chrome_trace,
    write_jsonl,
    write_metrics_csv,
    write_metrics_json,
)
from repro.telemetry.export import jsonl_lines


def sample_tracer() -> Tracer:
    tracer = Tracer()
    tracer.begin_run("sample")
    with tracer.span("run", partitioner="ACEHeterogeneous"):
        with tracer.span("sense") as span:
            span.set(capacities=np.array([0.25, 0.75]))
        tracer.add_span("iteration", 1.0, 3.0, compute=[2.0, 1.0], comm=[0.0, 0.0])
        tracer.event("split", count=int(np.int64(2)))
    tracer.metrics.counter("migration_bytes").inc(4096)
    tracer.metrics.gauge("node_utilization", node=0).set(0.9)
    tracer.metrics.histogram("iteration_seconds").observe(2.0)
    return tracer


class TestChromeTrace:
    def test_event_fields(self):
        events = chrome_trace_events(sample_tracer())
        complete = [e for e in events if e["ph"] == "X"]
        assert complete, "no complete events exported"
        for event in complete:
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(event)

    def test_one_tid_per_rank(self):
        events = chrome_trace_events(sample_tracer())
        by_name = {
            e["name"]: e["tid"] for e in events if e["ph"] == "X"
        }
        assert by_name["run"] == 0  # runtime control track
        ranks = {
            e["tid"] for e in events
            if e["ph"] == "X" and e["name"] == "compute"
        }
        assert ranks == {1, 2}  # rank k -> tid k+1

    def test_metadata_names_tracks(self):
        events = chrome_trace_events(sample_tracer())
        meta = [e for e in events if e["ph"] == "M"]
        names = {
            (e["name"], e["args"]["name"]) for e in meta
        }
        assert ("thread_name", "runtime") in names
        assert ("thread_name", "rank 0") in names
        assert any(n == "process_name" for n, _ in names)

    def test_sim_microsecond_timestamps(self):
        events = chrome_trace_events(sample_tracer())
        compute = [
            e for e in events if e["ph"] == "X" and e["name"] == "compute"
        ]
        assert {e["ts"] for e in compute} == {1e6}
        assert {e["dur"] for e in compute} == {2e6, 1e6}

    def test_file_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(sample_tracer(), path)
        events = json.loads(path.read_text())
        assert isinstance(events, list) and events

    def test_numpy_attributes_serialized(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(sample_tracer(), path)
        events = json.loads(path.read_text())
        (sense,) = [e for e in events if e.get("name") == "sense"]
        assert sense["args"]["capacities"] == [0.25, 0.75]


class TestJsonl:
    def test_one_record_per_line(self, tmp_path):
        tracer = sample_tracer()
        path = tmp_path / "events.jsonl"
        write_jsonl(tracer, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(tracer.spans) + len(tracer.events)
        records = [json.loads(line) for line in lines]
        assert {r["type"] for r in records} == {"span", "event"}

    def test_ordered_by_sim_time(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_jsonl(sample_tracer(), path)
        spans = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        starts = [
            r["start_sim"] for r in spans if r["type"] == "span"
        ]
        assert starts == sorted(starts)


# ----------------------------------------------------------------------
# The encoder hook against the Python pre-walk it replaced
# ----------------------------------------------------------------------
def reference_jsonable(value):
    """The pre-walk every record used to take before ``json.dumps``."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): reference_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_jsonable(v) for v in value]
    if hasattr(value, "tolist"):  # numpy array
        return reference_jsonable(value.tolist())
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)


def reference_jsonl_lines(tracer):
    """``jsonl_lines`` as it was: every record through the pre-walk."""
    records = [s.to_dict() for s in tracer.spans]
    records += [e.to_dict() for e in tracer.events]
    records.sort(
        key=lambda r: (r.get("start_sim", r.get("sim", 0.0)) or 0.0,
                       r.get("span_id", 0))
    )
    for record in records:
        yield json.dumps(reference_jsonable(record)) + "\n"


_ARRAY_DTYPES = st.sampled_from(
    [np.int64, np.float64, np.float32, np.bool_]
)
_LEAVES = st.one_of(
    st.integers(),
    st.floats(),  # NaN and +-inf included
    st.booleans(),
    st.none(),
    st.text(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.booleans().map(np.bool_),
    hnp.arrays(_ARRAY_DTYPES, hnp.array_shapes(min_dims=0, max_dims=3, max_side=3)),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=12,
)
_ATTRIBUTES = st.dictionaries(st.text(max_size=6), _VALUES, max_size=4)


def traced(span_attrs, event_attrs) -> Tracer:
    tracer = Tracer(wall_clock=lambda: 0.0)
    tracer.begin_run("encoder")
    for i, attrs in enumerate(span_attrs):
        tracer.add_span("sync", float(i), float(i) + 0.5, rank=i)
        tracer.spans[-1].attributes.update(attrs)
    for attrs in event_attrs:
        tracer.event("comm.exchange")
        tracer.events[-1].attributes.update(attrs)
    return tracer


class TestEncoderIdentity:
    """``jsonl_lines`` writes the bytes the pre-walk + ``json.dumps`` did."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_ATTRIBUTES, max_size=3),
        st.lists(_ATTRIBUTES, max_size=2),
    )
    def test_matches_prewalk_byte_for_byte(self, span_attrs, event_attrs):
        tracer = traced(span_attrs, event_attrs)
        assert list(jsonl_lines(tracer)) == list(reference_jsonl_lines(tracer))

    def test_key_json_cannot_write_takes_the_fallback(self):
        # A numpy integer key makes the encoder raise; that record alone
        # is rebuilt with str() keys, exactly as every record used to be.
        objects = np.array([None], dtype=object)
        objects[0] = {np.int64(1): np.float32(2.0)}
        tracer = traced(
            [{"counts": {np.int64(3): np.float32(0.5), "a": np.arange(2)},
              "objects": objects}],
            [{"plain": [1, 2]}],
        )  # fmt: skip
        event_line, span_line = jsonl_lines(tracer)
        assert [event_line, span_line] == list(reference_jsonl_lines(tracer))
        assert '"counts": {"3": 0.5, "a": [0, 1]}' in span_line
        assert '"objects": [{"1": 2.0}]' in span_line

    def test_keys_the_encoder_writes_itself(self):
        # bool/None/non-finite float keys are written the JSON way, not
        # the str() way the pre-walk used ("true" vs "True", "NaN" vs
        # "nan").  No emitter in the tree produces such keys; this pins
        # the one place the bytes differ.
        tracer = traced(
            [{"m": {True: 1, None: 2, math.nan: 3, math.inf: 4, 7: 5, 1.5: 6}}],
            [],
        )
        (line,) = jsonl_lines(tracer)
        assert (
            '"m": {"true": 1, "null": 2, "NaN": 3, "Infinity": 4, '
            '"7": 5, "1.5": 6}'
        ) in line
        (old,) = reference_jsonl_lines(tracer)
        assert (
            '"m": {"True": 1, "None": 2, "nan": 3, "inf": 4, "7": 5, "1.5": 6}'
        ) in old

    def test_chrome_trace_bytes_match_prewalk(self, tmp_path):
        tracer = sample_tracer()
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, path)
        events = chrome_trace_events(tracer)
        for event in events:
            event["args"] = reference_jsonable(event["args"])
        assert path.read_text(encoding="utf-8") == json.dumps(events)


class TestAggregation:
    def test_phase_totals(self):
        phases = aggregate_phases(sample_tracer())
        assert phases["compute"]["count"] == 2
        assert phases["compute"]["sim_seconds"] == 3.0
        assert phases["sense"]["count"] == 1

    def test_metrics_summary_from_tracer(self):
        summary = metrics_summary(sample_tracer())
        assert summary["num_runs"] == 1
        assert summary["num_events"] == 1
        assert "compute" in summary["phases"]
        assert (
            summary["metrics"]["migration_bytes"]["series"][0]["value"]
            == 4096.0
        )

    def test_metrics_json_file(self, tmp_path):
        path = tmp_path / "metrics.json"
        write_metrics_json(sample_tracer(), path)
        data = json.loads(path.read_text())
        assert data["num_spans"] == 3  # run, sense, iteration (rows inside)
        assert data["phases"]["compute"]["count"] == 2


class TestCsv:
    def test_csv_round_trips(self, tmp_path):
        tracer = sample_tracer()
        path = tmp_path / "metrics.csv"
        write_metrics_csv(tracer.metrics, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        names = {row["name"] for row in rows}
        assert names == {
            "migration_bytes", "node_utilization", "iteration_seconds",
        }

    def test_csv_text_has_union_header(self):
        text = metrics_csv(sample_tracer().metrics)
        header = text.splitlines()[0].split(",")
        assert "label_node" in header and "value" in header

    def test_label_values_with_commas_quotes_newlines_round_trip(self):
        from repro.telemetry import MetricsRegistry

        nasty = 'a,b "quoted"\nsecond line'
        registry = MetricsRegistry()
        registry.counter("c", tag=nasty).inc(2)
        text = metrics_csv(registry)
        (row,) = list(csv.DictReader(io.StringIO(text)))
        assert row["label_tag"] == nasty
        assert float(row["value"]) == 2.0

    def test_csv_file_round_trips_nasty_labels(self, tmp_path):
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        registry.gauge("g", path='x,"y"').set(1.5)
        registry.gauge("g", path="plain").set(2.5)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(registry, path)
        with open(path, newline="") as fh:
            rows = {r["label_path"]: float(r["value"]) for r in csv.DictReader(fh)}
        assert rows == {'x,"y"': 1.5, "plain": 2.5}
