"""Tests for performance introspection (repro.telemetry.profile).

The critical-path identity is the load-bearing invariant: for every
priced iteration the reconstructed path length must equal the iteration
span's simulated duration to 1e-9 -- the analyzer claims to *explain*
the wall time, so any residual means a phase was dropped or
double-counted.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.kernels.workloads import paper_rm3d_trace
from repro.partition import ACEHeterogeneous
from repro.runtime import RuntimeConfig, SamrRuntime
from repro.telemetry import (
    NullTracer,
    Tracer,
    analyze_critical_path,
    comm_profile,
    flamegraph_collapsed,
    format_critical_path_report,
    load_trace_records,
    openmetrics_selfcheck,
    registry_from_records,
    render_dashboard,
    speedscope_document,
)
from repro.telemetry.export import write_jsonl
from repro.telemetry.profile import CommProfile, LiveTop
from tests.telemetry.row_readers import grow, zeros

#: ``comm.exchange`` records as a trace file holds them: ``ranks`` from 0
#: up, pairs naming ranks above it, bool or 0/1 ``derated``, two pids,
#: optional ``pairs_dropped``; an event records its ``(src, dst, bytes)``
#: table or, if ``share``, names the last table of its pid.
_PAIRS = st.lists(
    st.tuples(
        st.integers(0, 9),
        st.integers(0, 9),
        st.one_of(st.integers(0, 10**9), st.floats(0.0, 1e12)),
        st.floats(0.0, 10.0),
        st.one_of(st.booleans(), st.sampled_from([0, 1])),
    ).map(list),
    max_size=12,
)
_EXCHANGES = st.tuples(
    st.sampled_from([1, 2]),
    st.sampled_from(["ghost-exchange", "migration", "sync"]),
    st.integers(0, 6),
    _PAIRS,
    st.integers(0, 3),
    st.booleans(),
)


def exchange_events(drawn) -> list[dict]:
    """``comm.exchange`` records of drawn ``(pid, phase, ranks, pairs,
    dropped, share)``: a shared table keeps the rows' seconds and derate
    flags, cut to the table's length or padded to it with idle, not
    derated rows (an exchange has one column entry per table row)."""
    events = []
    last: dict[int, tuple[int, list]] = {}
    for i, (pid, phase, ranks, pairs, dropped, share) in enumerate(drawn):
        if share and pid in last:
            table, rows = last[pid]
            pairs = pairs + [[0, 0, 0, 0.0, False]] * (len(rows) - len(pairs))
            pairs = [
                [*row, *pair[3:]] for row, pair in zip(rows, pairs)
            ]
            columns = {"table": table}
        else:
            last[pid] = (i, [pair[:3] for pair in pairs])
            columns = {"table": i, "pair_table": last[pid][1]}
        events.append(
            {
                "type": "event",
                "name": "comm.exchange",
                "pid": pid,
                "attributes": {
                    "phase": phase,
                    "ranks": ranks,
                    **columns,
                    "pair_seconds": [pair[3] for pair in pairs],
                    "pair_derated": [pair[4] for pair in pairs],
                    **({"pairs_dropped": dropped} if dropped else {}),
                },
            }
        )
    return events


def listed_records(records: list[dict]) -> list[dict]:
    """The records with every exchange's pairs listed in full, as
    ``pairs``: the form the reference fold reads."""
    tables: dict = {}
    for record in records:
        attrs = record.get("attributes") or {}
        if record.get("name") == "comm.exchange" and "pair_table" in attrs:
            tables[record["pid"], attrs["table"]] = attrs["pair_table"]
    out = []
    for record in records:
        attrs = record.get("attributes") or {}
        if record.get("name") == "comm.exchange":
            table = tables[record["pid"], attrs["table"]]
            pairs = [
                [*row, seconds, derated]
                for row, seconds, derated in zip(
                    table, attrs["pair_seconds"], attrs["pair_derated"]
                )
            ]
            attrs = {
                k: v
                for k, v in attrs.items()
                if k not in ("table", "pair_table", "pair_seconds", "pair_derated")
            }
            record = {**record, "attributes": {**attrs, "pairs": pairs}}
        out.append(record)
    return out


@pytest.fixture(scope="module")
def traced_run():
    """One fig10-style instrumented run shared by the module's tests."""
    tracer = Tracer()
    SamrRuntime(
        paper_rm3d_trace(num_regrids=4),
        Cluster.paper_four_node(),
        ACEHeterogeneous(),
        config=RuntimeConfig(
            iterations=20, regrid_interval=5, sensing_interval=0
        ),
        tracer=tracer,
    ).run()
    return tracer


class TestCriticalPath:
    def test_path_length_equals_iteration_duration(self, traced_run):
        runs = analyze_critical_path(traced_run)
        assert runs and runs[0].iterations
        for it in runs[0].iterations:
            assert it.path_length_s == pytest.approx(
                it.duration_s, abs=1e-9
            ), f"iteration {it.iteration} path does not explain its time"

    def test_phase_decomposition_sums_to_total(self, traced_run):
        cp = analyze_critical_path(traced_run)[0]
        parts = cp.compute_s + cp.comm_s + cp.sync_s + cp.barrier_s
        assert parts == pytest.approx(cp.total_s, rel=1e-9)

    def test_critical_rank_matches_pipeline_attribution(self, traced_run):
        # The pipeline stamps critical_rank on every iteration span; the
        # analyzer must agree with it (it is the argmax of busy time).
        stamped = [
            s.attributes.get("critical_rank")
            for s in traced_run.spans
            if s.name == "iteration"
        ]
        analyzed = [
            it.critical_rank
            for it in analyze_critical_path(traced_run)[0].iterations
        ]
        assert analyzed == stamped

    def test_slack_nonnegative_and_zero_for_critical_rank(self, traced_run):
        cp = analyze_critical_path(traced_run)[0]
        for it in cp.iterations:
            slack = it.slack_per_rank
            assert all(v >= -1e-12 for v in slack.values())
            if it.critical_rank is not None:
                assert slack[it.critical_rank] == pytest.approx(0.0)

    def test_headroom_bounded_by_busy_spread(self, traced_run):
        cp = analyze_critical_path(traced_run)[0]
        for it in cp.iterations:
            busy = list(it.busy_per_rank.values())
            assert it.balance_headroom_s <= max(busy) - min(busy) + 1e-12

    def test_offline_equals_live(self, traced_run, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(traced_run, path)
        live = analyze_critical_path(traced_run)[0].to_dict()
        offline = analyze_critical_path(path)[0].to_dict()
        # Labels come from the run registry live and the run span offline.
        live.pop("label"), offline.pop("label")
        assert offline == live

    def test_report_is_textual(self, traced_run):
        text = format_critical_path_report(analyze_critical_path(traced_run))
        assert "critical path" in text.lower()
        assert "compute" in text and "rank" in text

    def test_empty_source(self):
        assert analyze_critical_path([]) == []


class TestCommProfile:
    def test_matrix_totals_match_event_sums(self, traced_run):
        profiles = comm_profile(traced_run)
        assert profiles and profiles[0].events > 0
        total_bytes = sum(
            e.attributes["bytes"]
            for e in traced_run.events
            if e.name == "comm.exchange"
        )
        assert profiles[0].total.bytes_total == pytest.approx(total_bytes)

    def test_phases_split_exchange_vs_migration(self, traced_run):
        profile = comm_profile(traced_run)[0]
        assert "ghost-exchange" in profile.phases
        phase_bytes = sum(
            m.bytes_total for m in profile.phases.values()
        )
        assert phase_bytes == pytest.approx(profile.total.bytes_total)

    def test_no_self_traffic(self, traced_run):
        matrix = comm_profile(traced_run)[0].total
        for r in range(matrix.size):
            assert matrix.bytes[r][r] == 0.0

    def test_matrix_grows_to_the_largest_rank_named(self):
        (event,) = exchange_events(
            [(1, "migration", 2,
              [[0, 1, 100.0, 0.5, False], [3, 0, 50.0, 0.2, True]], 0, False)]
        )  # fmt: skip
        (profile,) = comm_profile([event])
        m = profile.phases["migration"]
        assert m.size == profile.total.size == 4  # wider than ``ranks``
        assert m.bytes_total == pytest.approx(150.0)
        assert m.derated_bytes_total == pytest.approx(50.0)
        assert m.messages[3][0] == 1

    def test_top_pairs_sorted_by_time(self, traced_run):
        pairs = comm_profile(traced_run)[0].total.top_pairs(5)
        times = [p["seconds"] for p in pairs]
        assert times == sorted(times, reverse=True)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_EXCHANGES, max_size=8))
    def test_batch_fold_equals_per_pair_fold(self, drawn):
        records = [
            {"type": "span", "name": "run", "pid": 1, "span_id": 1,
             "attributes": {"partitioner": "ACEHeterogeneous"}},
            *exchange_events(drawn),
        ]  # fmt: skip
        assert [p.to_dict() for p in comm_profile(records)] == [
            p.to_dict() for p in reference_comm_profile(listed_records(records))
        ]

    def test_batch_fold_on_a_real_trace(self, traced_run):
        records = listed_records(reference_as_records(traced_run))
        assert [p.to_dict() for p in comm_profile(traced_run)] == [
            p.to_dict()
            for p in reference_comm_profile(records, dict(traced_run.run_labels))
        ]


def reference_add(matrix, src, dst, nbytes, seconds, derated):
    """The per-pair ``CommMatrix.add`` that ``add_pairs`` replaced."""
    grow(matrix, max(src, dst) + 1)
    matrix.bytes[src][dst] += nbytes
    matrix.seconds[src][dst] += seconds
    matrix.messages[src][dst] += 1
    if derated:
        matrix.derated_bytes[src][dst] += nbytes


def reference_as_records(source):
    """Any trace source as parsed record dicts (the old normalizer)."""
    if isinstance(source, (Tracer, NullTracer)):
        return [s.to_dict() for s in source.spans] + [
            e.to_dict() for e in source.events
        ]
    if isinstance(source, (str, os.PathLike)):
        return load_trace_records(source)
    return list(source)


def reference_run_label(pid, spans, run_labels):
    """The label rule ``comm_profile`` applied (the old ``_run_label``)."""
    if run_labels and pid in run_labels:
        return str(run_labels[pid])
    for s in spans:
        if s["name"] == "run":
            partitioner = (s.get("attributes") or {}).get("partitioner")
            if partitioner:
                return str(partitioner)
    return f"run {pid}"


def reference_comm_profile(source, run_labels=None):
    """``comm_profile`` as it was: one ``add`` call per pair.

    Self-contained: the record normalizer and label rule above are
    copies of the old ones, not imports of the code under test.
    """
    if isinstance(source, Tracer) and run_labels is None:
        run_labels = dict(source.run_labels)
    records = reference_as_records(source)
    events = [
        r
        for r in records
        if r.get("type") == "event" and r.get("name") == "comm.exchange"
    ]
    spans = [r for r in records if r.get("type") == "span"]
    profiles = []
    for pid in sorted({e["pid"] for e in events}):
        run_span_records = [s for s in spans if s["pid"] == pid]
        profile = CommProfile(
            pid=pid,
            label=reference_run_label(pid, run_span_records, run_labels),
        )
        for event in (e for e in events if e["pid"] == pid):
            attrs = event.get("attributes") or {}
            phase = str(attrs.get("phase", "exchange"))
            size = int(attrs.get("ranks", 0))
            matrix = profile.phases.get(phase)
            if matrix is None:
                matrix = profile.phases[phase] = zeros(size)
            grow(matrix, size)
            grow(profile.total, size)
            for src, dst, nbytes, seconds, derated in attrs.get("pairs", ()):
                reference_add(
                    matrix, int(src), int(dst), nbytes, seconds, bool(derated)
                )
                reference_add(
                    profile.total, int(src), int(dst), nbytes, seconds,
                    bool(derated),
                )  # fmt: skip
            profile.events += 1
            profile.pairs_dropped += int(attrs.get("pairs_dropped", 0))
        profiles.append(profile)
    return profiles


class TestFlamegraph:
    def test_collapsed_stacks_rooted_at_run(self, traced_run):
        lines = flamegraph_collapsed(traced_run).splitlines()
        assert lines
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert stack.startswith("run: ")
            assert int(weight) > 0

    def test_collapsed_weight_bounded_by_run_duration(self, traced_run):
        run_span = next(s for s in traced_run.spans if s.name == "run")
        run_us = run_span.sim_duration * 1e6
        lines = flamegraph_collapsed(traced_run).splitlines()
        # Self time partitions the tree: runtime-track stacks (no rank
        # frames) can never sum past the run span itself.
        runtime_total = sum(
            int(line.rsplit(" ", 1)[1])
            for line in lines
            if "(rank " not in line
        )
        assert runtime_total <= run_us * 1.001 + 1

    def test_speedscope_well_nested(self, traced_run):
        doc = speedscope_document(traced_run)
        assert "schema.json" in doc["$schema"]
        assert doc["profiles"]
        for prof in doc["profiles"]:
            assert prof["type"] == "evented"
            stack, last_at = [], 0
            for ev in prof["events"]:
                assert ev["at"] >= last_at, "time went backwards"
                last_at = ev["at"]
                if ev["type"] == "O":
                    stack.append(ev["frame"])
                else:
                    assert stack and stack[-1] == ev["frame"], (
                        "C event does not match the open frame"
                    )
                    stack.pop()
            assert not stack, "unclosed frames"

    def test_speedscope_json_serializable(self, traced_run):
        text = json.dumps(speedscope_document(traced_run))
        assert "ghost-exchange" in text


class TestOfflineRegistry:
    def test_rebuilt_registry_passes_selfcheck(self, traced_run, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(traced_run, path)
        registry = registry_from_records(path)
        problems = openmetrics_selfcheck(registry.to_openmetrics())
        assert problems == []

    def test_rebuilt_comm_counters_match_live(self, traced_run, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(traced_run, path)
        rebuilt = registry_from_records(path)
        live_bytes = next(
            m.value
            for m in traced_run.metrics
            if m.name == "comm.bytes_total"
        )
        rebuilt_bytes = next(
            m.value for m in rebuilt if m.name == "comm.bytes_total"
        )
        assert rebuilt_bytes == pytest.approx(live_bytes)


class TestDamagedTraceFile:
    """A trace file is read under the progress log's contract.

    ``repro serve`` renders straight from a log a live or crashed
    campaign is still appending to, so every reader takes the complete,
    object-valued records and skips a torn tail or a foreign line.
    """

    #: Lines no writer of ours produces, and a record cut mid-append.
    DAMAGE = '[1, 2]\nnot json\n{"foreign": 1}\n{"type": "span", "na'

    @pytest.fixture
    def paths(self, traced_run, tmp_path):
        clean = tmp_path / "clean.jsonl"
        write_jsonl(traced_run, clean)
        damaged = tmp_path / "damaged.jsonl"
        damaged.write_text(
            clean.read_text(encoding="utf-8") + self.DAMAGE,
            encoding="utf-8",
        )
        return clean, damaged

    def test_well_formed_file_loads_line_for_line(self, paths, traced_run):
        clean, _ = paths
        lines = clean.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(traced_run.spans) + len(traced_run.events) > 50
        assert load_trace_records(clean) == [json.loads(ln) for ln in lines]

    def test_load_skips_torn_tail_and_foreign_lines(self, paths):
        clean, damaged = paths
        assert load_trace_records(damaged) == load_trace_records(clean)

    def test_dashboard_renders_the_complete_records(self, paths):
        clean, damaged = paths
        assert render_dashboard(damaged) == render_dashboard(clean)

    def test_profile_passes_read_the_complete_records(self, paths):
        clean, damaged = paths

        def dicts(results):
            return [r.to_dict() for r in results]

        assert dicts(analyze_critical_path(damaged)) == dicts(
            analyze_critical_path(clean)
        )
        assert dicts(comm_profile(damaged)) == dicts(comm_profile(clean))
        assert flamegraph_collapsed(damaged) == flamegraph_collapsed(clean)

    def test_missing_file_still_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace_records(tmp_path / "gone.jsonl")
        with pytest.raises(FileNotFoundError):
            analyze_critical_path(tmp_path / "gone.jsonl")


class TestLiveTop:
    def test_renders_after_spans(self, traced_run):
        top = LiveTop()
        for span in traced_run.spans:
            top.on_span_close(span)
        text = top.render()
        assert "iteration" in text and "rank" in text
        assert "critical" in text
