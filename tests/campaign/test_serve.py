"""Tests for the ``repro serve`` HTTP layer."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.campaign import (
    ORCHESTRATOR_TRACE_NAME,
    CampaignRunner,
    CampaignSpec,
    make_server,
)
from repro.util.errors import CampaignError


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One completed campaign behind a live server on an ephemeral port.

    Like ``repro campaign run``, the campaign keeps the orchestrator's
    trace next to its progress log.
    """
    from repro.telemetry import write_jsonl

    root = tmp_path_factory.mktemp("serve-root")
    spec = CampaignSpec(
        name="web",
        scenarios=("paper-four-node",),
        partitioners=("greedy", "heterogeneous"),
        seeds=(1,),
        base_config={"iterations": 3},
    )
    runner = CampaignRunner(spec, root / "web", workers=1)
    runner.run()
    write_jsonl(runner.tracer, root / "web" / ORCHESTRATOR_TRACE_NAME)
    server = make_server(root, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def get(url: str, headers: dict | None = None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read()


class TestRoutes:
    def test_healthz(self, served):
        _, base = served
        status, _, body = get(f"{base}/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    def test_campaign_listing(self, served):
        _, base = served
        status, _, body = get(f"{base}/campaigns")
        assert status == 200
        rows = json.loads(body)["campaigns"]
        assert [r["id"] for r in rows] == ["web"]
        assert rows[0]["complete"]

    def test_campaign_detail(self, served):
        _, base = served
        status, _, body = get(f"{base}/campaigns/web")
        assert status == 200
        detail = json.loads(body)
        assert detail["num_cells"] == 2
        assert detail["completed"] == 2

    def test_cells_and_single_cell(self, served):
        _, base = served
        status, _, body = get(f"{base}/campaigns/web/cells")
        assert status == 200
        cells = json.loads(body)["cells"]
        assert len(cells) == 2
        key = sorted(cells)[0]
        status, _, body = get(f"{base}/campaigns/web/cells/{key}")
        assert status == 200
        record = json.loads(body)
        assert record["cell_key"] == key
        assert "metrics" in record

    def test_report_html(self, served):
        _, base = served
        status, headers, body = get(f"{base}/campaigns/web/report")
        assert status == 200
        assert headers["Content-Type"].startswith("text/html")
        assert b"Campaign web" in body
        assert b"greedy" in body and b"heterogeneous" in body

    def test_unknown_campaign_404(self, served):
        _, base = served
        status, _, body = get(f"{base}/campaigns/nope")
        assert status == 404
        assert "error" in json.loads(body)

    def test_unknown_route_404(self, served):
        _, base = served
        assert get(f"{base}/attic")[0] == 404

    def test_traversal_rejected(self, served):
        _, base = served
        assert get(f"{base}/campaigns/..%2F..%2Fetc")[0] == 404


class TestCellsPagination:
    def cells(self, base, query=""):
        status, _, body = get(f"{base}/campaigns/web/cells{query}")
        assert status == 200
        return json.loads(body)

    def test_cells_carry_status_and_artifacts(self, served):
        _, base = served
        payload = self.cells(base)
        assert payload["num_cells"] == 2
        assert payload["total_cells"] == 2
        for cell in payload["cells"].values():
            assert cell["status"] == "completed"
            assert cell["artifacts"] is True

    def test_limit_and_offset_page_in_key_order(self, served):
        _, base = served
        all_keys = sorted(self.cells(base)["cells"])
        first = self.cells(base, "?limit=1")
        assert list(first["cells"]) == all_keys[:1]
        assert first["num_cells"] == 2  # total matching, not page size
        second = self.cells(base, "?limit=1&offset=1")
        assert list(second["cells"]) == all_keys[1:]
        beyond = self.cells(base, "?offset=5")
        assert beyond["cells"] == {}

    def test_status_filter(self, served):
        _, base = served
        completed = self.cells(base, "?status=completed")
        assert len(completed["cells"]) == 2
        pending = self.cells(base, "?status=pending")
        assert pending["cells"] == {}
        assert pending["num_cells"] == 0

    def test_failed_status_comes_from_the_failure_log(
        self, tmp_path, monkeypatch
    ):
        import repro.campaign.orchestrator as orch

        real = orch.execute_cell

        def flaky(cell_dict, *args):
            if cell_dict["partitioner"] == "greedy":
                raise RuntimeError("injected")
            return real(cell_dict, *args)

        monkeypatch.setattr(orch, "execute_cell", flaky)
        spec = CampaignSpec(
            name="web",
            scenarios=("paper-four-node",),
            partitioners=("greedy", "heterogeneous"),
            seeds=(1,),
            base_config={"iterations": 3},
        )
        CampaignRunner(spec, tmp_path / "web").run()
        server = make_server(tmp_path, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            base = f"http://127.0.0.1:{server.server_address[1]}"
            by_status = {
                status: [
                    c["partitioner"]
                    for c in self.cells(base, f"?status={status}")[
                        "cells"
                    ].values()
                ]
                for status in ("completed", "failed", "pending")
            }
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert by_status == {
            "completed": ["heterogeneous"],
            "failed": ["greedy"],
            "pending": [],
        }

    def test_invalid_known_params_400(self, served):
        _, base = served
        for query in ("?limit=banana", "?offset=-1", "?status=bogus"):
            status, _, body = get(f"{base}/campaigns/web/cells{query}")
            assert status == 400, query
            assert "error" in json.loads(body)

    def test_unknown_params_ignored(self, served):
        _, base = served
        payload = self.cells(base, "?frobnicate=1&limit=1")
        assert len(payload["cells"]) == 1


class TestArtifactRoutes:
    def first_key(self, base) -> str:
        _, _, body = get(f"{base}/campaigns/web/cells")
        return sorted(json.loads(body)["cells"])[0]

    def test_flamegraph_artifact(self, served):
        server, base = served
        key = self.first_key(base)
        status, headers, body = get(
            f"{base}/campaigns/web/cells/{key}/artifacts/flamegraph"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        on_disk = (
            server.root / "web" / "artifacts" / key / "flamegraph.txt"
        ).read_bytes()
        assert body == on_disk

    def test_trace_and_profile_artifacts(self, served):
        _, base = served
        key = self.first_key(base)
        status, headers, body = get(
            f"{base}/campaigns/web/cells/{key}/artifacts/trace"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("application/x-ndjson")
        assert all(
            json.loads(line) for line in body.decode("utf-8").splitlines()
        )
        status, headers, body = get(
            f"{base}/campaigns/web/cells/{key}/artifacts/profile"
        )
        assert status == 200
        assert json.loads(body)["cell_key"] == key

    def test_unknown_kind_404_json(self, served):
        _, base = served
        key = self.first_key(base)
        status, _, body = get(
            f"{base}/campaigns/web/cells/{key}/artifacts/coredump"
        )
        assert status == 404
        assert "unknown artifact kind" in json.loads(body)["error"]

    def test_missing_cell_404_json(self, served):
        _, base = served
        status, _, body = get(
            f"{base}/campaigns/web/cells/no-such-cell/artifacts/trace"
        )
        assert status == 404
        assert "error" in json.loads(body)

    def test_malformed_key_404_never_500(self, served):
        _, base = served
        status, _, body = get(
            f"{base}/campaigns/web/cells/..%2Fsecrets/artifacts/trace"
        )
        assert status == 404
        assert "error" in json.loads(body)


class TestMetricsEndpoint:
    def test_openmetrics_exposition(self, served):
        _, base = served
        status, headers, body = get(f"{base}/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith(
            "application/openmetrics-text"
        )
        text = body.decode("utf-8")
        assert text.endswith("# EOF\n")
        assert 'campaign="web"' in text
        assert "campaign_cells_completed" in text
        assert "serve_requests_total" in text

    def test_exposition_passes_selfcheck(self, served):
        from repro.telemetry.metrics import openmetrics_selfcheck

        _, base = served
        _, _, body = get(f"{base}/metrics")
        assert openmetrics_selfcheck(body.decode("utf-8")) == []

    def test_metrics_not_cached(self, served):
        _, base = served
        _, headers, first = get(f"{base}/metrics")
        assert "ETag" not in headers
        _, _, second = get(f"{base}/metrics")
        # The request counter moves between scrapes: live, not a snapshot.
        assert first != second


def read_sse_frames(base: str, campaign: str) -> list[tuple[str, dict]]:
    """Consume one /live stream to EOF; returns (event, payload) frames."""
    frames: list[tuple[str, dict]] = []
    request = urllib.request.Request(f"{base}/campaigns/{campaign}/live")
    with urllib.request.urlopen(request, timeout=30) as response:
        event = None
        for raw in response:
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith("event: "):
                event = line[len("event: "):]
            elif line.startswith("data: ") and event is not None:
                frames.append((event, json.loads(line[len("data: "):])))
    return frames


class TestLiveStream:
    def test_replays_one_event_per_completed_cell(self, served):
        _, base = served
        frames = read_sse_frames(base, "web")
        names = [e for e, _ in frames]
        assert names[0] == "snapshot"
        assert names.count("live.cell_finished") == 2
        assert names[-1] == "campaign.completed"
        final = frames[-1][1]["progress"]
        assert final["complete"]
        assert final["completed"] == 2

    def test_frames_carry_progress_snapshots(self, served):
        _, base = served
        frames = read_sse_frames(base, "web")
        finishes = [p for e, p in frames if e == "live.cell_finished"]
        assert [f["progress"]["completed"] for f in finishes] == [1, 2]
        assert finishes[0]["event"]["attributes"]["cell_key"]

    def test_stream_terminates_on_server_shutdown(self, tmp_path):
        """A tail-following stream must end on graceful shutdown."""
        spec = CampaignSpec(
            name="slow",
            scenarios=("paper-four-node",),
            partitioners=("greedy",),
            seeds=(1, 2),
            base_config={"iterations": 3},
        )
        # One of two cells done: the stream replays it, then tails.
        CampaignRunner(spec, tmp_path / "slow", workers=1).run(max_cells=1)
        server = make_server(tmp_path, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        result: dict = {}

        def consume():
            result["frames"] = read_sse_frames(base, "slow")

        reader = threading.Thread(target=consume, daemon=True)
        reader.start()
        time.sleep(0.5)  # let it replay history and enter the tail loop
        server.shutdown()
        reader.join(timeout=5)
        server.server_close()
        assert not reader.is_alive(), "SSE stream survived shutdown"
        names = [e for e, _ in result["frames"]]
        assert "live.cell_finished" in names


class TestCaching:
    def test_etag_present_and_304_on_match(self, served):
        _, base = served
        _, headers, _ = get(f"{base}/campaigns/web/report")
        etag = headers["ETag"]
        status, headers2, body = get(
            f"{base}/campaigns/web/report", {"If-None-Match": etag}
        )
        assert status == 304
        assert body == b""
        assert headers2["ETag"] == etag

    def test_cached_report_is_fast_and_identical(self, served):
        server, base = served
        _, _, first = get(f"{base}/campaigns/web/report")  # warm
        start = time.perf_counter()
        _, _, second = get(f"{base}/campaigns/web/report")
        elapsed = time.perf_counter() - start
        assert second == first
        assert elapsed < 0.05  # the <50 ms cached-answer budget
        assert server.cache.hits >= 1

    def test_cache_invalidated_by_store_change(self, served):
        server, base = served
        _, headers, _ = get(f"{base}/campaigns/web/cells")
        etag = headers["ETag"]
        # Touch the store: append + remove a no-op log entry.
        log = server.root / "web" / "results.log.jsonl"
        log.write_text("", encoding="utf-8")
        status, headers2, _ = get(f"{base}/campaigns/web/cells")
        assert status == 200
        assert headers2["ETag"] != etag
        log.unlink()

    def test_cells_pages_revalidate_with_304(self, served):
        _, base = served
        _, headers, _ = get(f"{base}/campaigns/web/cells?limit=1")
        etag = headers["ETag"]
        status, _, body = get(
            f"{base}/campaigns/web/cells?limit=1", {"If-None-Match": etag}
        )
        assert status == 304
        assert body == b""

    def test_pages_have_distinct_etags(self, served):
        _, base = served
        _, h1, _ = get(f"{base}/campaigns/web/cells?limit=1")
        _, h2, _ = get(f"{base}/campaigns/web/cells?limit=1&offset=1")
        assert h1["ETag"] != h2["ETag"]

    def test_etag_invalidated_by_compaction_mid_serve(self, served):
        from repro.campaign import ResultStore

        server, base = served
        _, headers, first = get(f"{base}/campaigns/web/cells")
        etag = headers["ETag"]
        # Compact while the server is live: identical content (the log
        # only holds a duplicate), but the store files were rewritten, so
        # the validator must turn over and a conditional request must be
        # answered with a fresh 200.  (A compaction with nothing to merge
        # writes nothing; test_store pins that.)
        store = ResultStore(server.root / "web")
        store.append(store.records()[0])
        store.compact()
        status, headers2, body = get(
            f"{base}/campaigns/web/cells", {"If-None-Match": etag}
        )
        assert status == 200
        assert headers2["ETag"] != etag
        assert body == first  # same bytes, new validator


class TestServerConstruction:
    def test_missing_root_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="not a directory"):
            make_server(tmp_path / "nope")

    def test_campaign_ids_ignores_plain_dirs(self, tmp_path):
        (tmp_path / "junk").mkdir()
        server = make_server(tmp_path, port=0)
        try:
            assert server.campaign_ids() == []
        finally:
            server.server_close()


class TestDashboardRoute:
    def test_torn_orchestrator_trace_still_renders(self, served):
        """A crashed campaign's trace ends mid-record: 200, not 500."""
        import shutil

        from repro.telemetry import render_dashboard

        server, base = served
        web, crashed = server.root / "web", server.root / "crashed"
        crashed.mkdir()
        try:
            shutil.copy(web / "campaign.json", crashed / "campaign.json")
            shutil.copy(web / "events.jsonl", crashed / "events.jsonl")
            trace = web / ORCHESTRATOR_TRACE_NAME
            shutil.copy(trace, crashed / "complete.jsonl")
            (crashed / ORCHESTRATOR_TRACE_NAME).write_text(
                trace.read_text(encoding="utf-8")
                + '[1, 2]\n{"type": "span", "name": "campaign.ce',
                encoding="utf-8",
            )
            status, headers, body = get(f"{base}/campaigns/crashed/dashboard")
            assert status == 200, body
            assert headers["Content-Type"].startswith("text/html")
            assert body.decode("utf-8") == render_dashboard(
                crashed / "complete.jsonl", title="Campaign crashed"
            )
            assert b"0 traced run" not in body
        finally:
            shutil.rmtree(crashed)

    def test_progress_log_alone_is_no_trace(self, served):
        """Every campaign has a progress log; without the orchestrator's
        trace there is nothing to render."""
        import shutil

        server, base = served
        web, untraced = server.root / "web", server.root / "untraced"
        untraced.mkdir()
        try:
            shutil.copy(web / "campaign.json", untraced / "campaign.json")
            shutil.copy(web / "events.jsonl", untraced / "events.jsonl")
            status, _, body = get(f"{base}/campaigns/untraced/dashboard")
            assert status == 404
            assert "has no trace to render" in json.loads(body)["error"]
        finally:
            shutil.rmtree(untraced)


class TestDecisionsRoute:
    @staticmethod
    def write_ledger(directory):
        from repro.learn import DecisionLedger

        ledger = DecisionLedger(directory / "learn")
        for i in range(4):
            ledger.record(
                "prediction",
                iteration=i,
                t=float(i),
                x=1.0 * i,
                predicted=1.0,
                lo=0.9,
                hi=1.1,
                actual=1.0 if i < 3 else 1.5,
                cold=False,
            )
        ledger.record(
            "gate",
            iteration=3,
            t=3.0,
            loads=[8.0, 2.0],
            capacities=[0.5, 0.5],
            horizon_iters=10,
            beta=0.1,
            migration_seconds=0.5,
            gate_safety=1.0,
            repartition=True,
            reason="payoff",
            payoff_seconds=6.0,
            cost_seconds=0.5,
        )

    def test_no_ledger_404(self, served):
        _, base = served
        status, _, body = get(f"{base}/campaigns/web/decisions")
        assert status == 404
        assert "no decision ledger" in json.loads(body)["error"]

    def test_route_and_metrics_agree(self, served):
        import shutil

        server, base = served
        directory = server.root / "web"
        self.write_ledger(directory)
        try:
            status, _, body = get(f"{base}/campaigns/web/decisions")
            assert status == 200
            payload = json.loads(body)
            assert payload["campaign"] == "web"
            assert payload["records"] == 5
            assert payload["gate"]["decisions"] == 1
            assert payload["calibration"]["predictions"] == 4
            assert payload["calibration"]["coverage"] == 0.75

            status, _, body = get(f"{base}/metrics")
            assert status == 200
            text = body.decode()
            lines = {
                line.split("{")[0]: line
                for line in text.splitlines()
                if line.startswith("decision_")
            }
            assert 'campaign="web"' in lines["decision_records"]
            assert lines["decision_records"].split()[-1] in ("5", "5.0")
            assert lines["decision_calibration_coverage"].endswith(" 0.75")
            assert "decision_cumulative_regret_seconds" in lines
            assert "decision_oracle_agreement_rate" in lines
        finally:
            shutil.rmtree(directory / "learn")

    def test_metrics_skip_campaigns_without_ledger(self, served):
        _, base = served
        status, _, body = get(f"{base}/metrics")
        assert status == 200
        assert "decision_records" not in body.decode()
