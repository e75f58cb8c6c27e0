"""``repro serve``: a stdlib HTTP front over campaign directories.

Serves every campaign directory found under one root (a *campaign
directory* is any child directory containing ``campaign.json``; its
directory name is its URL id).  Routes:

- ``GET /healthz`` -- liveness probe.
- ``GET /metrics`` -- OpenMetrics exposition over every campaign's
  progress log plus the server's own request/cache counters.  Rebuilt
  per scrape and self-checked before it leaves the process.
- ``GET /campaigns`` -- list campaigns with progress.
- ``GET /campaigns/<id>`` -- one campaign's status.
- ``GET /campaigns/<id>/cells`` -- every grid cell with its status and
  artifact availability; supports ``?limit=``/``?offset=`` pagination
  and a ``?status=completed|failed|pending`` filter, key-sorted so
  pages are deterministic.
- ``GET /campaigns/<id>/cells/<key>`` -- one cell's full record.
- ``GET /campaigns/<id>/cells/<key>/artifacts/<kind>`` -- one file of
  the cell's trace-artifact bundle (``trace``/``flamegraph``/
  ``profile``).
- ``GET /campaigns/<id>/live`` -- a server-sent-events stream of the
  campaign's progress log: one frame per cell start/finish/failure,
  with running throughput and ETA.  Replays history, then tail-follows.
- ``GET /campaigns/<id>/decisions`` -- the reconciled decision-ledger
  report (calibration, regret, gate mix) when the campaign carries a
  ``learn/decisions.jsonl`` audit ledger; 404 otherwise.
- ``GET /campaigns/<id>/report`` -- self-contained HTML report.
- ``GET /campaigns/<id>/dashboard`` -- the telemetry HTML dashboard,
  rendered from the orchestrator trace; 404 when the campaign has none.

Rendered responses are cached per (campaign, route) keyed on a
file-stat signature: a repeat request for unchanged files is answered
from memory (well under the 50 ms budget) and carries an ETag, so a
client sending ``If-None-Match`` gets a body-less ``304``.  Any append
or compaction that rewrites a file changes the signature and invalidates
the entry.  ``/metrics`` and ``/live`` are deliberately uncached: both
exist to show the present, not a snapshot.

Error discipline: a bad identifier or missing resource is a one-line
404 JSON body, an invalid value for a *known* query parameter is a
one-line 400, and unknown query parameters are ignored -- a dashboard
probe or an over-eager client never sees a traceback.

Everything here is the standard library -- ``http.server`` threading
server, no framework -- matching the repo's no-new-dependencies rule.
"""

from __future__ import annotations

import hashlib
import html
import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Mapping
from urllib.parse import parse_qs, unquote, urlparse

from repro.campaign.orchestrator import (
    META_NAME,
    ORCHESTRATOR_TRACE_NAME,
    campaign_status,
)
from repro.campaign.spec import CampaignSpec
from repro.campaign.state import FAILURES_NAME, CampaignState
from repro.campaign.store import ResultStore
from repro.telemetry.live import (
    ARTIFACT_CONTENT_TYPES,
    ARTIFACT_FILES,
    EVENTS_NAME,
    LiveProgress,
    ProgressLog,
    format_sse,
    registry_from_progress,
)
from repro.telemetry.metrics import MetricsRegistry, openmetrics_selfcheck
from repro.util.errors import CampaignError

__all__ = ["CampaignServer", "make_server"]

#: URL ids are directory names; reject anything that could escape root.
#: Cell keys obey the same grammar (coordinates + hex digest), so the
#: one pattern guards both path positions.
_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

#: Vocabulary of the ``?status=`` filter on the cells route.
_CELL_STATUSES = ("completed", "failed", "pending")

#: SSE tail-follow poll interval and idle-heartbeat period (seconds).
_LIVE_POLL_S = 0.2
_LIVE_HEARTBEAT_S = 2.0

_OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)


class _BadRequestError(Exception):
    """An invalid value for a recognised query parameter -> 400."""


def _etag_of(key: tuple) -> str:
    digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
    return f'"{digest[:24]}"'


def _int_param(
    query: Mapping[str, list[str]], name: str, default: int | None
) -> int | None:
    values = query.get(name)
    if not values:
        return default
    raw = values[-1]
    try:
        value = int(raw)
    except ValueError:
        raise _BadRequestError(
            f"query parameter {name!r} must be a non-negative integer, "
            f"got {raw!r}"
        ) from None
    if value < 0:
        raise _BadRequestError(
            f"query parameter {name!r} must be >= 0, got {value}"
        )
    return value


class _RenderCache:
    """Per-(campaign, route) cache of rendered bodies, signature-keyed."""

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], tuple[tuple, str, bytes, str]] = {}
        self.hits = 0
        self.misses = 0

    def get(
        self, campaign: str, route: str, signature: tuple
    ) -> tuple[str, bytes, str] | None:
        entry = self._entries.get((campaign, route))
        if entry is not None and entry[0] == signature:
            self.hits += 1
            return entry[1], entry[2], entry[3]
        self.misses += 1
        return None

    def put(
        self,
        campaign: str,
        route: str,
        signature: tuple,
        body: bytes,
        content_type: str,
    ) -> tuple[str, bytes, str]:
        # The route participates in the ETag so two routes over the same
        # files (e.g. two pages of /cells) never share a validator.
        etag = _etag_of((campaign, route, signature))
        self._entries[(campaign, route)] = (
            signature,
            etag,
            body,
            content_type,
        )
        return etag, body, content_type


class CampaignServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one campaign root directory."""

    daemon_threads = True

    def __init__(self, root: str | Path, host: str = "127.0.0.1", port: int = 0):
        self.root = Path(root)
        if not self.root.is_dir():
            raise CampaignError(f"campaign root is not a directory: {self.root}")
        self.cache = _RenderCache()
        #: Set on shutdown/close; long-lived SSE handlers watch it so a
        #: graceful SIGTERM ends every stream instead of hanging them.
        self.closing = threading.Event()
        self.num_requests = 0
        super().__init__((host, port), _Handler)

    def shutdown(self) -> None:
        self.closing.set()
        super().shutdown()

    def server_close(self) -> None:
        self.closing.set()
        super().server_close()

    # -- campaign discovery -------------------------------------------
    def campaign_ids(self) -> list[str]:
        return sorted(
            p.name
            for p in self.root.iterdir()
            if p.is_dir() and (p / META_NAME).is_file()
        )

    def campaign_dir(self, campaign_id: str) -> Path:
        if not _ID_RE.match(campaign_id):
            raise CampaignError(f"invalid campaign id {campaign_id!r}")
        directory = self.root / campaign_id
        if not (directory / META_NAME).is_file():
            raise CampaignError(f"no campaign {campaign_id!r} under {self.root}")
        return directory


def _stat_entry(path: Path) -> tuple:
    try:
        st = path.stat()
        return (path.name, st.st_mtime_ns, st.st_size)
    except FileNotFoundError:
        return (path.name, 0, 0)


def _campaign_signature(directory: Path, store: ResultStore) -> tuple:
    """Change token covering store, progress log and failure log.

    The cells route folds in cell status, so its cache must also turn
    over when a failure is logged or a progress event is appended -- not
    just when the store files move.
    """
    return store.signature() + (
        _stat_entry(directory / EVENTS_NAME),
        _stat_entry(directory / FAILURES_NAME),
    )


class _Handler(BaseHTTPRequestHandler):
    server: CampaignServer

    # Quiet by default: access logs go nowhere unless subclassed.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    # -- response plumbing --------------------------------------------
    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str,
        etag: str | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if etag is not None:
            self.send_header("ETag", etag)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload: Any, status: int = 200) -> None:
        body = (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode(
            "utf-8"
        )
        self._send(status, body, "application/json; charset=utf-8")

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _send_cached(
        self,
        campaign: str,
        route: str,
        signature: tuple,
        render: Any,
        content_type: str,
    ) -> None:
        """Serve from the render cache; honour ``If-None-Match``."""
        cache = self.server.cache
        hit = cache.get(campaign, route, signature)
        if hit is None:
            body = render()
            if isinstance(body, str):
                body = body.encode("utf-8")
            etag, body, content_type = cache.put(
                campaign, route, signature, body, content_type
            )
        else:
            etag, body, content_type = hit
        if self.headers.get("If-None-Match") == etag:
            self.send_response(304)
            self.send_header("ETag", etag)
            self.end_headers()
            return
        self._send(200, body, content_type, etag=etag)

    # -- routing -------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        path = unquote(parsed.path)
        query = parse_qs(parsed.query)
        self.server.num_requests += 1
        try:
            self._route(path, query)
        except _BadRequestError as exc:
            self._send_error_json(400, str(exc))
        except CampaignError as exc:
            self._send_error_json(404, str(exc))
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception as exc:  # noqa: BLE001 - one request, one error
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")

    def _route(self, path: str, query: dict[str, list[str]]) -> None:
        if path in ("/healthz", "/healthz/"):
            self._send_json({"status": "ok"})
            return
        if path in ("/metrics", "/metrics/"):
            self._metrics()
            return
        parts = [p for p in path.split("/") if p]
        if not parts or parts[0] != "campaigns":
            self._send_error_json(404, f"no route {path!r}")
            return
        if len(parts) == 1:
            self._list_campaigns()
            return
        campaign_id = parts[1]
        directory = self.server.campaign_dir(campaign_id)
        if len(parts) == 2:
            self._send_json(campaign_status(directory))
        elif parts[2] == "cells" and len(parts) == 3:
            self._list_cells(campaign_id, directory, query)
        elif parts[2] == "cells" and len(parts) == 4:
            self._send_json(ResultStore(directory).get(parts[3]))
        elif (
            parts[2] == "cells"
            and len(parts) == 6
            and parts[4] == "artifacts"
        ):
            self._artifact(campaign_id, directory, parts[3], parts[5])
        elif parts[2] == "live" and len(parts) == 3:
            self._stream_live(directory)
        elif parts[2] == "decisions" and len(parts) == 3:
            self._decisions(campaign_id, directory)
        elif parts[2] == "report" and len(parts) == 3:
            self._report(campaign_id, directory)
        elif parts[2] == "dashboard" and len(parts) == 3:
            self._dashboard(campaign_id, directory)
        else:
            self._send_error_json(404, f"no route {path!r}")

    # -- route bodies --------------------------------------------------
    def _list_campaigns(self) -> None:
        rows = []
        for campaign_id in self.server.campaign_ids():
            try:
                status = campaign_status(self.server.root / campaign_id)
            except CampaignError:
                continue
            rows.append({"id": campaign_id, **status})
        self._send_json({"campaigns": rows})

    def _list_cells(
        self,
        campaign_id: str,
        directory: Path,
        query: dict[str, list[str]],
    ) -> None:
        limit = _int_param(query, "limit", default=None)
        offset = _int_param(query, "offset", default=0)
        status_values = query.get("status")
        status_filter = status_values[-1] if status_values else None
        if status_filter is not None and status_filter not in _CELL_STATUSES:
            raise _BadRequestError(
                f"query parameter 'status' must be one of "
                f"{list(_CELL_STATUSES)}, got {status_filter!r}"
            )
        store = ResultStore(directory)

        def render() -> bytes:
            try:
                meta = json.loads(
                    (directory / META_NAME).read_text(encoding="utf-8")
                )
                spec = CampaignSpec.from_dict(meta["spec"])
            except (json.JSONDecodeError, OSError, KeyError) as exc:
                raise CampaignError(
                    f"unreadable campaign metadata for {campaign_id!r}: "
                    f"{exc}"
                ) from exc
            state = CampaignState.restore(store)
            cells: dict[str, dict[str, Any]] = {}
            for key, cell in sorted(spec.cell_map().items()):
                cell_status = state.status_of(key)
                if status_filter and cell_status != status_filter:
                    continue
                cells[key] = {
                    "scenario": cell.scenario,
                    "partitioner": cell.partitioner,
                    "seed": cell.seed,
                    "status": cell_status,
                    "artifacts": store.has_artifacts(key),
                }
            keys = sorted(cells)
            page = keys[offset:]
            if limit is not None:
                page = page[:limit]
            payload = {
                "campaign": campaign_id,
                "num_cells": len(cells),
                "total_cells": spec.num_cells,
                "offset": offset,
                "limit": limit,
                "status": status_filter,
                "cells": {k: cells[k] for k in page},
            }
            return (
                json.dumps(payload, sort_keys=True, indent=1) + "\n"
            ).encode("utf-8")

        route = f"cells?limit={limit}&offset={offset}&status={status_filter}"
        self._send_cached(
            campaign_id,
            route,
            _campaign_signature(directory, store),
            render,
            "application/json; charset=utf-8",
        )

    def _artifact(
        self, campaign_id: str, directory: Path, key: str, kind: str
    ) -> None:
        if not _ID_RE.match(key):
            raise CampaignError(f"invalid cell key {key!r}")
        if kind not in ARTIFACT_FILES:
            raise CampaignError(
                f"unknown artifact kind {kind!r}; choose from "
                f"{sorted(ARTIFACT_FILES)}"
            )
        store = ResultStore(directory)
        path = store.artifact_path(key, ARTIFACT_FILES[kind])
        try:
            st = path.stat()
        except FileNotFoundError:
            raise CampaignError(
                f"cell {key!r} has no {kind} artifact"
            ) from None
        signature = ((path.name, st.st_mtime_ns, st.st_size),)
        self._send_cached(
            campaign_id,
            f"artifact:{key}:{kind}",
            signature,
            path.read_bytes,
            ARTIFACT_CONTENT_TYPES[kind],
        )

    def _ledger_path(self, directory: Path) -> Path:
        from repro.learn.audit import LEDGER_NAME

        return directory / "learn" / LEDGER_NAME

    def _decisions(self, campaign_id: str, directory: Path) -> None:
        """Reconciled decision-ledger report for one campaign."""
        from repro.learn.audit import load_ledger_rows, reconcile

        path = self._ledger_path(directory)
        if not path.is_file():
            raise CampaignError(
                f"campaign {campaign_id!r} has no decision ledger; "
                f"run it with --ledger to record one"
            )
        signature = (_stat_entry(path),)

        def render() -> bytes:
            report = reconcile(load_ledger_rows(path))
            payload = {"campaign": campaign_id, **report}
            return (
                json.dumps(payload, sort_keys=True, indent=1) + "\n"
            ).encode("utf-8")

        self._send_cached(
            campaign_id,
            "decisions",
            signature,
            render,
            "application/json; charset=utf-8",
        )

    def _metrics(self) -> None:
        """OpenMetrics over every campaign's progress log, self-checked.

        Rebuilt per scrape -- the append-only logs are the state, so a
        server restart loses nothing -- and validated by the exposition
        self-check before a byte goes out: a malformed exposition is a
        500 here, not a silent scrape failure in the collector.
        """
        registry = MetricsRegistry()
        registry.counter("serve.requests").inc(self.server.num_requests)
        registry.counter("serve.cache_hits").inc(self.server.cache.hits)
        registry.counter("serve.cache_misses").inc(self.server.cache.misses)
        for campaign_id in self.server.campaign_ids():
            log = ProgressLog(self.server.root / campaign_id / EVENTS_NAME)
            registry_from_progress(
                log.read(), registry, campaign=campaign_id
            )
            self._decision_gauges(registry, campaign_id)
        text = registry.to_openmetrics()
        problems = openmetrics_selfcheck(text)
        if problems:
            self._send_error_json(
                500, f"openmetrics self-check failed: {'; '.join(problems)}"
            )
            return
        self._send(200, text.encode("utf-8"), _OPENMETRICS_CONTENT_TYPE)

    def _decision_gauges(
        self, registry: MetricsRegistry, campaign_id: str
    ) -> None:
        """Calibration/regret gauges for a campaign's decision ledger.

        Computed by the same :func:`repro.learn.audit.reconcile` that
        backs ``/campaigns/<id>/decisions`` and ``repro explain``, so
        the scrape, the route, and the CLI can never disagree.  A
        campaign without a ledger contributes nothing; a corrupt one is
        skipped rather than failing the whole exposition.
        """
        path = self._ledger_path(self.server.root / campaign_id)
        if not path.is_file():
            return
        from repro.learn.audit import load_ledger_rows, reconcile
        from repro.util.errors import ExperimentError

        try:
            report = reconcile(load_ledger_rows(path))
        except ExperimentError:
            return
        cal = report["calibration"]
        regret = report["regret"]
        gauge = registry.gauge
        gauge("decision.records", campaign=campaign_id).set(
            float(report["records"])
        )
        gauge("decision.calibration_samples", campaign=campaign_id).set(
            float(cal["predictions"])
        )
        if cal["coverage"] is not None:
            gauge("decision.calibration_coverage", campaign=campaign_id).set(
                float(cal["coverage"])
            )
        gauge(
            "decision.cumulative_regret_seconds", campaign=campaign_id
        ).set(float(regret["cumulative_regret_seconds"]))
        if regret["agreement_rate"] is not None:
            gauge(
                "decision.oracle_agreement_rate", campaign=campaign_id
            ).set(float(regret["agreement_rate"]))

    def _stream_live(self, directory: Path) -> None:
        """SSE stream over the campaign's progress log.

        Replays the log from the top (one frame per lifecycle event, so
        a late subscriber still sees every completed cell), then
        tail-follows with heartbeat comments until the campaign
        completes, the client hangs up, or the server starts closing.
        """
        status = campaign_status(directory)
        progress = LiveProgress(num_cells=status["num_cells"])
        log = ProgressLog(directory / EVENTS_NAME)
        closing = self.server.closing
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream; charset=utf-8")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        try:
            self.wfile.write(format_sse("snapshot", progress.snapshot()))
            self.wfile.flush()
            offset = 0
            replayed_any = False
            idle = 0.0
            while True:
                records, offset = log.read_from(offset)
                emitted = False
                for record in records:
                    if not progress.observe(record):
                        continue
                    self.wfile.write(
                        format_sse(
                            record["name"],
                            {
                                "event": record,
                                "progress": progress.snapshot(),
                            },
                        )
                    )
                    emitted = True
                    replayed_any = True
                if emitted:
                    self.wfile.flush()
                    idle = 0.0
                if progress.complete:
                    return
                if not replayed_any and status["complete"]:
                    # Legacy directory: complete per the ledger but no
                    # progress log to replay.  Close with a final frame
                    # instead of heartbeating forever.
                    progress.completed = int(status["completed"])
                    progress.complete = True
                    self.wfile.write(
                        format_sse("snapshot", progress.snapshot())
                    )
                    self.wfile.flush()
                    return
                if closing.is_set():
                    return
                if not emitted:
                    idle += _LIVE_POLL_S
                    if idle >= _LIVE_HEARTBEAT_S:
                        self.wfile.write(b": keep-alive\n\n")
                        self.wfile.flush()
                        idle = 0.0
                closing.wait(_LIVE_POLL_S)
        except (BrokenPipeError, ConnectionResetError):
            return

    def _report(self, campaign_id: str, directory: Path) -> None:
        store = ResultStore(directory)

        def render() -> str:
            return _render_report(
                campaign_id, campaign_status(directory), store.summary()
            )

        self._send_cached(
            campaign_id,
            "report",
            store.signature(),
            render,
            "text/html; charset=utf-8",
        )

    def _dashboard(self, campaign_id: str, directory: Path) -> None:
        # The orchestrator's own trace; ``events.jsonl`` is the progress
        # log, which every campaign has and which holds no traced run.
        trace_path = directory / ORCHESTRATOR_TRACE_NAME
        if not trace_path.is_file():
            raise CampaignError(
                f"campaign {campaign_id!r} has no trace to render; "
                f"run it with tracing enabled first"
            )
        signature = (_stat_entry(trace_path),)

        def render() -> str:
            from repro.telemetry.report import render_dashboard

            return render_dashboard(
                trace_path, title=f"Campaign {campaign_id}"
            )

        self._send_cached(
            campaign_id,
            "dashboard",
            signature,
            render,
            "text/html; charset=utf-8",
        )


# ----------------------------------------------------------------------
def _render_report(
    campaign_id: str, status: dict[str, Any], summary: dict[str, Any]
) -> str:
    """A small self-contained HTML report: progress + grid aggregates."""
    esc = html.escape
    rows = "".join(
        f"<tr><td>{esc(str(g['scenario']))}</td>"
        f"<td>{esc(str(g['partitioner']))}</td>"
        f"<td>{g['cells']}</td>"
        f"<td>{g['mean_total_seconds']:.3f}</td></tr>"
        for g in summary["grid"]
    )
    failed = status.get("failed", {})
    failed_html = ""
    if failed:
        items = "".join(
            f"<li><code>{esc(k)}</code>: {esc(v)}</li>"
            for k, v in sorted(failed.items())
        )
        failed_html = f"<h2>Failed cells</h2><ul>{items}</ul>"
    return f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>Campaign {esc(campaign_id)}</title>
<style>
 body {{ font-family: system-ui, sans-serif; margin: 2rem; }}
 table {{ border-collapse: collapse; }}
 td, th {{ border: 1px solid #ccc; padding: .3rem .6rem; text-align: left; }}
 .muted {{ color: #666; }}
</style></head><body>
<h1>Campaign {esc(campaign_id)}</h1>
<p class="muted">{esc(str(status.get('name', '')))} &mdash;
{status.get('completed', 0)}/{status.get('num_cells', 0)} cells completed
{'(complete)' if status.get('complete') else '(in progress)'}</p>
<h2>Grid aggregates (simulated seconds)</h2>
<table>
<tr><th>scenario</th><th>partitioner</th><th>cells</th>
<th>mean total</th></tr>
{rows}
</table>
{failed_html}
</body></html>
"""


def make_server(
    root: str | Path, host: str = "127.0.0.1", port: int = 8765
) -> CampaignServer:
    """Build a ready-to-serve :class:`CampaignServer` (call serve_forever)."""
    return CampaignServer(root, host=host, port=port)
