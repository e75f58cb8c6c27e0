"""``repro campaign run|status|resume|watch`` and ``repro serve``:
resumable experiment grids, one directory each, and their HTTP front."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.cli.common import add_group, add_pool, positive_seconds, user_errors


def _execute_campaign(spec, directory: Path, args: argparse.Namespace) -> int:
    """Shared body of ``campaign run`` and ``campaign resume``."""
    from repro.campaign import ORCHESTRATOR_TRACE_NAME, CampaignRunner
    from repro.telemetry import Tracer, write_jsonl

    tracer = Tracer()
    runner = CampaignRunner(
        spec, directory, workers=args.workers, tracer=tracer
    )
    result = runner.run(max_cells=args.max_cells)
    # The orchestrator's own trace; ``events.jsonl`` is the cross-process
    # progress log the runner appends to while cells execute.
    write_jsonl(tracer, directory / ORCHESTRATOR_TRACE_NAME)
    state = "complete" if result["complete"] else "interrupted"
    print(
        f"campaign {result['campaign_id']}: "
        f"{result['completed']}/{result['num_cells']} cells ({state})"
    )
    print(
        f"  executed {result['executed']}, skipped {result['skipped']} "
        f"already-done, failed {result['failed']}, "
        f"{result['wall_seconds']:.2f}s wall"
    )
    if result["complete"]:
        print(f"  result store: {runner.store.results_path}")
    else:
        print(
            f"  resume with: repro campaign resume {directory} "
            f"--workers {args.workers}"
        )
    return 1 if result["failed"] else 0


def _watch_event_line(record: dict, progress) -> str | None:
    """One log line per lifecycle event for non-tty watch output."""
    name = record.get("name")
    attrs = record.get("attributes") or {}
    key = attrs.get("cell_key", "")
    if name == "campaign.started":
        return (
            f"campaign {attrs.get('campaign_id', '?')}: "
            f"{attrs.get('num_cells', '?')} cells, "
            f"{attrs.get('pending', '?')} pending"
        )
    if name == "live.cell_started":
        return f"cell started  {key}"
    if name == "live.cell_finished":
        return (
            f"cell finished {key} "
            f"({progress.completed}/{progress.num_cells or '?'})"
        )
    if name == "live.cell_failed":
        return f"cell failed   {key}: {attrs.get('error', '')}"
    return None


def _watch_url(url: str, timeout: float | None) -> int:
    """Consume a serve ``/campaigns/<id>/live`` SSE stream until done."""
    import urllib.error
    import urllib.request

    deadline = time.monotonic() + timeout if timeout is not None else None
    request = urllib.request.Request(
        url, headers={"Accept": "text/event-stream"}
    )
    last: dict = {}
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            for raw in response:
                line = raw.decode("utf-8", "replace").rstrip("\r\n")
                if not line.startswith("data: "):
                    if deadline is not None and time.monotonic() >= deadline:
                        print(f"watch timed out after {timeout:g}s")
                        return 1
                    continue
                payload = json.loads(line[len("data: "):])
                snapshot = (
                    payload.get("progress")
                    if isinstance(payload, dict) and "progress" in payload
                    else payload
                )
                if not isinstance(snapshot, dict):
                    continue
                last = snapshot
                completed = snapshot.get("completed", 0)
                total = snapshot.get("num_cells") or "?"
                print(f"progress: {completed}/{total} cells")
                if snapshot.get("complete"):
                    break
                if deadline is not None and time.monotonic() >= deadline:
                    print(f"watch timed out after {timeout:g}s")
                    return 1
    except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
        print(f"watch error: could not stream {url}: {exc}", file=sys.stderr)
        return 2
    if last.get("complete"):
        print("watch: complete")
        return 1 if last.get("failed") else 0
    print("watch: stream ended before completion")
    return 1


@user_errors("CampaignError", "campaign")
def _campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignSpec

    spec = CampaignSpec.from_file(args.spec)
    return _execute_campaign(spec, Path(args.dir), args)


@user_errors("CampaignError", "campaign")
def _campaign_resume(args: argparse.Namespace) -> int:
    from repro.campaign.orchestrator import campaign_spec_of

    directory = Path(args.dir)
    spec = campaign_spec_of(
        directory, f"; start one with 'repro campaign run SPEC --dir {directory}'"
    )
    return _execute_campaign(spec, directory, args)


@user_errors("CampaignError", "campaign")
def _campaign_status(args: argparse.Namespace) -> int:
    from repro.campaign import campaign_status

    status = campaign_status(Path(args.dir))
    state = "complete" if status["complete"] else "in progress"
    print(
        f"campaign {status['campaign_id']} ({status['name']}): "
        f"{status['completed']}/{status['num_cells']} cells, {state}"
    )
    print(
        f"  store records: {status['store_records']}"
        + (" (compacted)" if status["compacted"] else "")
    )
    if status.get("artifact_cells"):
        print(f"  artifact bundles: {status['artifact_cells']} cells")
    for key, error in sorted(status["failed"].items()):
        print(f"  failed {key}: {error}")
    return 1 if status["failed"] else 0


@user_errors("CampaignError", "campaign")
def _campaign_watch(args: argparse.Namespace) -> int:
    """Tail a campaign directory's progress log (or a serve live URL)
    until completion."""
    from repro.campaign import campaign_status
    from repro.telemetry.live import EVENTS_NAME, LiveProgress, ProgressLog

    if args.target.startswith(("http://", "https://")):
        return _watch_url(args.target, args.timeout)
    directory, timeout = Path(args.target), args.timeout
    status = campaign_status(directory)
    progress = LiveProgress(num_cells=status["num_cells"])
    log = ProgressLog(directory / EVENTS_NAME)
    live = sys.stdout.isatty()
    deadline = time.monotonic() + timeout if timeout is not None else None
    offset = 0
    observed_any = False
    while True:
        records, offset = log.read_from(offset)
        for record in records:
            if not progress.observe(record):
                continue
            observed_any = True
            if live:
                sys.stdout.write("\r\x1b[K" + progress.render_line())
                sys.stdout.flush()
            else:
                line = _watch_event_line(record, progress)
                if line is not None:
                    print(line)
        if progress.complete:
            break
        if not observed_any and status["complete"]:
            # Completed before the progress log existed: nothing to tail.
            progress.completed = int(status["completed"])
            progress.complete = True
            break
        if deadline is not None and time.monotonic() >= deadline:
            if live:
                sys.stdout.write("\n")
            print(
                f"watch timed out after {timeout:g}s: "
                + progress.render_line()
            )
            return 1
        time.sleep(max(0.05, args.interval))
    if live:
        sys.stdout.write("\n")
    print("watch: " + progress.render_line())
    return 1 if progress.failed else 0


def _serve(args: argparse.Namespace) -> int:
    """Serve campaign directories over HTTP until interrupted."""
    import signal

    from repro.campaign import make_server
    from repro.util.errors import CampaignError

    try:
        server = make_server(args.root, host=args.host, port=args.port)
    except CampaignError as exc:
        print(f"serve error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # port in use, permission denied ...
        print(f"could not bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2

    def _terminate(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _terminate)
    base = f"http://{args.host}:{server.server_address[1]}"
    ids = server.campaign_ids()
    print(f"serving {len(ids)} campaign(s) from {args.root} on {base}")
    for campaign_id in ids:
        print(f"  {base}/campaigns/{campaign_id}/report")
    try:
        server.serve_forever(poll_interval=0.2)
    except (KeyboardInterrupt, SystemExit):
        pass
    finally:
        server.server_close()
    return 0



def register(subparsers: argparse._SubParsersAction) -> None:
    campaign = add_group(
        subparsers, "campaign",
        help="run/resume/inspect a resumable experiment-campaign grid",
    )
    crun = campaign.add_parser(
        "run", help="execute a campaign spec (JSON grid) in a directory"
    )
    crun.add_argument("spec", help="path to a campaign spec JSON file")
    crun.add_argument(
        "--dir", required=True,
        help="campaign directory (result store + artifacts)",
    )
    add_pool(crun)
    crun.set_defaults(run=_campaign_run)
    cresume = campaign.add_parser(
        "resume",
        help="continue an interrupted campaign (zero cells re-executed)",
    )
    cresume.add_argument("dir", help="existing campaign directory")
    add_pool(cresume)
    cresume.set_defaults(run=_campaign_resume)
    cstatus = campaign.add_parser(
        "status", help="print a campaign directory's progress ledger"
    )
    cstatus.add_argument("dir", help="existing campaign directory")
    cstatus.set_defaults(run=_campaign_status)
    cwatch = campaign.add_parser(
        "watch",
        help="tail a campaign's live progress (throughput, ETA) from its "
        "directory or a serve /campaigns/<id>/live SSE URL",
    )
    cwatch.add_argument(
        "target",
        help="campaign directory, or an http(s) URL of a serve live stream",
    )
    cwatch.add_argument(
        "--interval", type=positive_seconds, default=0.5,
        help="poll interval in seconds for directory mode (default: 0.5)",
    )
    cwatch.add_argument(
        "--timeout", type=positive_seconds, default=None,
        help="give up (exit 1) after this many seconds (default: no limit)",
    )
    cwatch.set_defaults(run=_campaign_watch)
    serve = subparsers.add_parser(
        "serve",
        help="serve campaign directories over HTTP (status, cells, "
        "reports, dashboards) with ETag response caching",
    )
    serve.add_argument(
        "--root", default="campaigns",
        help="directory containing campaign directories (default: campaigns/)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=8765, help="bind port (default: 8765)"
    )
    serve.set_defaults(run=_serve)
