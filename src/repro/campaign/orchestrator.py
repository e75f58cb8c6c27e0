"""The campaign orchestrator: shard cells across workers, resume exactly.

:class:`CampaignRunner` drives one campaign directory through its grid:

- Cells already in the :class:`~repro.campaign.store.ResultStore` (the
  :class:`CampaignState` restored from it) are skipped outright --
  resuming an interrupted campaign re-executes **zero** completed cells.
- Pending cells are executed either inline (``workers <= 1``) or on a
  fork-context :class:`~concurrent.futures.ProcessPoolExecutor`.  The
  simulator is pure Python and cells are independent, so the pool is a
  straight shard with no shared state.
- Each completed cell is committed by one fsynced append to the
  :class:`~repro.campaign.store.ResultStore` log; that row is the only
  durable record of the cell, so there is no instant at which a kill
  leaves two ledgers disagreeing.  A cell killed before its append
  returned is re-run on resume; the store dedupes by cell key, so the
  record count still comes out exact.
- When the store covers the whole grid it is compacted into its
  canonical sorted form and the campaign is marked complete.

The runner's tracer records one ``campaign.cell`` span per executed cell
(simulated-time extent = the cell's simulated run length) plus
``campaign.*`` events and counters; these are *orchestrator* telemetry
and never enter the result store, which keeps the store deterministic.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from multiprocessing import get_context
from pathlib import Path
from typing import Any

from repro.campaign.spec import CampaignSpec, CellSpec
from repro.campaign.state import FAILURES_NAME, CampaignState
from repro.campaign.store import ARTIFACTS_DIRNAME, ResultStore
from repro.runtime.experiment import (
    CAMPAIGN_SCENARIOS,
    campaign_cell,
    make_partitioner,
)
from repro.telemetry.live import (
    EVENTS_NAME,
    ProgressLog,
    TelemetryDigest,
    deterministic_tracer,
    digest_from_record,
    write_cell_bundle,
)
from repro.telemetry.spans import NullTracer, Tracer
from repro.util import durable
from repro.util.errors import CampaignError, ExperimentError

__all__ = ["CampaignRunner", "execute_cell", "campaign_status"]

#: File names inside a campaign directory.
META_NAME = "campaign.json"
#: The orchestrator's own trace, written by the CLI after a session
#: (``events.jsonl`` is the cross-process progress log, owned here).
ORCHESTRATOR_TRACE_NAME = "orchestrator.events.jsonl"


def execute_cell(
    cell_dict: dict[str, Any],
    artifacts_dir: str | None = None,
    events_path: str | None = None,
) -> dict[str, Any]:
    """Worker entrypoint: run one cell; return record + telemetry digest.

    Module-level so the process pool can pickle it by reference.  The
    cell runs under a :func:`deterministic_tracer` (wall readings pinned
    to zero), so both the result record and the artifact bundle written
    to ``<artifacts_dir>/<cell-key>/`` are pure functions of the cell
    spec -- byte-identical on any worker, any resume.  The bundle is
    published *before* the parent commits the cell, so a committed cell
    always has its artifacts; a crash in between merely re-runs the cell
    and rewrites identical bytes.

    Returns ``{"record": <store record>, "digest": <digest dict>}``.
    """
    cell = CellSpec.from_dict(cell_dict)
    if events_path is not None:
        ProgressLog(events_path).append(
            "live.cell_started",
            cell_key=cell.key,
            scenario=cell.scenario,
            partitioner=cell.partitioner,
            seed=cell.seed,
        )
    tracer = deterministic_tracer()
    record = campaign_cell(
        cell.scenario,
        cell.partitioner,
        cell.seed,
        dict(cell.config),
        tracer=tracer,
    )
    record["cell_key"] = cell.key
    artifacts = None
    if artifacts_dir is not None:
        artifacts = write_cell_bundle(
            tracer, Path(artifacts_dir) / cell.key, cell_key=cell.key
        )
    return {
        "record": record,
        "digest": digest_from_record(record, artifacts).to_dict(),
    }


class CampaignRunner:
    """Executes one :class:`CampaignSpec` inside one directory."""

    def __init__(
        self,
        spec: CampaignSpec,
        directory: str | Path,
        workers: int = 1,
        tracer: Tracer | NullTracer | None = None,
        artifacts: bool = True,
    ):
        self._validate_axes(spec)
        self.spec = spec
        self.directory = Path(directory)
        self.workers = max(1, int(workers))
        self.tracer = tracer if tracer is not None else Tracer()
        self.artifacts = bool(artifacts)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._claim_directory()
        self.store = ResultStore(self.directory)
        self.state = CampaignState.restore(self.store)
        self.progress = ProgressLog(self.directory / EVENTS_NAME)

    @property
    def artifacts_dir(self) -> Path:
        return self.directory / ARTIFACTS_DIRNAME

    def _worker_args(self) -> tuple[str | None, str | None]:
        """(artifacts_dir, events_path) handed to every ``execute_cell``."""
        return (
            str(self.artifacts_dir) if self.artifacts else None,
            str(self.progress.path),
        )

    # -- setup ---------------------------------------------------------
    @staticmethod
    def _validate_axes(spec: CampaignSpec) -> None:
        """Reject unknown scenario/partitioner names before any cell runs.

        A typo'd axis value should fail the campaign up front, not after
        half the grid has burned CPU.
        """
        for scenario in spec.scenarios:
            if scenario not in CAMPAIGN_SCENARIOS:
                raise CampaignError(
                    f"unknown scenario {scenario!r}; choose from "
                    f"{sorted(CAMPAIGN_SCENARIOS)}"
                )
        for partitioner in spec.partitioners:
            try:
                make_partitioner(partitioner)
            except ExperimentError as exc:
                raise CampaignError(str(exc)) from exc

    def _claim_directory(self) -> None:
        """Write (or verify) the directory's campaign metadata."""
        meta_path = self.directory / META_NAME
        if meta_path.is_file():
            try:
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, OSError) as exc:
                raise CampaignError(
                    f"unreadable campaign metadata {meta_path}: {exc}"
                ) from exc
            recorded = meta.get("campaign_id")
            if recorded != self.spec.campaign_id:
                raise CampaignError(
                    f"directory {self.directory} belongs to campaign "
                    f"{recorded!r}, not {self.spec.campaign_id!r}; "
                    f"use a fresh directory or the matching spec"
                )
            return
        meta = {
            "campaign_id": self.spec.campaign_id,
            "spec": self.spec.to_dict(),
        }
        # Fsynced: a rename that outlives its data would leave an empty
        # campaign.json, which no later run could claim or resume.
        durable.publish(
            meta_path,
            json.dumps(meta, sort_keys=True, indent=1) + "\n",
            sync=True,
        )

    # -- execution -----------------------------------------------------
    def pending_cells(self) -> list[CellSpec]:
        return [
            c for c in self.spec.cells() if not self.state.is_completed(c.key)
        ]

    def run(self, max_cells: int | None = None) -> dict[str, Any]:
        """Execute up to ``max_cells`` pending cells; return a status dict.

        ``max_cells`` is the deterministic interrupt used by the resume
        tests and the CI kill+resume stage: the runner stops after that
        many *newly executed* cells exactly as if the process had died
        there, except cleanly.
        """
        all_cells = self.spec.cells()
        pending = self.pending_cells()
        skipped = len(all_cells) - len(pending)
        if max_cells is not None:
            pending = pending[: max(0, int(max_cells))]

        self.tracer.event(
            "campaign.started",
            campaign_id=self.spec.campaign_id,
            num_cells=len(all_cells),
            pending=len(pending),
            skipped=skipped,
            workers=self.workers,
        )
        self.progress.append(
            "campaign.started",
            campaign_id=self.spec.campaign_id,
            num_cells=len(all_cells),
            pending=len(pending),
            completed=self.state.num_completed,
            failed=len(self.state.failed),
            workers=self.workers,
        )
        metrics = self.tracer.metrics
        metrics.counter("campaign.cells_skipped").inc(skipped)

        wall_start = time.perf_counter()
        executed = failed = 0
        if self.workers == 1:
            executed, failed = self._run_inline(pending)
        else:
            executed, failed = self._run_pool(pending)
        wall_elapsed = time.perf_counter() - wall_start

        complete = self.state.num_completed == len(all_cells)
        if complete:
            self.store.compact()
            self.tracer.event(
                "campaign.completed",
                campaign_id=self.spec.campaign_id,
                num_cells=len(all_cells),
            )
            self.progress.append(
                "campaign.completed",
                campaign_id=self.spec.campaign_id,
                num_cells=len(all_cells),
                completed=self.state.num_completed,
                failed=len(self.state.failed),
            )
        return {
            "campaign_id": self.spec.campaign_id,
            "num_cells": len(all_cells),
            "completed": self.state.num_completed,
            "executed": executed,
            "skipped": skipped,
            "failed": failed,
            "complete": complete,
            "wall_seconds": wall_elapsed,
        }

    def _run_inline(self, pending: list[CellSpec]) -> tuple[int, int]:
        executed = failed = 0
        artifacts_dir, events_path = self._worker_args()
        for cell in pending:
            t0 = time.perf_counter()
            try:
                payload = execute_cell(
                    cell.to_dict(), artifacts_dir, events_path
                )
            except Exception as exc:  # noqa: BLE001 - cell isolation
                self._commit_failure(cell, exc)
                failed += 1
                continue
            self._commit_success(cell, payload, time.perf_counter() - t0)
            executed += 1
        return executed, failed

    def _run_pool(self, pending: list[CellSpec]) -> tuple[int, int]:
        executed = failed = 0
        artifacts_dir, events_path = self._worker_args()
        # Fork start method: workers inherit the imported simulator
        # modules instead of re-importing them per process, and the
        # worker function only ever receives plain dicts and path strings.
        ctx = get_context("fork")
        with ProcessPoolExecutor(
            max_workers=self.workers, mp_context=ctx
        ) as pool:
            started = {
                pool.submit(
                    execute_cell, cell.to_dict(), artifacts_dir, events_path
                ): (
                    cell,
                    time.perf_counter(),
                )
                for cell in pending
            }
            outstanding = set(started)
            while outstanding:
                done, outstanding = wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                for future in done:
                    cell, t0 = started[future]
                    exc = future.exception()
                    if exc is not None:
                        self._commit_failure(cell, exc)
                        failed += 1
                        continue
                    self._commit_success(
                        cell, future.result(), time.perf_counter() - t0
                    )
                    executed += 1
        return executed, failed

    # -- per-cell commit ----------------------------------------------
    @staticmethod
    def _unpack_payload(
        payload: dict[str, Any],
    ) -> tuple[dict[str, Any], TelemetryDigest | None]:
        """Accept both worker payloads and bare records (test doubles)."""
        if "record" in payload and isinstance(payload["record"], dict):
            digest_data = payload.get("digest")
            digest = (
                TelemetryDigest.from_dict(digest_data)
                if isinstance(digest_data, dict)
                else None
            )
            return payload["record"], digest
        return payload, None

    def _commit_success(
        self, cell: CellSpec, payload: dict[str, Any], wall_seconds: float
    ) -> None:
        """Commit = the store's fsynced append; the rest is reporting."""
        record, digest = self._unpack_payload(payload)
        self.store.append(record)
        ordinal = self.state.mark_completed(cell.key)
        sim_seconds = float(
            record.get("metrics", {}).get("total_seconds", 0.0)
        )
        self.tracer.add_span(
            "campaign.cell",
            start_sim=0.0,
            end_sim=sim_seconds,
            cell_key=cell.key,
            scenario=cell.scenario,
            partitioner=cell.partitioner,
            seed=cell.seed,
            ordinal=ordinal,
        )
        metrics = self.tracer.metrics
        metrics.counter("campaign.cells_completed").inc()
        metrics.histogram("campaign.cell_wall_seconds").observe(wall_seconds)
        metrics.histogram("campaign.cell_sim_seconds").observe(sim_seconds)
        if digest is not None:
            self._fold_digest(cell, digest)
        self.progress.append(
            "live.cell_finished",
            cell_key=cell.key,
            scenario=cell.scenario,
            partitioner=cell.partitioner,
            seed=cell.seed,
            ordinal=ordinal,
            completed=self.state.num_completed,
            failed=len(self.state.failed),
            num_cells=self.spec.num_cells,
            wall_seconds=wall_seconds,
            sim_seconds=sim_seconds,
            artifacts=(digest.artifacts if digest is not None else None),
        )

    def _fold_digest(self, cell: CellSpec, digest: TelemetryDigest) -> None:
        """Fold a worker's telemetry digest into campaign-level metrics.

        This is the cross-process shipping step: worker tracers die with
        their process, but their phase breakdown, health flags and
        artifact sizes survive in the orchestrator's registry (and from
        there in ``GET /metrics``).
        """
        metrics = self.tracer.metrics
        for phase, sim_seconds in digest.phases.items():
            metrics.histogram(
                "campaign.phase_sim_seconds", phase=phase
            ).observe(float(sim_seconds))
        health = digest.health
        metrics.counter("campaign.health_events").inc(
            float(health.get("num_events", 0))
        )
        worst = metrics.gauge("campaign.worst_imbalance_pct")
        worst.set(
            max(worst.value, float(health.get("worst_imbalance_pct", 0.0)))
        )
        if digest.artifacts:
            total = int(digest.artifacts.get("total_bytes", 0))
            metrics.counter("campaign.artifact_bytes").inc(total)
            self.tracer.event(
                "campaign.artifact.written",
                cell_key=cell.key,
                total_bytes=total,
                files=sorted(digest.artifacts.get("files", {})),
            )
            self.tracer.add_span(
                "campaign.artifact.bundle",
                start_sim=0.0,
                end_sim=0.0,
                cell_key=cell.key,
                total_bytes=total,
            )

    def _commit_failure(self, cell: CellSpec, exc: BaseException) -> None:
        """Failed cells go to the fsynced side log, never the store."""
        message = f"{type(exc).__name__}: {exc}"
        self.state.mark_failed(cell.key, message)
        durable.append_line(
            self.directory / FAILURES_NAME,
            durable.canonical_json({"cell_key": cell.key, "error": message}),
            sync=True,
        )
        self.tracer.event(
            "campaign.cell_failed", cell_key=cell.key, error=message
        )
        self.tracer.metrics.counter("campaign.cells_failed").inc()
        self.progress.append(
            "live.cell_failed",
            cell_key=cell.key,
            scenario=cell.scenario,
            partitioner=cell.partitioner,
            seed=cell.seed,
            error=message,
            completed=self.state.num_completed,
            failed=len(self.state.failed),
            num_cells=self.spec.num_cells,
        )


# ----------------------------------------------------------------------
def campaign_status(directory: str | Path) -> dict[str, Any]:
    """Inspect a campaign directory without executing anything."""
    directory = Path(directory)
    meta_path = directory / META_NAME
    if not meta_path.is_file():
        raise CampaignError(
            f"{directory} is not a campaign directory (no {META_NAME})"
        )
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        spec = CampaignSpec.from_dict(meta["spec"])
    except (json.JSONDecodeError, OSError, KeyError) as exc:
        raise CampaignError(
            f"unreadable campaign metadata {meta_path}: {exc}"
        ) from exc
    store = ResultStore(directory)
    state = CampaignState.restore(store)
    artifacts_dir = directory / ARTIFACTS_DIRNAME
    artifact_cells = (
        sum(1 for p in artifacts_dir.iterdir() if p.is_dir())
        if artifacts_dir.is_dir()
        else 0
    )
    return {
        "campaign_id": spec.campaign_id,
        "name": spec.name,
        "num_cells": spec.num_cells,
        "completed": state.num_completed,
        "failed": state.failed,
        "complete": state.num_completed == spec.num_cells,
        "store_records": state.num_completed,
        "compacted": store.results_path.is_file(),
        "artifact_cells": artifact_cells,
    }
