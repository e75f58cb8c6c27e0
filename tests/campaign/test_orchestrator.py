"""Tests for the campaign orchestrator: resume, failures, telemetry."""

from __future__ import annotations

import os

import pytest

import repro.campaign.orchestrator as orch
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    campaign_status,
)
from repro.campaign.store import ResultStore
from repro.telemetry.spans import Tracer
from repro.util.errors import CampaignError


def small_spec(**overrides) -> CampaignSpec:
    kwargs = dict(
        name="t",
        scenarios=("paper-four-node",),
        partitioners=("greedy", "heterogeneous"),
        seeds=(1, 2),
        base_config={"iterations": 3},
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestValidation:
    def test_unknown_scenario_rejected_upfront(self, tmp_path):
        spec = small_spec(scenarios=("no-such-scenario",))
        with pytest.raises(CampaignError, match="unknown scenario"):
            CampaignRunner(spec, tmp_path / "c")

    def test_unknown_partitioner_rejected_upfront(self, tmp_path):
        spec = small_spec(partitioners=("no-such-partitioner",))
        with pytest.raises(CampaignError, match="unknown partitioner"):
            CampaignRunner(spec, tmp_path / "c")

    def test_directory_owned_by_other_campaign(self, tmp_path):
        d = tmp_path / "c"
        CampaignRunner(small_spec(), d)
        with pytest.raises(CampaignError, match="belongs to campaign"):
            CampaignRunner(small_spec(seeds=(9,)), d)

    def test_campaign_json_is_fsynced(
        self, tmp_path, monkeypatch
    ):
        """A rename can outlive unsynced data: an empty campaign.json
        would make the directory unclaimable forever."""
        d = tmp_path / "c"
        synced = []
        real_fsync = os.fsync

        def fsync(fd):
            synced.append(os.fstat(fd).st_size)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        CampaignRunner(small_spec(), d)
        assert synced == [(d / "campaign.json").stat().st_size]
        CampaignRunner(small_spec(), d)  # verifying writes nothing
        assert len(synced) == 1


class TestRunAndResume:
    def test_full_inline_run(self, tmp_path):
        d = tmp_path / "c"
        result = CampaignRunner(small_spec(), d).run()
        assert result["complete"]
        assert result["executed"] == 4
        assert result["failed"] == 0
        assert (d / "results.jsonl").is_file()
        assert (d / "index.json").is_file()

    def test_max_cells_interrupts_then_resume_skips(self, tmp_path):
        d = tmp_path / "c"
        first = CampaignRunner(small_spec(), d).run(max_cells=3)
        assert not first["complete"]
        assert first["executed"] == 3
        second = CampaignRunner(small_spec(), d).run()
        assert second["complete"]
        assert second["executed"] == 1  # zero completed cells re-executed
        assert second["skipped"] == 3

    def test_resume_of_complete_campaign_is_noop(self, tmp_path, monkeypatch):
        d = tmp_path / "c"
        CampaignRunner(small_spec(), d).run()
        served = [d / "results.jsonl", d / "index.json"]
        mtimes = [p.stat().st_mtime_ns for p in served]
        fsyncs = []
        monkeypatch.setattr(os, "fsync", fsyncs.append)
        again = CampaignRunner(small_spec(), d).run()
        assert again["complete"]
        assert again["executed"] == 0
        assert again["skipped"] == 4
        # Nothing to merge: the files `repro serve` builds its ETags from
        # are not rewritten, and nothing is synced.
        assert [p.stat().st_mtime_ns for p in served] == mtimes
        assert fsyncs == []

    def test_progress_survives_in_the_store(self, tmp_path):
        d = tmp_path / "c"
        CampaignRunner(small_spec(), d).run(max_cells=2)
        runner = CampaignRunner(small_spec(), d)
        assert runner.state.num_completed == 2
        assert sorted(runner.state.completed) == sorted(runner.store.keys())
        assert not (d / "checkpoints").exists()

    def test_kill_after_store_append_counts_the_cell(
        self, tmp_path, monkeypatch
    ):
        """The store row *is* the commit: a kill right after the append
        (where a second ledger used to be written) loses nothing."""
        d = tmp_path / "c"

        class Killed(BaseException):
            pass

        real_append = ResultStore.append

        def append_then_die(self, record):
            real_append(self, record)
            if len(self.keys()) == 2:
                raise Killed

        monkeypatch.setattr(ResultStore, "append", append_then_die)
        with pytest.raises(Killed):
            CampaignRunner(small_spec(), d).run()
        monkeypatch.undo()

        executed = []
        real_execute = orch.execute_cell

        def counting(cell_dict, *args):
            executed.append(cell_dict)
            return real_execute(cell_dict, *args)

        monkeypatch.setattr(orch, "execute_cell", counting)
        runner = CampaignRunner(small_spec(), d)
        assert runner.state.num_completed == 2
        result = runner.run()
        assert result["complete"]
        assert (result["skipped"], result["executed"]) == (2, 2)
        assert len(executed) == 2  # zero completed cells re-executed
        assert len(ResultStore(d)) == 4

    def test_directory_with_legacy_checkpoints_resumes(self, tmp_path):
        """Directories written before the store became the only ledger
        carry a ``checkpoints/`` of pickled snapshots; it is ignored."""
        d = tmp_path / "c"
        CampaignRunner(small_spec(), d).run()
        (d / "checkpoints").mkdir()
        (d / "checkpoints" / "ckpt_00000004.rpck").write_bytes(b"RPCK junk")
        again = CampaignRunner(small_spec(), d).run()
        assert again["complete"]
        assert again["executed"] == 0
        assert campaign_status(d)["completed"] == 4

    def test_pool_mode_completes(self, tmp_path):
        d = tmp_path / "c"
        result = CampaignRunner(small_spec(), d, workers=2).run()
        assert result["complete"]
        assert result["executed"] == 4


class TestFailures:
    def test_failed_cell_recorded_not_stored(self, tmp_path, monkeypatch):
        d = tmp_path / "c"
        real = orch.execute_cell

        def flaky(cell_dict, *args):
            if cell_dict["seed"] == 2:
                raise RuntimeError("injected")
            return real(cell_dict, *args)

        monkeypatch.setattr(orch, "execute_cell", flaky)
        runner = CampaignRunner(small_spec(), d)
        result = runner.run()
        assert result["failed"] == 2
        assert not result["complete"]
        assert runner.state.num_completed == 2
        assert (d / "failures.jsonl").is_file()
        status = campaign_status(d)
        assert len(status["failed"]) == 2
        assert "RuntimeError: injected" in next(
            iter(status["failed"].values())
        )

    def test_failed_cells_retry_on_resume(self, tmp_path, monkeypatch):
        d = tmp_path / "c"

        def broken(cell_dict, *args):
            raise RuntimeError("down")

        monkeypatch.setattr(orch, "execute_cell", broken)
        CampaignRunner(small_spec(), d).run()
        monkeypatch.undo()
        result = CampaignRunner(small_spec(), d).run()
        assert result["complete"]
        assert result["executed"] == 4
        assert not campaign_status(d)["failed"]


class TestTelemetry:
    def test_cell_spans_and_counters(self, tmp_path):
        tracer = Tracer()
        CampaignRunner(small_spec(), tmp_path / "c", tracer=tracer).run()
        spans = list(tracer.spans_named("campaign.cell"))
        assert len(spans) == 4
        assert all(s.attributes["cell_key"] for s in spans)
        assert all(s.sim_duration > 0 for s in spans)
        counters = {
            c.name: c.value
            for c in tracer.metrics
            if c.name.startswith("campaign.cells_")
        }
        assert counters["campaign.cells_completed"] == 4

    def test_started_and_completed_events(self, tmp_path):
        tracer = Tracer()
        CampaignRunner(small_spec(), tmp_path / "c", tracer=tracer).run()
        names = [e.name for e in tracer.events]
        assert "campaign.started" in names
        assert "campaign.completed" in names


class TestStatus:
    def test_status_of_fresh_directory_fails(self, tmp_path):
        with pytest.raises(CampaignError, match="not a campaign directory"):
            campaign_status(tmp_path)

    def test_status_progress(self, tmp_path):
        d = tmp_path / "c"
        CampaignRunner(small_spec(), d).run(max_cells=1)
        status = campaign_status(d)
        assert status["completed"] == 1
        assert status["num_cells"] == 4
        assert not status["complete"]
