"""CLI tests: ``repro campaign`` and ``repro serve`` errors."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {
                "name": "cli",
                "scenarios": ["paper-four-node"],
                "partitioners": ["greedy"],
                "seeds": [1, 2],
                "base_config": {"iterations": 3},
            }
        ),
        encoding="utf-8",
    )
    return path


class TestCampaignCommand:
    def test_run_status_resume_cycle(self, tmp_path, spec_file, capsys):
        d = str(tmp_path / "c")
        assert main(
            ["campaign", "run", str(spec_file), "--dir", d, "--max-cells", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "1/2 cells (interrupted)" in out
        assert "campaign resume" in out

        assert main(["campaign", "status", d]) == 0
        assert "1/2 cells, in progress" in capsys.readouterr().out

        assert main(["campaign", "resume", d]) == 0
        out = capsys.readouterr().out
        assert "2/2 cells (complete)" in out
        assert "skipped 1 already-done" in out

        assert main(["campaign", "status", d]) == 0
        assert "complete" in capsys.readouterr().out

    def test_run_missing_spec_exits_2(self, tmp_path, capsys):
        code = main(
            ["campaign", "run", str(tmp_path / "no.json"), "--dir", "x"]
        )
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_run_corrupt_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        assert main(["campaign", "run", str(bad), "--dir", "x"]) == 2
        assert "could not parse" in capsys.readouterr().err

    def test_run_empty_grid_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(
            json.dumps(
                {
                    "name": "e",
                    "scenarios": [],
                    "partitioners": ["greedy"],
                    "seeds": [1],
                }
            ),
            encoding="utf-8",
        )
        assert main(["campaign", "run", str(empty), "--dir", "x"]) == 2
        assert "is empty" in capsys.readouterr().err

    def test_status_non_campaign_dir_exits_2(self, tmp_path, capsys):
        assert main(["campaign", "status", str(tmp_path)]) == 2
        assert "not a campaign directory" in capsys.readouterr().err

    def test_resume_non_campaign_dir_exits_2(self, tmp_path, capsys):
        assert main(["campaign", "resume", str(tmp_path)]) == 2
        assert "not a campaign directory" in capsys.readouterr().err

    def test_no_subcommand_exits_2(self, capsys):
        assert main(["campaign"]) == 2
        assert "usage" in capsys.readouterr().err


class TestCampaignWatch:
    def completed_dir(self, tmp_path, spec_file) -> str:
        d = str(tmp_path / "c")
        assert main(["campaign", "run", str(spec_file), "--dir", d]) == 0
        return d

    def test_watch_completed_directory(self, tmp_path, spec_file, capsys):
        d = self.completed_dir(tmp_path, spec_file)
        capsys.readouterr()
        assert main(["campaign", "watch", d]) == 0
        out = capsys.readouterr().out
        # Non-tty mode prints one line per lifecycle event, then a summary.
        assert out.count("cell finished") == 2
        assert "watch: " in out
        assert "complete" in out

    def test_watch_timeout_on_stalled_campaign(
        self, tmp_path, spec_file, capsys
    ):
        d = str(tmp_path / "c")
        main(
            ["campaign", "run", str(spec_file), "--dir", d, "--max-cells", "1"]
        )
        capsys.readouterr()
        code = main(["campaign", "watch", d, "--timeout", "0.3"])
        assert code == 1
        assert "timed out" in capsys.readouterr().out

    def test_watch_non_campaign_dir_exits_2(self, tmp_path, capsys):
        assert main(["campaign", "watch", str(tmp_path)]) == 2
        assert "not a campaign directory" in capsys.readouterr().err

    def test_watch_live_url(self, tmp_path, spec_file, capsys):
        import threading

        from repro.campaign import make_server

        root = tmp_path / "root"
        root.mkdir()
        self.completed_dir(root, spec_file)
        server = make_server(root, port=0)
        try:
            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            port = server.server_address[1]
            capsys.readouterr()
            code = main(
                [
                    "campaign",
                    "watch",
                    f"http://127.0.0.1:{port}/campaigns/c/live",
                ]
            )
            out = capsys.readouterr().out
            assert code == 0
            assert "progress: 2/2 cells" in out
            assert "watch: complete" in out
        finally:
            server.shutdown()
            server.server_close()

    def test_watch_bad_url_exits_2(self, capsys):
        code = main(
            [
                "campaign",
                "watch",
                "http://127.0.0.1:1/campaigns/x/live",
                "--timeout", "2",
            ]
        )
        assert code == 2
        assert "watch error" in capsys.readouterr().err


class TestServeCommand:
    def test_missing_root_exits_2(self, tmp_path, capsys):
        code = main(["serve", "--root", str(tmp_path / "nope")])
        assert code == 2
        assert "serve error" in capsys.readouterr().err
