"""Tests for the ``repro learn`` CLI and the ablation-learn entry."""

from __future__ import annotations

import json

from repro.cli import EXPERIMENTS, main


def write_profile(camp, cell: str) -> None:
    d = camp / "artifacts" / cell
    d.mkdir(parents=True)
    (d / "profile.json").write_text(
        json.dumps(
            {
                "schema_version": 1,
                "cell_key": cell,
                "phases": {
                    "compute": {"count": 6, "sim_seconds": 12.0},
                    "migrate": {"count": 2, "sim_seconds": 0.8},
                    "iteration": {"count": 6, "sim_seconds": 14.0},
                },
                "metrics": {"counters": {"total_sim_seconds": 14.0}},
            }
        )
    )


class TestRegistration:
    def test_ablation_learn_listed(self, capsys):
        assert "ablation-learn" in EXPERIMENTS
        assert main(["list"]) == 0
        assert "ablation-learn" in capsys.readouterr().out


class TestLearnCommand:
    def test_no_subcommand_usage(self, capsys):
        assert main(["learn"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_inspect_missing_store(self, tmp_path, capsys):
        assert main(["learn", "inspect", str(tmp_path / "nope")]) == 2
        assert "no history store" in capsys.readouterr().err

    def test_fit_requires_artifacts(self, tmp_path, capsys):
        camp = tmp_path / "camp"
        camp.mkdir()
        assert main(["learn", "fit", str(camp)]) == 2
        assert "artifacts" in capsys.readouterr().err

    def test_fit_then_inspect(self, tmp_path, capsys):
        camp = tmp_path / "camp"
        write_profile(camp, "scen--greedy--s1--abc")
        write_profile(camp, "scen--greedy--s2--abc")
        assert main(["learn", "fit", str(camp)]) == 0
        out = capsys.readouterr().out
        assert "6 rows" in out  # 2 cells x 3 phases
        assert "newly ingested" in out
        # The append log is the whole store: no sidecar is written.
        assert [p.name for p in (camp / "learn").iterdir()] == [
            "history.jsonl"
        ]

        assert main(["learn", "inspect", str(camp / "learn")]) == 0
        out = capsys.readouterr().out
        assert "scen--greedy--s1--abc" in out
        assert "sensing interval: 20 its" in out  # cold -> paper f

    def test_fit_idempotent(self, tmp_path, capsys):
        camp = tmp_path / "camp"
        write_profile(camp, "scen--greedy--s1--abc")
        assert main(["learn", "fit", str(camp)]) == 0
        capsys.readouterr()
        assert main(["learn", "fit", str(camp)]) == 0
        assert "0 newly ingested" in capsys.readouterr().out

    def test_fit_custom_store_dir(self, tmp_path, capsys):
        camp = tmp_path / "camp"
        write_profile(camp, "scen--greedy--s1--abc")
        store = tmp_path / "elsewhere"
        assert (
            main(["learn", "fit", str(camp), "--store", str(store)]) == 0
        )
        assert (store / "history.jsonl").is_file()


class TestExplainCommand:
    @staticmethod
    def make_ledger(tmp_path):
        import numpy as np

        from repro.learn import DecisionLedger, LearnConfig, LearnController
        from repro.runtime.timemodel import IterationCost

        ledger_dir = tmp_path / "ledger"
        learn = LearnController(
            LearnConfig(), ledger=DecisionLedger(ledger_dir)
        )
        learn.bind(None, 2)
        for it in range(10):
            caps = np.array([0.5, 0.5])
            compute = np.array([1.0 + 0.1 * it, 1.0])
            learn.observe_sense(float(it), caps, 0.2)
            learn.observe_iteration(
                it,
                float(it),
                np.array([10.0 + it, 10.0 - it]),
                caps,
                IterationCost(
                    compute=compute,
                    comm=np.zeros(2),
                    sync=0.1,
                    total=float(compute.max()) + 0.1,
                ),
            )
            learn.observe_repartition(float(it), 0.3, 1024)
        learn.repartition_decision(
            np.array([30.0, 2.0]),
            np.array([0.5, 0.5]),
            12,
            iteration=10,
            t=10.0,
        )
        return ledger_dir

    def test_summary(self, tmp_path, capsys):
        ledger = self.make_ledger(tmp_path)
        assert main(["explain", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "ledger records" in out
        assert "gate:" in out
        assert "calibration:" in out
        assert "regret:" in out

    def test_calibration_and_regret_detail(self, tmp_path, capsys):
        ledger = self.make_ledger(tmp_path)
        assert main(["explain", str(ledger), "--calibration", "--regret"]) == 0
        out = capsys.readouterr().out
        assert "calibration detail" in out
        assert "regret detail" in out
        assert "coverage" in out

    def test_decision_replay_bit_exact(self, tmp_path, capsys):
        from repro.learn import load_ledger_rows

        ledger = self.make_ledger(tmp_path)
        seq = next(
            r["seq"]
            for r in load_ledger_rows(ledger)
            if r["kind"] == "gate"
        )
        assert main(["explain", str(ledger), "--decision", str(seq)]) == 0
        out = capsys.readouterr().out
        assert "bit-exact" in out
        assert "inputs:" in out

    def test_unknown_decision_exits_2(self, tmp_path, capsys):
        ledger = self.make_ledger(tmp_path)
        assert main(["explain", str(ledger), "--decision", "9999"]) == 2
        assert "no record with seq 9999" in capsys.readouterr().err

    def test_verify_all_gates(self, tmp_path, capsys):
        ledger = self.make_ledger(tmp_path)
        assert main(["explain", str(ledger), "--verify"]) == 0
        assert "replay bit-exactly" in capsys.readouterr().out

    def test_json_output_parses(self, tmp_path, capsys):
        ledger = self.make_ledger(tmp_path)
        assert main(["explain", str(ledger), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gate"]["decisions"] == 1
        assert payload["calibration"]["predictions"] > 0

    def test_missing_ledger_exits_2(self, tmp_path, capsys):
        assert main(["explain", str(tmp_path / "nope")]) == 2
        assert "no decision ledger" in capsys.readouterr().err

    def test_run_ledger_flag_rejected_off_ablation_learn(self, capsys):
        assert main(["run", "fig10", "--ledger", "/tmp/x", "--quick"]) == 2
        assert "--ledger" in capsys.readouterr().err
