"""Argument validation and command groups of the ``repro`` command table.

A numeric argument out of its range, or a flag that does not apply to
the chosen experiment, is a usage error (exit 2) raised before anything
runs -- never a traceback from deep inside a run, and never a silent
no-op.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import EXPERIMENTS, main

SPEC = {
    "name": "cli-arguments",
    "scenarios": ["paper-four-node"],
    "partitioners": ["greedy"],
    "seeds": [1],
    "base_config": {"iterations": 3},
}


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC), encoding="utf-8")
    return path


def usage_error(argv, capsys) -> str:
    """stderr of ``main(argv)``, which must exit 2 through argparse."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: repro ")
    return err


@pytest.mark.parametrize(
    "argv, flag, low",
    [
        (["chaos", "--steps", "0"], "--steps", 1),
        (["chaos", "--checkpoint-interval", "0"], "--checkpoint-interval", 1),
        (["top", "fig10", "--quick", "--interval", "0"], "--interval", 1),
        (["top", "fig10", "--quick", "--interval", "-3"], "--interval", 1),
    ],
    ids=["chaos steps", "chaos checkpoint interval", "top interval 0",
         "top interval negative"],
)
def test_number_below_its_range_is_a_usage_error(
    argv, flag, low, tmp_path, capsys
):
    if argv[0] == "chaos":
        argv = [*argv, "--out-dir", str(tmp_path)]
    err = usage_error(argv, capsys)
    value = argv[argv.index(flag) + 1]
    assert f"argument {flag}: must be at least {low}, got {value}" in err


@pytest.mark.parametrize(
    "kill", [["--kill", "0"], ["--kill", "-1"], ["--kill", "8", "--nodes", "8"]],
    ids=["none killed", "negative", "no survivor"],
)
def test_chaos_kill_out_of_range_is_one_line(kill, tmp_path, capsys):
    assert main(["chaos", *kill, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"chaos error: kill must satisfy 1 <= kill < nodes (one node killed,"
        f" one survivor): kill={kill[1]}, nodes=8"
    ]
    assert list(tmp_path.iterdir()) == []


def test_replay_iterations_below_one_is_a_usage_error(tmp_path, capsys):
    err = usage_error(
        ["learn", "replay", str(tmp_path), "--iterations", "0"], capsys
    )
    assert "argument --iterations: must be at least 1, got 0" in err


@pytest.mark.parametrize("subcommand", ["run", "resume"])
def test_negative_max_cells_is_a_usage_error(
    subcommand, spec_file, tmp_path, capsys
):
    directory = str(tmp_path / "camp")
    if subcommand == "run":
        argv = ["campaign", "run", str(spec_file), "--dir", directory]
    else:
        argv = ["campaign", "resume", directory]
    err = usage_error([*argv, "--max-cells", "-1"], capsys)
    assert "argument --max-cells: must be at least 0, got -1" in err
    assert not (tmp_path / "camp").exists()


def test_max_cells_zero_still_executes_nothing(spec_file, tmp_path, capsys):
    directory = str(tmp_path / "camp")
    argv = ["campaign", "run", str(spec_file), "--dir", directory]
    assert main([*argv, "--max-cells", "0"]) == 0
    assert "(interrupted)" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
@pytest.mark.parametrize("flag", ["--timeout", "--interval"])
def test_watch_seconds_must_be_finite_and_positive(flag, value, tmp_path, capsys):
    err = usage_error(["campaign", "watch", str(tmp_path), flag, value], capsys)
    assert f"argument {flag}: must be a finite number above 0, got {value}" in err


def test_a_non_number_keeps_the_int_message(capsys):
    err = usage_error(["chaos", "--steps", "many"], capsys)
    assert "argument --steps: invalid int value: 'many'" in err


@pytest.mark.parametrize("experiment", ["all", "stub"])
def test_ledger_off_ablation_learn_is_refused_before_anything_runs(
    experiment, monkeypatch, tmp_path, capsys
):
    ran = []
    for key in list(EXPERIMENTS):
        monkeypatch.delitem(EXPERIMENTS, key)
    monkeypatch.setitem(
        EXPERIMENTS, "stub", ("stub", lambda quick: ran.append(quick) or "ran")
    )
    ledger = tmp_path / "ledger"
    assert main(["run", experiment, "--ledger", str(ledger)]) == 2
    assert "--ledger only applies to ablation-learn" in capsys.readouterr().err
    assert ran == []
    assert not ledger.exists()


def test_run_all_runs_each_distinct_experiment_once(monkeypatch, capsys):
    ran = []

    def stub(quick):
        ran.append(quick)
        return "stub output"

    for key in list(EXPERIMENTS):
        monkeypatch.delitem(EXPERIMENTS, key)
    monkeypatch.setitem(EXPERIMENTS, "one", ("first", stub))
    monkeypatch.setitem(EXPERIMENTS, "alias", ("alias of one", stub))
    assert main(["run", "all", "--quick"]) == 0
    assert capsys.readouterr().out == "==> one\nstub output\n\n"
    assert ran == [True]


@pytest.mark.parametrize("group", ["campaign", "learn"])
def test_group_without_a_leaf_command_prints_its_usage(group, capsys):
    assert main([group]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: repro {group} ")
