"""BENCHMARK.json against the harness's own tables, and a smoke run."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bench import layers
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_top_level_keys_are_exactly_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert SPEC["paths"] == ["bench"]
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_workloads_match_the_registry():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_end_to_end_metrics():
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert names == ["wall_s", "setup_s", "peak_rss_mb", "sim_time_s"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = SPEC["end_to_end"][1]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_metrics_are_the_harness_table():
    assert len(SPEC["per_layer"]) <= 128
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _, _ in layers.METRICS
    ]
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_every_name_and_unit_is_in_the_charset_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names)
    assert all(UNIT_RE.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)


def _run(*argv):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *argv],
        stdout=subprocess.PIPE, text=True, timeout=170,
    )  # fmt: skip
    return done.returncode, json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace_flag, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_the_contract_line(trace_flag, section):
    code, result = _run(
        "--workload", "rm3d32_trace", "--seed", "5", "--seconds", "0.1", "--trace", trace_flag
    )  # fmt: skip
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["runtime.price_calls"]["value"] == 200
        assert result["metrics"]["bench.unattributed_frac"]["value"] <= 0.15
        assert (ROOT / "bench" / "out" / "rm3d32_trace.spans.json").is_file()
