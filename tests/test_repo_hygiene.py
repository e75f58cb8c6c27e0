"""Repo hygiene: one benchmark file at the root, and CI runs what exists.

``bench/`` + ``BENCHMARK.json`` is the only performance harness (ROADMAP
item 8).  A half-done retirement -- a script deleted and its CI step
left, or an old baseline file regenerated and committed -- would
otherwise first show up on the hosted runner.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_RUN_RE = re.compile(r"^(\s*)(?:- )?run:\s*(.*)$")
_PATH_RE = re.compile(r"(?<![\w./-])(?:benchmarks|tools|bench|examples)/[\w./-]*")


def run_commands(workflow: str) -> list[str]:
    """The shell text of every ``run:`` step, inline or block scalar."""
    commands: list[str] = []
    lines = workflow.splitlines()
    i = 0
    while i < len(lines):
        match = _RUN_RE.match(lines[i])
        i += 1
        if match is None:
            continue
        indent, inline = len(match.group(1)), match.group(2)
        if inline not in ("|", ">"):
            commands.append(inline)
            continue
        block = []
        while i < len(lines) and (
            not lines[i].strip()
            or len(lines[i]) - len(lines[i].lstrip()) > indent
        ):
            block.append(lines[i])
            i += 1
        commands.append("\n".join(block))
    return commands


def named_paths(workflow: str) -> set[str]:
    """Every benchmarks/, tools/, bench/ or examples/ path a step runs."""
    return {
        path for cmd in run_commands(workflow) for path in _PATH_RE.findall(cmd)
    }


def missing_paths(workflow: str, root: Path) -> list[str]:
    """Repo paths a ``run:`` step names that do not exist under ``root``."""
    return sorted(p for p in named_paths(workflow) if not (root / p).exists())


def test_benchmark_json_is_the_only_benchmark_file_at_the_root():
    assert sorted(p.name for p in REPO.glob("BENCH*")) == ["BENCHMARK.json"]


def test_ci_run_steps_name_only_paths_that_exist():
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text(
        encoding="utf-8"
    )
    # The parser sees the workflow: the harness step is among its finds.
    assert "bench/run.py" in named_paths(workflow)
    assert missing_paths(workflow, REPO) == []


def test_path_check_flags_a_planted_offender():
    planted = """\
jobs:
  lint:
    steps:
      - name: Inline step, script exists
        run: python tools/check_span_names.py
      - name: Block step, one script retired and its step left behind
        # a comment naming benchmarks/not_run.py is not a command
        run: |
          PYTHONPATH=src python -m pytest bench/tests -q
          PYTHONPATH=src python benchmarks/no_such_script.py \\
            --out campaigns/bench/ignored.json
      - name: Not a repo path
        run: test -f campaigns/ci/index.json
"""
    assert run_commands(planted)[0] == "python tools/check_span_names.py"
    assert missing_paths(planted, REPO) == ["benchmarks/no_such_script.py"]
