"""Repo hygiene: one benchmark file at the root, CI runs what exists, and
numpy is the only third-party package the code imports.

``bench/`` + ``BENCHMARK.json`` is the only performance harness (ROADMAP
item 8).  A half-done retirement -- a script deleted and its CI step
left, an old baseline file regenerated and committed, or a retired
dependency imported again -- would otherwise first show up on the hosted
runner.
"""

from __future__ import annotations

import ast
import importlib.util
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: Not installed by ``pip install -e ".[test]"``: numpy is the only
#: runtime dependency (``pyproject.toml``).
RETIRED_DEPENDENCIES = {"scipy", "networkx"}
SCANNED_DIRS = ("src", "tests", "benchmarks", "examples", "tools", "bench")

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


def test_ci_gates_the_observability_bill():
    # The bench job records its numbers and the budget check reads them;
    # the check's own planted-record self-test must hold here too.
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text(
        encoding="utf-8"
    )
    commands = run_commands(workflow)
    assert any(
        "bench/run.py" in c and "--record /tmp/bench-record.json" in c
        for c in commands
    )
    assert (
        "python tools/check_observability_bill.py /tmp/bench-record.json"
        in commands
    )
    spec = importlib.util.spec_from_file_location(
        "check_observability_bill",
        REPO / "tools" / "check_observability_bill.py",
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.self_test() == []


def retired_imports(source: str) -> list[int]:
    """Line of every ``import``/``from`` of a retired dependency."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(m.split(".")[0] in RETIRED_DEPENDENCIES for m in modules):
            lines.append(node.lineno)
    return lines


def test_no_code_imports_a_retired_dependency():
    offenders = [
        f"{path.relative_to(REPO)}:{line}"
        for directory in SCANNED_DIRS
        for path in sorted((REPO / directory).rglob("*.py"))
        for line in retired_imports(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_import_check_flags_a_planted_offender():
    planted = (
        "import os\n"
        "import numpy as np, scipy.ndimage as ndi\n"
        "from networkx.algorithms import is_connected\n"
        "from . import scipy\n"
        "import scipy_like\n"
        "def f():\n"
        "    import networkx\n"
    )
    assert retired_imports(planted) == [2, 3, 7]
