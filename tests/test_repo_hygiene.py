"""Repo hygiene: one benchmark file at the root, CI runs what exists,
numpy is the only third-party package the code imports, trace readers
leave record routing to the trace model, the command modules import
their subsystems inside the handlers, and nothing in ``src/`` is reached
only from the tests.

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
import shutil
import subprocess
import sys
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


#: Trace readers that read records through ``telemetry/model.py``, the
#: one place a trace is routed by record type and grouped by pid.
TRACE_READERS = (
    "src/repro/telemetry/profile.py",
    "src/repro/telemetry/report.py",
    "src/repro/telemetry/analysis.py",
)
ROUTING_KEYS = {"type", "pid"}


def _routing_key(node: ast.expr) -> bool:
    """``x.get("type"...)`` / ``x["pid"]`` and the like."""
    if isinstance(node, ast.Subscript):
        key = node.slice
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and node.args
    ):
        key = node.args[0]
    else:
        return False
    return isinstance(key, ast.Constant) and key.value in ROUTING_KEYS


def record_routing(source: str) -> list[int]:
    """Line of every ``==``/``!=`` test on a record's type or pid."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        if not all(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        if any(_routing_key(n) for n in (node.left, *node.comparators)):
            lines.append(node.lineno)
    return sorted(lines)


def test_trace_readers_leave_record_routing_to_the_model():
    offenders = [
        f"{name}:{line}"
        for name in TRACE_READERS
        for line in record_routing((REPO / name).read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_routing_check_flags_a_planted_offender():
    planted = (
        "spans = [r for r in records if r.get('type') == 'span']\n"
        "run = [s for s in spans if s['pid'] == pid]\n"
        "if ev.get('type', 'event') != 'event':\n"
        "    pass\n"
        "other = [e for e in events if e.get('pid', 0) == pid]\n"
        "fine = [r for r in rows if r.get('kind') == 'gate']\n"
        "also_fine = {'type': 'O', 'pid': 1}\n"
        "attribute = [s for s in snapshots if s.pid == pid]\n"
    )
    assert record_routing(planted) == [1, 2, 3, 5]


#: The command table: ``repro --help`` imports every module here, so a
#: subsystem one of them imports at module level is loaded by every call.
CLI_PACKAGE = REPO / "src" / "repro" / "cli"


def _type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _outside_the_cli(module: str) -> bool:
    inside = module == "repro.cli" or module.startswith("repro.cli.")
    return (module == "repro" or module.startswith("repro.")) and not inside


def eager_repro_imports(source: str) -> list[int]:
    """Line of every import of a ``repro`` package other than
    ``repro.cli`` that runs when the module itself is imported."""
    lines = []
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and _type_checking(node.test):
            pending.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # ``from . import x`` stays inside the package; ``from ..``
            # reaches the rest of ``repro``.
            modules = [node.module or ""] if node.level == 0 else (
                ["repro"] if node.level > 1 else []
            )
        else:
            pending.extend(ast.iter_child_nodes(node))
            continue
        if any(_outside_the_cli(m) for m in modules):
            lines.append(node.lineno)
    return sorted(lines)


def test_command_modules_import_subsystems_only_in_handlers():
    modules = sorted(CLI_PACKAGE.glob("*.py"))
    assert CLI_PACKAGE / "__init__.py" in modules and len(modules) > 1
    offenders = [
        f"{path.relative_to(REPO)}:{line}"
        for path in modules
        for line in eager_repro_imports(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_eager_import_check_flags_a_planted_offender():
    planted = (
        "import argparse\n"
        "from repro.cli import experiments\n"
        "from repro.telemetry import Tracer\n"
        "from . import common\n"
        "from .. import partition\n"
        "if TYPE_CHECKING:\n"
        "    from repro.telemetry import HealthMonitor\n"
        "try:\n"
        "    import repro.learn\n"
        "except ImportError:\n"
        "    pass\n"
        "class Table:\n"
        "    import repro\n"
        "def handler(args):\n"
        "    from repro.campaign import CampaignRunner\n"
        "import repro.cli.common, repro.runtime as rt\n"
    )
    assert eager_repro_imports(planted) == [3, 5, 9, 13, 16]


def run_reachability(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "tools" / "check_reachability.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )


def reachability_tree(tmp_path: Path) -> Path:
    """A copy of everything the reachability check reads."""
    for name in ("src", "bench", "benchmarks", "examples", "tools"):
        shutil.copytree(
            REPO / name,
            tmp_path / name,
            ignore=shutil.ignore_patterns("__pycache__", "out"),
        )
    return tmp_path


def test_ci_runs_the_reachability_check():
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text(
        encoding="utf-8"
    )
    assert "python tools/check_reachability.py" in run_commands(workflow)


def test_nothing_in_src_is_reached_only_from_tests():
    result = run_reachability(REPO)
    assert result.returncode == 0, result.stdout


def test_reachability_allowlist_cites_open_roadmap_items(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "check_reachability", REPO / "tools" / "check_reachability.py"
    )
    tool = importlib.util.module_from_spec(spec)
    # Its dataclass resolves annotations through ``sys.modules``.
    monkeypatch.setitem(sys.modules, spec.name, tool)
    spec.loader.exec_module(tool)
    roadmap = (REPO / "ROADMAP.md").read_text(encoding="utf-8")
    for entry, owner in tool.ALLOWLIST.items():
        match = re.fullmatch(r"ROADMAP item (\d+)", owner)
        assert match, f"{entry}: {owner!r} names no ROADMAP item"
        # Open items open with a bold title; closed ones with "*(Closed".
        assert re.search(rf"^{match[1]}\. \*\*", roadmap, re.M), (
            f"{entry}: ROADMAP item {match[1]} is not open"
        )


def test_reachability_flags_a_planted_orphan(tmp_path):
    root = reachability_tree(tmp_path)
    with open(root / "src" / "repro" / "util" / "rng.py", "a") as fh:
        fh.write(
            "\n\ndef planted_orphan():\n    return _planted_helper()\n"
            "\n\ndef _planted_helper():\n    return make_rng(0)\n"
        )
    result = run_reachability(root)
    assert result.returncode == 1
    flagged = [line for line in result.stdout.splitlines() if "planted" in line]
    # The helper only the orphan calls is an orphan too.
    assert [line.split()[0] for line in flagged] == [
        "repro.util.rng:_planted_helper",
        "repro.util.rng:planted_orphan",
    ]


def test_reachability_flags_a_stale_allowlist_entry(tmp_path):
    root = reachability_tree(tmp_path)
    (root / "examples" / "planted.py").write_text(
        "def owned(layout):\n    return layout.of_rank(0)\n", encoding="utf-8"
    )
    result = run_reachability(root)
    assert result.returncode == 1
    assert "repro.util.geometry:Layout.of_rank" in result.stdout
    assert "referenced now" in result.stdout
