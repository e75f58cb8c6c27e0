"""Import budget: what a fresh interpreter loads for the cheap entry points.

Every bench child, CLI call, campaign worker and CI step pays for the
modules its first import pulls in.  numpy is the only third-party
runtime dependency, and the package ``__init__`` modules resolve their
names lazily (PEP 562), so ``import repro`` or ``repro --help`` loads no
subsystem it does not run.  These tests compare module *names* in fresh
subprocesses, never timings, so machine noise cannot make them flaky.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from tests.test_repo_hygiene import RETIRED_DEPENDENCIES

SRC = Path(__file__).resolve().parents[1] / "src"

#: Subsystems a caller of the cheap entry points never runs.
NOT_ON_THE_CHEAP_PATH = (
    *RETIRED_DEPENDENCIES,
    "repro.telemetry.report",
    "repro.telemetry.model",
    "repro.telemetry.profile",
    "repro.telemetry.analysis",
    "repro.telemetry.live",
    "repro.telemetry.export",
    "repro.campaign",
    "repro.learn",
    "repro.runtime.ablation",
    "repro.runtime.experiment",
    "repro.runtime.reporting",
)

#: ``repro [COMMAND] --help``: argparse prints the help and exits before
#: any handler runs, so only the command table itself may load.
HELP = """\
import contextlib, io, runpy, sys
sys.argv = ["repro", {args}"--help"]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exit:
        assert exit.code == 0, exit.code
"""

#: ``python -m repro`` runs the CLI on import, so the walk skips it;
#: ``repro --help`` above is that entry point.
WALK_EVERY_MODULE = """\
import importlib, pkgutil, repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name != "repro.__main__":
        importlib.import_module(info.name)
"""


def loaded_modules(code: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after it ran ``code``."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def matching(modules: set[str], prefixes) -> list[str]:
    """Modules equal to, or inside, one of the dotted ``prefixes``."""
    return sorted(
        m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)
    )


GROUPS = ("run", "campaign", "learn", "explain")


@pytest.mark.parametrize(
    "code",
    [
        "import repro",
        "import repro.partition",
        HELP.format(args=""),
        *(HELP.format(args=f"{group!r}, ") for group in GROUPS),
    ],
    ids=[
        "import repro",
        "import repro.partition",
        "repro --help",
        *(f"repro {group} --help" for group in GROUPS),
    ],
)
def test_cheap_entry_points_load_no_subsystem(code):
    modules = loaded_modules(code)
    assert "repro" in modules
    assert matching(modules, NOT_ON_THE_CHEAP_PATH) == []


def test_no_module_under_src_imports_a_retired_dependency():
    modules = loaded_modules(WALK_EVERY_MODULE)
    assert "repro.partition.graphpart" in modules
    assert "repro.amr.flagging" in modules
    assert matching(modules, RETIRED_DEPENDENCIES) == []


def test_budget_check_flags_a_planted_import():
    offenders = matching(
        loaded_modules("import repro.runtime.experiment"), NOT_ON_THE_CHEAP_PATH
    )
    assert {"repro.runtime.experiment", "repro.learn"} <= set(offenders)


def lazy_packages() -> list[str]:
    """Every package under ``repro`` whose names resolve on first access."""
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
    return [n for n in names if "__getattr__" in vars(importlib.import_module(n))]


def test_repro_and_telemetry_are_lazy():
    assert {"repro", "repro.telemetry"} <= set(lazy_packages())


@pytest.mark.parametrize("package", lazy_packages())
def test_every_lazy_name_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        assert name in listed
        assert getattr(module, name) is not None
        # Read through to the defining module on every access, never
        # stored here: a later rebinding there is always seen.
        assert name == "__version__" or name not in vars(module)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
