#!/usr/bin/env python
"""Fail on any ``src/`` definition that only ``tests/`` reach.

A function, method or class in ``src/repro`` that no program path uses
is code the tests keep alive on their own: a legacy adapter whose only
caller is its own test.  This check walks the syntax trees of ``src/``
and of the program's entry points and reports every definition, public
or private, that nothing live refers to.

**Roots** -- code that runs without being called from ``src/``: every
module under ``bench/``, ``benchmarks/``, ``examples/`` and ``tools/``,
``src/repro/__main__.py`` (which dispatches the ``repro.cli`` command
table), the module-level statements of every ``src/`` module (they run
on import), dunder methods, and the ``http.server`` handler protocol
(:data:`PROTOCOL_METHODS`).

**References** are by name, with no type inference: a definition is
live when live code outside its own body names it -- as a ``Name``, an
``Attribute`` (``x.name``) or a ``getattr(x, "name")`` string.  A
definition's body becomes live code when the definition does (a method
only when its class does too), so the walk runs to a fixed point and a
definition called only from orphans is an orphan as well.  Imports and
the ``_EXPORTS`` / ``__all__`` string tables are not references: they
publish a name, they do not use it.

**Config fields** -- each field of a ``src/`` dataclass whose name ends
in ``Config`` is a definition too, live when live code outside its
class passes a keyword argument of its name to any call.  A knob no
program path sets has one value, and belongs in a named constant.

:data:`ALLOWLIST` names the orphans another open ROADMAP item owns; it
may only shrink.  An entry that is referenced again is stale and fails
the check like a new orphan, so the list cannot outlive its reasons.

Run from the repo root (CI does)::

    python tools/check_reachability.py
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass, field
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"

#: Directories whose every module is an entry point.
ROOT_DIRS = ("bench", "benchmarks", "examples", "tools")

#: Entry-point modules inside the package.
ROOT_MODULES = (PACKAGE / "__main__.py",)

#: Methods the standard library calls by name: ``http.server``'s
#: request-handler protocol.
PROTOCOL_METHODS = frozenset({"do_GET", "log_message"})

#: Orphans an open ROADMAP item owns, as ``module:qualname`` -> the
#: item that decides their fate.  May only shrink.
ALLOWLIST = {
    # The copy-plan byte count item 6 switches the ghost-exchange charge to.
    "repro.amr.ghost:ghost_plan_bytes": "ROADMAP item 6",
    # Corrupt-snapshot fallback of the directory store, whose fate (drop,
    # or wire to `repro chaos --out-dir`) item 8 (iii) decides.
    "repro.resilience.checkpoint:CheckpointStore.latest_valid": "ROADMAP item 8",
    "repro.resilience.checkpoint:DirectoryCheckpointStore.latest_valid": (
        "ROADMAP item 8"
    ),
    # The store a run checkpoints to, unset until item 8 (iii) wires
    # `repro chaos --out-dir` to a directory store.
    "repro.resilience.checkpoint:ResilienceConfig.store": "ROADMAP item 8",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass(eq=False)
class Definition:
    """One function, method or class and the names its body uses."""

    qualname: str
    name: str
    lineno: int
    parent: Definition | None
    uses: set[str] = field(default_factory=set)
    is_field: bool = False

    @property
    def always_live(self) -> bool:
        name = self.name
        return (
            name.startswith("__") and name.endswith("__")
        ) or name in PROTOCOL_METHODS


def _kwarg(name: str) -> str:
    """The name under which passing keyword ``name`` is recorded (no
    identifier ends in ``=``, so it never meets a plain name)."""
    return f"{name}="


def names_used(nodes: list[ast.AST], *, nested: bool = False) -> set[str]:
    """Names referenced under ``nodes``, keyword arguments as
    :func:`_kwarg`.  Unless ``nested``, the bodies of function and class
    definitions are skipped (they are units of their own); their
    decorators, defaults and bases still count."""
    used: set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            used.add(_kwarg(node.arg))
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            used.add(node.args[1].value)
        if isinstance(node, _DEFS) and not nested:
            stack.extend(node.decorator_list)
            if isinstance(node, ast.ClassDef):
                stack.extend(node.bases + node.keywords)
            else:
                stack.extend(node.args.defaults)
                stack.extend(d for d in node.args.kw_defaults if d is not None)
            continue
        stack.extend(ast.iter_child_nodes(node))
    return used


def _body(node: ast.AST) -> list[ast.AST]:
    if isinstance(node, ast.ClassDef):
        return list(node.body)
    return [node.args, *node.body, *([node.returns] if node.returns else [])]


def _direct_defs(nodes: list[ast.AST]):
    """Definitions under ``nodes`` that are not inside another one."""
    for node in nodes:
        if isinstance(node, _DEFS):
            yield node
        else:
            yield from _direct_defs(list(ast.iter_child_nodes(node)))


def config_fields(node: ast.AST) -> list[ast.AnnAssign]:
    """The fields of a dataclass named ``*Config`` (none for anything
    else)."""
    if not (
        isinstance(node, ast.ClassDef)
        and node.name.endswith("Config")
        and any(
            "dataclass" in names_used([dec], nested=True)
            for dec in node.decorator_list
        )
    ):
        return []
    return [
        stmt
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and "ClassVar" not in names_used([stmt.annotation])
    ]


def definitions(module: str, tree: ast.Module) -> tuple[list[Definition], set[str]]:
    """Every function/method/class definition and config field of a
    module, and the names its module-level statements use."""
    defs: list[Definition] = []

    def visit(body: list[ast.stmt], parent: Definition | None, prefix: str) -> None:
        for node in _direct_defs(body):
            qual = f"{prefix}{node.name}"
            d = Definition(f"{module}:{qual}", node.name, node.lineno, parent)
            d.uses = names_used(_body(node))
            first = len(defs)
            defs.append(d)
            visit(node.body, d, f"{qual}.")
            fields = config_fields(node)
            # Only a caller outside the class sets a field.
            own = {_kwarg(f.target.id) for f in fields}
            for inner in defs[first:]:
                inner.uses -= own
            defs.extend(
                Definition(
                    f"{module}:{qual}.{f.target.id}",
                    _kwarg(f.target.id),
                    f.lineno,
                    d,
                    is_field=True,
                )
                for f in fields
            )

    visit(tree.body, None, "")
    # ``import x as y``: using ``y`` uses ``x``.
    renames = {
        alias.asname: alias.name.rpartition(".")[2]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.asname
    }
    top_level = names_used(tree.body)
    for used in [top_level, *(d.uses for d in defs)]:
        used |= {renames[n] for n in used & renames.keys()}
    return defs, top_level


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def orphans() -> list[Definition]:
    """Definitions under ``src/repro`` that no live code refers to (a
    method of a dead class is reported as its class)."""
    roots = [
        path for d in ROOT_DIRS for path in sorted((REPO_ROOT / d).rglob("*.py"))
    ] + list(ROOT_MODULES)
    live_names: set[str] = set()
    for path in roots:
        live_names |= names_used(
            [ast.parse(path.read_text(encoding="utf-8"))], nested=True
        )
    defs: list[Definition] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path in roots:
            continue
        module_defs, top_level = definitions(
            _module_name(path), ast.parse(path.read_text(encoding="utf-8"))
        )
        defs.extend(module_defs)
        live_names |= top_level

    def is_live(d: Definition) -> bool:
        return (d.always_live or d.name in live_names) and (
            d.parent is None or is_live(d.parent)
        )

    pending = list(defs)
    while woken := [d for d in pending if is_live(d)]:
        for d in woken:
            live_names |= d.uses
            pending.remove(d)
    return [d for d in pending if d.parent is None or is_live(d.parent)]


def main() -> int:
    found = {d.qualname: d for d in orphans()}
    violations = [
        f"{q} (line {d.lineno}): no program path sets it -- make it a"
        " named constant where it is read"
        if d.is_field
        else f"{q} (line {d.lineno}): no program path reaches it -- delete"
        " it, or call it from where it belongs"
        for q, d in sorted(found.items())
        if q not in ALLOWLIST
    ]
    violations += [
        f"{q}: allowlisted ({why}) but referenced now -- drop the entry"
        for q, why in sorted(ALLOWLIST.items())
        if q not in found
    ]
    if violations:
        print("reachability: src/ definitions only tests reach:")
        for v in violations:
            print(f"  {v}")
        return 1
    print(f"reachability: clean ({len(ALLOWLIST)} allowlisted)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
