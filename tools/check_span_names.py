#!/usr/bin/env python
"""Fail if instrumentation emits span/event names outside the registry.

Every span and event name the runtime emits must be declared in
:mod:`repro.telemetry.names` -- the dashboard, the critical-path
analyzer, the health monitor and the flamegraph exporter all dispatch on
those strings, so a typo'd or ad-hoc name silently falls off every
consumer.  This check walks the AST of ``src/`` for calls of the form::

    tracer.span("name", ...)
    tracer.add_span("name", ...)
    tracer.event("name", ...)
    metrics.counter("name", ...)
    metrics.gauge("name", ...)
    metrics.histogram("name", ...)

and fails when a literal first argument is not a registered span/event/
metric name.  A literal must be registered exactly; only an f-string
name, whose tail is not known statically, may instead start with a
registered ``EVENT_PREFIXES`` family such as ``health.``.  Non-literal
names cannot be checked statically and are skipped.

Run from the repo root (CI does)::

    python tools/check_span_names.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
sys.path.insert(0, str(SRC))

from repro.telemetry.names import (  # noqa: E402
    EVENT_NAMES,
    EVENT_PREFIXES,
    is_known_metric,
    is_known_span,
)

#: Method name -> which registry its first argument must satisfy.
EMITTERS = {
    "span": "span",
    "add_span": "span",
    "event": "event",
    # LearnController's private event helpers: `_event` forwards its
    # name argument to tracer.event verbatim (the `decision.*` ledger
    # mirror rides through it), so it obeys the same registry.
    "_event": "event",
    "counter": "metric",
    "gauge": "metric",
    "histogram": "metric",
}


def _first_arg_literal(call: ast.Call) -> tuple[str | None, bool]:
    """(literal text, is_prefix_only) of the call's name argument.

    For f-strings only the leading constant chunk is static; it is
    matched against the registered prefixes instead of the full names.
    """
    if not call.args:
        return None, False
    arg = call.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value, False
    if isinstance(arg, ast.JoinedStr) and arg.values:
        head = arg.values[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            return head.value, True
    return None, False


def check_source(source: str, rel: str) -> list[str]:
    """Every emission in ``source`` whose name is not registered."""
    violations = []
    for node in ast.walk(ast.parse(source, filename=rel)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in EMITTERS:
            continue
        kind = EMITTERS[func.attr]
        text, prefix_only = _first_arg_literal(node)
        if text is None:
            continue  # dynamic name: not statically checkable
        if prefix_only:
            ok = text.startswith(EVENT_PREFIXES)
        elif kind == "span":
            ok = is_known_span(text)
        elif kind == "metric":
            ok = is_known_metric(text)
        else:
            ok = text in EVENT_NAMES
        if not ok:
            violations.append(
                f"{rel}:{node.lineno}: .{func.attr}({text!r}) -- name not "
                "in repro.telemetry.names; register it there so every "
                "trace consumer sees it"
            )
    return violations


def main() -> int:
    violations: list[str] = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        violations.extend(
            check_source(
                path.read_text(encoding="utf-8"), str(path.relative_to(REPO_ROOT))
            )
        )
    if violations:
        print("unregistered span/event names:")
        for v in violations:
            print(f"  {v}")
        return 1
    print("span/event names: all emissions registered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
