"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports its submodules' public names
imports every submodule, so a caller that wanted one of them pays for
all.  :func:`lazy_exports` builds the module-level ``__getattr__`` and
``__dir__`` that import a submodule only when one of its names is first
read.  The value is looked up in the defining module on every access and
never stored in the package namespace, so the package always sees that
module's current binding.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, exports: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps each public name to the submodule that defines it,
    relative to ``package`` (``"spans"`` for ``repro.telemetry.spans``).
    """

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        return getattr(importlib.import_module(f"{package}.{module}"), name)

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *exports})

    return __getattr__, __dir__
